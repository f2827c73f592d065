(** What the VHDL, Verilog and SystemC printers share.

    Names, enum literals, the dependencies-first design walk, the
    C-family operator spelling, and one statement walker that prints
    [Null], [Assign], [If], [Case] and a clocked process's reset
    if/else.  The walker knows no target language: each printer hands
    it a {!syntax} record with its keywords and expression printers. *)

val sanitize : string -> string
(** ASCII letters and digits kept, every other character ['_']. *)

val enum_literal : string -> string
(** [S_<sanitized literal>], the spelling of an enum literal in every
    target language. *)

val enum_types : Hdl.Module_.t -> string list list
(** The literal lists of the enum types of the module's ports, then
    its signals, in declaration order, repeats included. *)

val enum_constants : Hdl.Module_.t -> (string * int * int) list
(** Every enum literal of {!enum_types} once, at its first occurrence:
    (literal, position in its type, bit width of its type). *)

val design :
  ?prelude:string -> (Hdl.Module_.t -> string) -> Hdl.Module_.design ->
  string
(** [prelude] (default empty), then every module of the design printed
    once, each followed by an empty line; a module's instantiated
    modules come before it. *)

val c_binop : Hdl.Expr.binop -> string
(** The Verilog / C++ spelling of a binary operator. *)

type syntax = {
  null : string;  (** the empty statement *)
  assign : string -> Hdl.Expr.t -> string;
      (** a whole assignment to the (unsanitized) target *)
  cond : Hdl.Expr.t -> string;  (** an expression tested by [if] *)
  value : Hdl.Expr.t -> string;  (** an expression selected on by [case] *)
  if_open : string -> string;  (** from the printed condition *)
  if_else : string;
  if_close : string;
  case_open : string -> string;  (** from the printed selector *)
  arm_open : string -> string;  (** from the printed choice *)
  arm_close : string option;  (** after every arm, the default's too *)
  default_open : string;
  no_default : string;  (** the one-line arm for a case without default *)
  case_close : string;
}
(** One language's statement syntax.  Texts carry no indentation or
    newline; the walker indents nested statements by two columns, case
    arms by two and their statements by four. *)

val body : syntax -> Buffer.t -> int -> Hdl.Stmt.t list -> unit
(** [body syn buf indent stmts] appends the statements to [buf], one
    line each, indented by [indent] columns. *)

val seq_body :
  syntax -> Buffer.t -> reset_cond:(string -> string) -> int ->
  Hdl.Module_.seq_process -> unit
(** A clocked process's statements at [indent]; with a synchronous
    reset, inside an if/else on [reset_cond reset_name] with the reset
    statements first. *)
