(** Abstract syntax of the Action Specification Language (ASL).

    The language plays the role the paper assigns to ASL/OMG Action
    Semantics: "notation and semantics for single actions like operation
    calls and assignments in UML models", closing "the last gap to
    complete system specification".  It is a small imperative language
    over model objects:

    {v
      x := 1 + 2;
      self.count := self.count + 1;
      if x > 3 then y := 1; else y := 2; end;
      while x < 10 do x := x + 1; end;
      for i := 1 to 8 do total := total + i; end;
      send ack(x) to self.peer;
      var c := new Counter;
      c.step(2);
      delete c;
      return total;
    v} *)

type unop =
  | Neg
  | Not
[@@deriving eq, ord, show]

type binop =
  | Add
  | Sub
  | Mul
  | Div
  | Mod
  | Eq
  | Ne
  | Lt
  | Le
  | Gt
  | Ge
  | And
  | Or
  | Concat
[@@deriving eq, ord, show]

type expr =
  | Int_lit of int
  | Real_lit of float
  | Bool_lit of bool
  | String_lit of string
  | Null_lit
  | Self
  | Var of string
  | Attr of expr * string  (** [e.name] *)
  | Unop of unop * expr
  | Binop of binop * expr * expr
  | Call of expr option * string * expr list
      (** [recv.op(args)] or [op(args)] *)
  | New of string  (** [new ClassName] *)
[@@deriving eq, ord, show]

type lvalue =
  | L_var of string
  | L_attr of expr * string
[@@deriving eq, ord, show]

type stmt =
  | Skip
  | Var_decl of string * expr  (** [var x := e;] *)
  | Assign of lvalue * expr
  | Expr_stmt of expr  (** a call evaluated for effect *)
  | If of expr * stmt list * stmt list
  | While of expr * stmt list
  | For of string * expr * expr * stmt list  (** [for i := a to b do ... end] *)
  | Return of expr option
  | Send of string * expr list * expr option
      (** [send sig(args) to target;]; [None] target = enclosing machine *)
  | Delete of expr
[@@deriving eq, ord, show]

type program = stmt list [@@deriving eq, ord, show]

val binop_name : binop -> string
