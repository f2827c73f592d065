(** Static typechecker for ASL programs.

    Checking happens against a [class_info] oracle describing the
    surrounding UML model (attribute types, operation signatures), so the
    checker has no dependency on the metamodel library itself. *)

type ty =
  | T_int
  | T_real
  | T_bool
  | T_string
  | T_obj of string option  (** class name when known *)
  | T_null
  | T_void
[@@deriving eq, show]

type class_info = {
  class_exists : string -> bool;
  attr_type : string -> string -> ty option;
      (** [attr_type class_name attr_name] *)
  op_signature : string -> string -> (ty list * ty) option;
      (** [op_signature class_name op_name] = parameter types, result *)
}

val no_classes : class_info
(** Oracle for model-free programs: no classes, no attributes. *)

val check_program :
  ?self_class:string ->
  ?env:(string * ty) list ->
  class_info ->
  Ast.program ->
  (unit, string list) result
(** All type errors found (deterministic order), or [Ok ()]. *)

val check_expression :
  ?self_class:string ->
  ?env:(string * ty) list ->
  class_info ->
  Ast.expr ->
  (ty, string list) result

val check_guard :
  ?self_class:string ->
  ?env:(string * ty) list ->
  class_info ->
  Ast.expr ->
  (unit, string list) result
(** Check a guard: its type must be [T_bool]. *)
