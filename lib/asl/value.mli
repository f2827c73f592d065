(** Runtime values of the ASL interpreter. *)

type obj_ref = int [@@deriving eq, ord, show]

type t =
  | V_int of int
  | V_real of float
  | V_bool of bool
  | V_string of string
  | V_null
  | V_obj of obj_ref
[@@deriving eq, ord, show]

val to_string : t -> string

val type_name : t -> string
