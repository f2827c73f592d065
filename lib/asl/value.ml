type obj_ref = int [@@deriving eq, ord, show]

type t =
  | V_int of int
  | V_real of float
  | V_bool of bool
  | V_string of string
  | V_null
  | V_obj of obj_ref
[@@deriving eq, ord, show]

let to_string = function
  | V_int i -> string_of_int i
  | V_real r -> string_of_float r
  | V_bool b -> string_of_bool b
  | V_string s -> s
  | V_null -> "null"
  | V_obj r -> Printf.sprintf "<obj %d>" r

let type_name = function
  | V_int _ -> "Integer"
  | V_real _ -> "Real"
  | V_bool _ -> "Boolean"
  | V_string _ -> "String"
  | V_null -> "Null"
  | V_obj _ -> "Object"
