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
  | Attr of expr * string
  | Unop of unop * expr
  | Binop of binop * expr * expr
  | Call of expr option * string * expr list
  | New of string
[@@deriving eq, ord, show]

type lvalue =
  | L_var of string
  | L_attr of expr * string
[@@deriving eq, ord, show]

type stmt =
  | Skip
  | Var_decl of string * expr
  | Assign of lvalue * expr
  | Expr_stmt of expr
  | If of expr * stmt list * stmt list
  | While of expr * stmt list
  | For of string * expr * expr * stmt list
  | Return of expr option
  | Send of string * expr list * expr option
  | Delete of expr
[@@deriving eq, ord, show]

type program = stmt list [@@deriving eq, ord, show]

let binop_name = function
  | Add -> "+"
  | Sub -> "-"
  | Mul -> "*"
  | Div -> "/"
  | Mod -> "mod"
  | Eq -> "="
  | Ne -> "<>"
  | Lt -> "<"
  | Le -> "<="
  | Gt -> ">"
  | Ge -> ">="
  | And -> "and"
  | Or -> "or"
  | Concat -> "&"
