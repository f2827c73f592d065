type bound =
  | Bounded of int
  | Unbounded
[@@deriving eq, ord, show]

type t = {
  lower : int;
  upper : bound;
}
[@@deriving eq, ord, show]

let is_valid m =
  m.lower >= 0
  &&
  match m.upper with
  | Bounded n -> n >= m.lower
  | Unbounded -> true

let make lower upper =
  let m = { lower; upper } in
  if not (is_valid m) then invalid_arg "Mult.make: lower/upper out of order";
  m

let one = { lower = 1; upper = Bounded 1 }
let optional = { lower = 0; upper = Bounded 1 }
let many = { lower = 0; upper = Unbounded }

let admits m n =
  n >= m.lower
  &&
  match m.upper with
  | Bounded u -> n <= u
  | Unbounded -> true

let to_string m =
  match m.upper with
  | Bounded u when u = m.lower -> string_of_int m.lower
  | Bounded u -> Printf.sprintf "%d..%d" m.lower u
  | Unbounded -> Printf.sprintf "%d..*" m.lower
