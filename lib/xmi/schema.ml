exception Decode_error of string

let decode_error fmt = Printf.ksprintf (fun m -> raise (Decode_error m)) fmt

type place =
  | Attr of string
  | Xmi_type
  | Inline
  | Each of string * place
  | Child of string
  | Tagged of bool

type _ bits =
  | Bytes : 'a bits
  | Bit : int -> bool bits
  | Index : int * int -> 'a bits
  | Present : int -> 'a option bits
  | Unless : int * 'a -> 'a bits

type 'a enum = {
  what : string;
  xml_what : string;
  all : 'a array;
  spell : 'a -> string;
}

type 'a t =
  | Str : string t
  | Ident : Uml.Ident.t t
  | Int : int t
  | Bool : bool t
  | Float : float t
  | Enum : 'a enum -> 'a t
  | Opt : 'a t -> 'a option t
  | List : 'a t -> 'a list t
  | Record : 'a record -> 'a t
  | Variant : 'a variant -> 'a t
  | Custom : ('a, 'b) custom -> 'a t
  | Rec : 'a fix -> 'a t

and ('r, 'a) field = {
  get : 'r -> 'a;
  ty : 'a t;
  place : place;
  default : 'a option;
  omit : bool;
  bits : 'a bits;
}

and ('r, 'k) fields =
  | [] : ('r, 'r) fields
  | ( :: ) : ('r, 'a) field * ('r, 'k) fields -> ('r, 'a -> 'k) fields

and 'r record =
  | R : {
      name : string;
      fields : ('r, 'k) fields;
      make : 'k;
      xmi_order : int list option;
    }
      -> 'r record

and discriminator =
  | By_xmi_type
  | By_attr of string
  | By_tag
  | Kind_pair of (string -> string -> string)

and 'a variant = {
  vname : string;
  by : discriminator;
  unknown : (string -> string, unit, string) format;
  cases : 'a any_case list;
  view : 'a -> 'a view;
}

and ('a, 'p) case = {
  spelling : string option;
  payload : 'p t;
  at : place;
  inj : 'p -> 'a;
  key : 'p Type.Id.t;
  mutable index : int;
}

and 'a any_case = Any : ('a, 'p) case -> 'a any_case
and 'a view = V : ('a, 'p) case * 'p -> 'a view

and ('a, 'b) custom = {
  wire : 'a t;
  xml : 'b t;
  to_xml : 'a -> 'b;
  of_xml : 'b -> 'a;
}

and 'a fix = { fix_key : 'a Type.Id.t; body : 'a t Lazy.t }

(* --- builders ------------------------------------------------------------ *)

let field ?default ?(omit = false) ?(bits = Bytes) place ty get =
  { get; ty; place; default; omit; bits }

let record ?xmi_order name make fields =
  Record (R { name; fields; make; xmi_order })

let pair pa a pb b =
  record "pair" (fun x y -> (x, y)) [ field pa a fst; field pb b snd ]

let unit = record "unit" () []

let enum ?xml_what what all spell =
  let xml_what = Option.value xml_what ~default:what in
  Enum { what; xml_what; all = Array.of_list all; spell }

let case ?(at = Inline) spelling payload inj =
  { spelling; payload; at; inj; key = Type.Id.make (); index = -1 }

let variant vname by unknown cases view =
  List.iteri
    (fun i (Any c) ->
      if c.index >= 0 then invalid_arg "Schema.variant: case used twice";
      c.index <- i)
    cases;
  Variant { vname; by; unknown; cases; view }

let fix f =
  let rec self = Rec { fix_key = Type.Id.make (); body = lazy (f self) } in
  self

let custom ~wire ~xml to_xml of_xml = Custom { wire; xml; to_xml; of_xml }

(* --- interpreter support ------------------------------------------------- *)

(* enum values are constant constructors, so physical equality is exact *)
let enum_index en v =
  let rec go i =
    if i >= Array.length en.all then
      invalid_arg ("Schema.enum_index: not in the " ^ en.what ^ " inventory")
    else if Array.unsafe_get en.all i == v then i
    else go (i + 1)
  in
  go 0

let same (type a b) (ka : a Type.Id.t) (kb : b Type.Id.t) : (a, b) Type.eq =
  match Type.Id.provably_equal ka kb with
  | Some eq -> eq
  | None -> invalid_arg "Schema.same: different keys"

let constant : type a. a t -> a option = function
  | Record (R { fields = []; make; _ }) -> Some make
  | Str | Ident | Int | Bool | Float | Enum _ | Opt _ | List _ | Record _
  | Variant _ | Custom _ | Rec _ ->
    None


type ('r, 's) on_field = { on : 'a. int -> ('r, 'a) field -> 's -> 'a }

(* Records decode without a partial application per field: up to 11
   fields [make] is applied to all values at once (the hot binary
   records), beyond that it is fed one value at a time. *)
let rec in_order :
    type r s k. (r, s) on_field -> int -> (r, k) fields -> s -> k -> r =
 fun fn i fs ->
  match fs with
  | [] -> fun _ k -> k
  | f :: rest ->
    let d = fn.on i f and rest = in_order fn (i + 1) rest in
    fun s k ->
      let v = d s in
      rest s (k v)

let decode_in_order (type r s k) (fn : (r, s) on_field) (fs : (r, k) fields)
    (make : k) : s -> r =
  let f i x = fn.on i x in
  match fs with
  | [] -> fun _ -> make
  | [ a ] ->
    let a = f 0 a in
    fun s -> make (a s)
  | [ a; b ] ->
    let a = f 0 a and b = f 1 b in
    fun s -> let a = a s in make a (b s)
  | [ a; b; c ] ->
    let a = f 0 a and b = f 1 b and c = f 2 c in
    fun s -> let a = a s in let b = b s in make a b (c s)
  | [ a; b; c; d ] ->
    let a = f 0 a and b = f 1 b and c = f 2 c and d = f 3 d in
    fun s -> let a = a s in let b = b s in let c = c s in make a b c (d s)
  | [ a; b; c; d; e ] ->
    let a = f 0 a and b = f 1 b and c = f 2 c and d = f 3 d and e = f 4 e in
    fun s -> let a = a s in let b = b s in let c = c s in let d = d s in
      make a b c d (e s)
  | [ a; b; c; d; e; g ] ->
    let a = f 0 a and b = f 1 b and c = f 2 c and d = f 3 d and e = f 4 e
    and g = f 5 g in
    fun s -> let a = a s in let b = b s in let c = c s in let d = d s in
      let e = e s in make a b c d e (g s)
  | [ a; b; c; d; e; g; h ] ->
    let a = f 0 a and b = f 1 b and c = f 2 c and d = f 3 d and e = f 4 e
    and g = f 5 g and h = f 6 h in
    fun s -> let a = a s in let b = b s in let c = c s in let d = d s in
      let e = e s in let g = g s in make a b c d e g (h s)
  | [ a; b; c; d; e; g; h; i ] ->
    let a = f 0 a and b = f 1 b and c = f 2 c and d = f 3 d and e = f 4 e
    and g = f 5 g and h = f 6 h and i = f 7 i in
    fun s -> let a = a s in let b = b s in let c = c s in let d = d s in
      let e = e s in let g = g s in let h = h s in make a b c d e g h (i s)
  | [ a; b; c; d; e; g; h; i; j ] ->
    let a = f 0 a and b = f 1 b and c = f 2 c and d = f 3 d and e = f 4 e
    and g = f 5 g and h = f 6 h and i = f 7 i and j = f 8 j in
    fun s -> let a = a s in let b = b s in let c = c s in let d = d s in
      let e = e s in let g = g s in let h = h s in let i = i s in
      make a b c d e g h i (j s)
  | [ a; b; c; d; e; g; h; i; j; k ] ->
    let a = f 0 a and b = f 1 b and c = f 2 c and d = f 3 d and e = f 4 e
    and g = f 5 g and h = f 6 h and i = f 7 i and j = f 8 j and k = f 9 k in
    fun s -> let a = a s in let b = b s in let c = c s in let d = d s in
      let e = e s in let g = g s in let h = h s in let i = i s in
      let j = j s in make a b c d e g h i j (k s)
  | [ a; b; c; d; e; g; h; i; j; k; l ] ->
    let a = f 0 a and b = f 1 b and c = f 2 c and d = f 3 d and e = f 4 e
    and g = f 5 g and h = f 6 h and i = f 7 i and j = f 8 j and k = f 9 k
    and l = f 10 l in
    fun s -> let a = a s in let b = b s in let c = c s in let d = d s in
      let e = e s in let g = g s in let h = h s in let i = i s in
      let j = j s in let k = k s in make a b c d e g h i j k (l s)
  | _ :: _ ->
    let go = in_order fn 0 fs in
    fun s -> go s make

type 'r any_field = F : int * ('r, 'a) field -> 'r any_field

let field_list (type r) fs =
  let rec go : type k. int -> (r, k) fields -> r any_field list =
   fun i -> function
    | [] -> ([] : r any_field list)
    | f :: rest -> (F (i, f) :: go (i + 1) rest : r any_field list)
  in
  go 0 fs
