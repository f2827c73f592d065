(* The binary interpreter: compiles each [Xmi.Schema] node once into an
   encoder and a decoder over the {!Wire} primitives. *)

open Xmi.Schema
module Enc = Wire.Enc
module Dec = Wire.Dec

(* [Schema.fields] borrows the list syntax; here it means lists *)
type 'a list = 'a Stdlib.List.t = [] | ( :: ) of 'a * 'a list

type 'a codec = { enc : Enc.t -> 'a -> unit; dec : Dec.t -> 'a }
type 'a case_codec = C : ('a, 'p) case * 'p codec -> 'a case_codec
type memo = M : 'a Type.Id.t * 'a codec ref -> memo

let memo : (int, memo) Hashtbl.t = Hashtbl.create 16
let mask width = (1 lsl width) - 1
let bit b flags = flags land (1 lsl b) <> 0
let not_indexed () = invalid_arg "Snap.Codec: Index needs an enum or a variant"
let not_optional () = invalid_arg "Snap.Codec: Present needs an option"

let is_flag (F (_, f)) =
  match f.bits with
  | Bytes -> false
  | Bit _ | Index _ | Present _ | Unless _ -> true

(* The positions of the first and the last flag field; [-1] for none. *)
let flag_span fields =
  List.fold_left
    (fun (first, last) (F (i, _) as f) ->
      if not (is_flag f) then (first, last)
      else ((if first < 0 then i else first), i))
    (-1, -1) fields

(* Whether decoding a value of this schema reads a flags byte, at any
   depth. *)
let flagged ty =
  let seen = Hashtbl.create 8 in
  let rec go : type a. a t -> bool = function
    | Str | Ident | Int | Bool | Float | Enum _ -> false
    | Opt a -> go a
    | List a -> go a
    | Custom c -> go c.wire
    | Variant v -> List.exists (fun (Any c) -> go c.payload) v.cases
    | Record (R r) ->
      List.exists
        (fun (F (_, f) as x) -> is_flag x || go f.ty)
        (field_list r.fields)
    | Rec r ->
      let uid = Type.Id.uid r.fix_key in
      (not (Hashtbl.mem seen uid))
      && (Hashtbl.add seen uid ();
          go (Lazy.force r.body))
  in
  go ty

(* the name and the size of an enum's or a variant's inventory *)
let inventory : type a. a t -> string * int = function
  | Enum en -> (en.what, Array.length en.all)
  | Variant v -> (v.vname, List.length v.cases)
  | Str | Ident | Int | Bool | Float | Opt _ | List _ | Record _ | Custom _
  | Rec _ ->
    not_indexed ()

(* Read and check a record's flags byte: no bit outside the declared
   ones, no index past its inventory. *)
let flags_reader name fields =
  let claim (used, checks) (F (_, f)) =
    match f.bits with
    | Bytes -> (used, checks)
    | Bit b | Present b | Unless (b, _) -> (used lor (1 lsl b), checks)
    | Index (s, w) ->
      let what, count = inventory f.ty in
      (* an inventory that fills its bits needs no check *)
      let checks = if count > mask w then checks else (s, w, what, count) :: checks in
      (used lor (mask w lsl s), checks)
  in
  let used, checks = List.fold_left claim (0, []) fields in
  let unused = lnot used land 0xff and checks = List.rev checks in
  let rec check flags = function
    | [] -> ()
    | (s, w, what, count) :: rest ->
      let t = (flags lsr s) land mask w in
      if t >= count then Wire.decode_error "unknown %s tag %d" what t;
      check flags rest
  in
  fun src ->
    let flags = Dec.u8 src in
    if flags land unused <> 0 then
      Wire.decode_error "unknown %s flag byte 0x%02x" name flags;
    check flags checks;
    Dec.set_flags src flags

(* A variant value's payload encoder, after its case position when
   [tag]. *)
let payload_enc (v : _ variant) cases ~tag =
  let cases = Array.copy cases in
  fun e x ->
    let (V (c, p)) = v.view x in
    let (C (c', k)) = Array.unsafe_get cases c.index in
    let Type.Equal = same c.key c'.key in
    if tag then Enc.u8 e c.index;
    k.enc e p

(* the decoder of each case, by position *)
let case_decs cases =
  Array.map
    (fun (C (c, k)) ->
      match constant c.payload with
      | Some u ->
        let x = c.inj u in
        fun _ -> x
      | None ->
        let inj = c.inj and dec = k.dec in
        fun d -> inj (dec d))
    cases

let rec codec : type a. a t -> a codec = function
  | Str -> { enc = Enc.str; dec = Dec.str }
  (* identifiers are strings *)
  | Ident -> { enc = Enc.str; dec = Dec.str }
  | Int -> { enc = Enc.int; dec = Dec.int }
  | Bool -> { enc = Enc.bool; dec = Dec.bool }
  | Float -> { enc = Enc.float; dec = Dec.float }
  | Opt a ->
    let { enc; dec } = codec a in
    { enc = (fun e v -> Enc.opt e enc v); dec = (fun d -> Dec.opt d dec) }
  | List a ->
    let { enc; dec } = codec a in
    { enc = (fun e l -> Enc.list e enc l); dec = (fun d -> Dec.list d dec) }
  | Enum en ->
    { enc = (fun e v -> Enc.u8 e (enum_index en v));
      dec = tagged en.what (Array.map (fun v _ -> v) en.all) }
  | Variant v ->
    let cases = cases v in
    { enc = payload_enc v cases ~tag:true;
      dec = tagged v.vname (case_decs cases) }
  | Custom c -> codec c.wire
  | Rec r -> (
    let uid = Type.Id.uid r.fix_key in
    match Hashtbl.find_opt memo uid with
    | Some (M (k, f)) ->
      let Type.Equal = same k r.fix_key in
      { enc = (fun e v -> !f.enc e v); dec = (fun d -> !f.dec d) }
    | None ->
      let f = ref { enc = (fun _ _ -> ()); dec = (fun _ -> assert false) } in
      Hashtbl.add memo uid (M (r.fix_key, f));
      f := codec (Lazy.force r.body);
      { enc = (fun e v -> !f.enc e v); dec = (fun d -> !f.dec d) })
  | Record (R r) ->
    let fields = field_list r.fields in
    let n = List.length fields and first, last = flag_span fields in
    (* the flags byte is read once, at the first flag field, and read
       back by the later ones: nothing decoded in between may replace it *)
    List.iter
      (fun (F (i, f)) ->
        if first <= i && i < last && flagged f.ty then
          invalid_arg
            ("Snap.Codec: a flagged record between the flag fields of "
           ^ r.name))
      fields;
    let read_flags = flags_reader r.name fields in
    (* each field is compiled once, when the decoder asks for it *)
    let encs = Array.make n (fun _ _ -> ()) and bits = Array.make n (fun _ -> 0) in
    let on i f =
      let enc, dec, flag = field f in
      encs.(i) <- enc;
      bits.(i) <- flag;
      if i <> first then dec
      else fun src ->
        read_flags src;
        dec src
    in
    let dec = decode_in_order { on } r.fields r.make in
    let bits = Array.to_list bits in
    let flags v = List.fold_left (fun acc b -> acc lor b v) 0 bits in
    let encs =
      List.mapi
        (fun i enc ->
          if i <> first then enc
          else fun e v ->
            Enc.u8 e (flags v);
            enc e v)
        (Array.to_list encs)
    in
    { enc = (fun e v -> List.iter (fun enc -> enc e v) encs); dec }

and tagged : type a. string -> (Dec.t -> a) array -> Dec.t -> a =
 fun what cases ->
  let n = Array.length cases in
  fun d ->
    let t = Dec.u8 d in
    if t >= n then Wire.decode_error "unknown %s tag %d" what t;
    (Array.unsafe_get cases t) d

and cases : type a. a variant -> a case_codec array =
 fun v ->
  Array.of_list (List.map (fun (Any c) -> C (c, codec c.payload)) v.cases)

(* A field's encoder of what it writes outside the flags byte, its
   decoder (from the flags byte or in line), and its share of the
   flags byte. *)
and field : type r a. (r, a) field -> (Enc.t -> r -> unit) * (Dec.t -> a) * (r -> int) =
 fun f ->
  let get = f.get in
  let none _ = 0 and skip _ _ = () in
  match (f.bits, f.ty) with
  | Bytes, ty ->
    let { enc; dec } = codec ty in
    ((fun e r -> enc e (get r)), dec, none)
  | Bit b, _ ->
    (skip, (fun src -> bit b (Dec.flags src)), fun r -> if get r then 1 lsl b else 0)
  | Index (s, w), Enum en ->
    ( skip,
      (fun src -> Array.unsafe_get en.all ((Dec.flags src lsr s) land mask w)),
      fun r -> enum_index en (get r) lsl s )
  | Index (s, w), Variant v ->
    let cases = cases v in
    let enc = payload_enc v cases ~tag:false and decs = case_decs cases in
    ( (fun e r -> enc e (get r)),
      (fun src -> (Array.unsafe_get decs ((Dec.flags src lsr s) land mask w)) src),
      fun r ->
        let (V (c, _)) = v.view (get r) in
        c.index lsl s )
  | Index _, (Str | Ident | Int | Bool | Float | Opt _ | List _ | Record _) ->
    not_indexed ()
  | Index _, (Custom _ | Rec _) -> not_indexed ()
  | Present b, Opt a ->
    let { enc; dec } = codec a in
    ( (fun e r -> Option.iter (enc e) (get r)),
      (fun src -> if bit b (Dec.flags src) then Some (dec src) else None),
      fun r -> if Option.is_some (get r) then 1 lsl b else 0 )
  | Present _, (Enum _ | Record _ | Variant _ | Custom _ | Rec _) ->
    not_optional ()
  | Unless (b, d), ty ->
    let { enc; dec } = codec ty in
    ( (fun e r ->
        let v = get r in
        if v <> d then enc e v),
      (fun src -> if bit b (Dec.flags src) then dec src else d),
      fun r -> if get r <> d then 1 lsl b else 0 )

let element = codec Xmi.Meta.element
let application = codec Xmi.Meta.application
let diagram = codec Xmi.Meta.diagram

let enc_model e m =
  Enc.str e (Uml.Model.name m);
  Enc.list e element.enc (Uml.Model.elements m);
  Enc.list e application.enc (Uml.Model.applications m);
  Enc.list e diagram.enc (Uml.Model.diagrams m)

let dec_model d =
  let name = Dec.str d in
  let elements = Dec.list d element.dec in
  (* element count is known before the first insert: pre-size the index
     so bulk load never pays a rehash chain *)
  let m = Uml.Model.create ~capacity:(2 * List.length elements) name in
  List.iter (Uml.Model.add m) elements;
  List.iter (Uml.Model.add_application m) (Dec.list d application.dec);
  List.iter (Uml.Model.add_diagram m) (Dec.list d diagram.dec);
  m
