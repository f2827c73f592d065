(* The XML interpreter: compiles each {!Schema} node once into an encoder
   that adds attributes and children to the element under construction,
   and a decoder that reads the value back out of an element of a
   scanned document.  Decoders compare tags, names and discriminators
   in place and slice a string out of the input only to keep it or to
   report it. *)

open Schema
module Ix = Sxml.Index

(* [Schema.fields] borrows the list syntax; here it means lists *)
type 'a list = 'a Stdlib.List.t = [] | ( :: ) of 'a * 'a list

(* An element under construction; lists are kept reversed.  [xmi:type]
   is held apart because it is always written first. *)
type out = {
  mutable xtype : string option;
  mutable attrs : Sxml.Doc.attribute list;
  mutable children : Sxml.Doc.t list;
}

type 'a codec = { enc : out -> 'a -> unit; dec : Ix.t -> Ix.node -> 'a }
type 'a case_enc = E : ('a, 'p) case * (out -> 'p -> unit) -> 'a case_enc
type memo = M : 'a Type.Id.t * 'a codec ref -> memo

let memo : (int, memo) Hashtbl.t = Hashtbl.create 16
let add_attr o k v = o.attrs <- (k, v) :: o.attrs
let add_child o c = o.children <- c :: o.children

let element tag enc v =
  let o = { xtype = None; attrs = []; children = [] } in
  enc o v;
  let attrs = List.rev o.attrs in
  let attrs =
    match o.xtype with
    | None -> attrs
    | Some t -> ("xmi:type", "uml:" ^ t) :: attrs
  in
  Sxml.Doc.element ~attrs tag (List.rev o.children)

let each tag enc =
  let add o x = add_child o (element tag enc x) in
  fun o l -> List.iter (add o) l

(* The attribute [name] of [e], which must be there. *)
let required ix e name =
  match Ix.find_attr ix e name with
  | -1 ->
    decode_error "element <%s> missing attribute %s" (Ix.tag ix e) name
  | a -> a

let get_attr ix e name = Ix.value ix (required ix e name)

(* The [xmi:type] attribute of [e], and where its text starts: past a
   ["uml:"] prefix when something follows it. *)
let xmi_type ix e =
  match Ix.find_attr ix e "xmi:type" with
  | -1 -> decode_error "<%s> missing xmi:type" (Ix.tag ix e)
  | a -> a

let type_from ix a =
  if Ix.value_length ix a > 4 && Ix.value_has_prefix ix a "uml:" then 4 else 0

(* Decoders keyed by text, as a table that [Hashtbl.replace] would
   build from the pairs: the last decoder of a repeated key wins. *)
let table pairs =
  let keys = ref [] and decs = Hashtbl.create 16 in
  List.iter
    (fun (k, d) ->
      if not (Hashtbl.mem decs k) then keys := k :: !keys;
      Hashtbl.replace decs k d)
    pairs;
  let keys = Array.of_list (List.rev !keys) in
  (keys, Array.map (Hashtbl.find decs) keys)

(* The enum value spelled by attribute [a] from byte [from] on. *)
let enum_at en =
  let spells = Array.map en.spell en.all in
  fun ix a ~from ->
    match Ix.match_value ix a ~from spells with
    | -1 -> decode_error "unknown %s %s" en.xml_what (Ix.value_from ix a ~from)
    | i -> Array.unsafe_get en.all i

(* [bool_of_string]'s spellings, by position *)
let booleans = [| "true"; "false" |]

let not_a_value () = invalid_arg "Xmi.Codec: not an attribute value"

(* A scalar's attribute text, and its parser for attribute [name],
   which reads the attribute at hand: [required] attributes report a bad
   integer without echoing it. *)
let rec text :
    type a.
    a t -> name:string -> required:bool ->
    (a -> string) * (Ix.t -> Ix.attr -> a) =
 fun ty ~name ~required ->
  match ty with
  | Str -> (Fun.id, Ix.value)
  (* identifiers are strings *)
  | Ident -> (Fun.id, Ix.value)
  | Int ->
    ( string_of_int,
      fun ix a ->
        let s = Ix.value ix a in
        match int_of_string_opt s with
        | Some i -> i
        | None when required -> decode_error "bad integer attribute %s" name
        | None -> decode_error "bad integer attribute %s=%s" name s )
  | Bool ->
    ( string_of_bool,
      fun ix a ->
        match Ix.match_value ix a ~from:0 booleans with
        | 0 -> true
        | 1 -> false
        | _ -> decode_error "bad boolean attribute %s=%s" name (Ix.value ix a) )
  | Float ->
    ( Meta.float_text,
      fun ix a ->
        let s = Ix.value ix a in
        match float_of_string_opt s with
        | Some r -> r
        | None -> decode_error "bad real attribute %s=%s" name s )
  | Enum en ->
    let read = enum_at en in
    (en.spell, fun ix a -> read ix a ~from:0)
  | Custom c ->
    let print, parse = text c.xml ~name ~required in
    ((fun v -> print (c.to_xml v)), fun ix a -> c.of_xml (parse ix a))
  | Opt _ | List _ | Record _ | Variant _ | Rec _ -> not_a_value ()

(* every [xmi:type] spelling a value of this schema can carry *)
let rec xmi_types : type a. a t -> string list = function
  | Enum en -> Array.to_list (Array.map en.spell en.all)
  | Variant v ->
    List.concat_map
      (fun (Any c) ->
        match c.spelling with
        | Some s -> [ s ]
        | None -> xmi_types c.payload)
      v.cases
  | Record (R r) ->
    List.concat_map
      (fun (F (_, f)) ->
        match f.place with
        | Xmi_type -> xmi_types f.ty
        | Attr _ | Inline | Each _ | Child _ | Tagged _ -> [])
      (field_list r.fields)
  | Str | Ident | Int | Bool | Float | Opt _ | List _ | Custom _ | Rec _ -> []

(* A variant value's case, and the compiled encoder of its payload. *)
let by_case (v : _ variant) encs =
  let encs = Array.of_list encs in
  fun o x ->
    let (V (c, p)) = v.view x in
    let (E (c', f)) = Array.unsafe_get encs c.index in
    let Type.Equal = same c.key c'.key in
    f o p

(* Case decoders keyed by discriminator text: the value of an
   attribute (from the byte [from] gives on) or the tag. *)
let dispatch cases unknown by =
  let keys, decs = table cases in
  let by_value attr from ix e =
    let a = attr ix e in
    let from = from ix a in
    match Ix.match_value ix a ~from keys with
    | -1 ->
      raise (Decode_error (Printf.sprintf unknown (Ix.value_from ix a ~from)))
    | i -> (Array.unsafe_get decs i) ix e
  in
  match by with
  | By_xmi_type -> by_value xmi_type type_from
  | By_attr name -> by_value (fun ix e -> required ix e name) (fun _ _ -> 0)
  | By_tag | Kind_pair _ -> (
    fun ix e ->
      match Ix.match_tag ix e keys with
      | -1 -> raise (Decode_error (Printf.sprintf unknown (Ix.tag ix e)))
      | i -> (Array.unsafe_get decs i) ix e)

(* Items decoded from [c] and its later siblings that [next] reaches, in
   document order. *)
let rec items dec next ix c =
  if c < 0 then []
  else
    let x = dec ix c in
    x :: items dec next ix (next ix c)

(* The same, leaving out the items that decode to [None]. *)
let rec some_items dec next ix c =
  if c < 0 then []
  else
    match dec ix c with
    | Some x -> x :: some_items dec next ix (next ix c)
    | None -> some_items dec next ix (next ix c)

(* A field's decoder failed: its position, and the defect. *)
exception Failed_field of int * exn

(* What a value writes into, and reads from, its own element. *)
let rec content : type a. a t -> a codec = function
  | Record (R r) ->
    (* each field is compiled once, when the decoder asks for it *)
    let n = List.length (field_list r.fields) in
    let encs = Array.make n (fun _ _ -> ())
    and checks = Array.make n (fun _ _ -> ()) in
    let on i f =
      let { enc; dec } = field f and get = f.get in
      encs.(i) <- (fun o r -> enc o (get r));
      checks.(i) <- (fun ix e -> ignore (dec ix e));
      fun (ix, e) ->
        try dec ix e
        with Decode_error _ as exn -> raise (Failed_field (i, exn))
    in
    let decode = decode_in_order { on } r.fields r.make in
    let order =
      match r.xmi_order with
      | Some order -> order
      | None -> List.init n Fun.id
    in
    let encs = List.map (Array.get encs) order in
    (* Of several defects in one element, report the one met first when
       the fields are read last to first: the pinned XMI diagnostics
       follow that order.  The fields after the one that raised have not
       run yet; each is checked once, last first, so no subtree is
       decoded twice. *)
    { enc = (fun o v -> List.iter (fun enc -> enc o v) encs);
      dec =
        (fun ix e ->
          try decode (ix, e)
          with Failed_field (failed, exn) ->
            for i = n - 1 downto failed + 1 do
              checks.(i) ix e
            done;
            raise exn) }
  | Variant v -> variant v
  | Custom c ->
    let k = content c.xml in
    { enc = (fun o v -> k.enc o (c.to_xml v));
      dec = (fun ix e -> c.of_xml (k.dec ix e)) }
  | Rec r -> (
    let uid = Type.Id.uid r.fix_key in
    match Hashtbl.find_opt memo uid with
    | Some (M (k, f)) ->
      let Type.Equal = same k r.fix_key in
      { enc = (fun o v -> !f.enc o v); dec = (fun ix e -> !f.dec ix e) }
    | None ->
      let f = ref { enc = (fun _ _ -> ()); dec = (fun _ _ -> assert false) } in
      Hashtbl.add memo uid (M (r.fix_key, f));
      f := content (Lazy.force r.body);
      { enc = (fun o v -> !f.enc o v); dec = (fun ix e -> !f.dec ix e) })
  | Str | Ident | Int | Bool | Float | Enum _ | Opt _ | List _ ->
    invalid_arg "Xmi.Codec: a scalar or list needs a placement"

and field : type r a. (r, a) field -> a codec =
 fun f -> place f.place f.ty ~default:f.default ~omit:f.omit

and variant : type a. a variant -> a codec =
 fun v ->
  let cases =
    List.map
      (fun (Any c) ->
        let payload = place c.at c.payload ~default:None ~omit:false in
        let dec =
          match constant c.payload with
          | Some u ->
            let x = c.inj u in
            fun _ _ -> x
          | None -> fun ix e -> c.inj (payload.dec ix e)
        in
        let spelling = Option.value c.spelling ~default:"" in
        let enc =
          match (v.by, c.spelling) with
          | By_xmi_type, None -> payload.enc
          | By_xmi_type, Some s ->
            fun o p ->
              o.xtype <- Some s;
              payload.enc o p
          | By_attr a, _ ->
            fun o p ->
              add_attr o a spelling;
              payload.enc o p
          (* one child element per value, tagged by its case *)
          | By_tag, _ -> fun o p -> add_child o (element spelling payload.enc p)
          | Kind_pair _, _ -> invalid_arg "Xmi.Codec: a kind pair is an Attr"
        in
        let spellings =
          match c.spelling with
          | Some s -> [ s ]
          | None -> xmi_types c.payload
        in
        (List.map (fun s -> (s, dec)) spellings, E (c, enc)))
      v.cases
  in
  { enc = by_case v (List.map snd cases);
    dec = dispatch (List.concat_map fst cases) v.unknown v.by }

(* [fooKind] + [foo]: the encoder, then the decoder of an optional value
   ([None] when [fooKind] is absent and no case is written as absence)
   and of a required one *)
and kind_pair : type a.
    string -> (string -> string -> string) -> a variant ->
    (out -> a -> unit)
    * (Ix.t -> Ix.node -> a option)
    * (Ix.t -> Ix.node -> a) =
 fun prefix missing v ->
  let kind = prefix ^ "Kind" in
  let absent = ref None and cases = ref [] in
  let enc (Any c) =
    match (c.spelling, constant c.payload) with
    | None, _ ->
      let x = Option.map c.inj (constant c.payload) in
      absent := Option.map (fun x _ _ -> x) x;
      E (c, fun _ _ -> ())
    | Some s, Some u ->
      let x = c.inj u in
      cases := (s, fun _ _ _ -> x) :: !cases;
      E (c, fun o _ -> add_attr o kind s)
    | Some s, None ->
      let print, parse = text c.payload ~name:prefix ~required:true in
      let dec ix e k =
        let a =
          match Ix.find_attr ix e prefix with
          | -1 -> raise (Decode_error (missing prefix k))
          | a -> a
        in
        match parse ix a with
        | x -> c.inj x
        | exception Decode_error _ ->
          decode_error "bad %s literal %s" k (Ix.value ix a)
      in
      cases := (s, dec) :: !cases;
      E
        ( c,
          fun o p ->
            add_attr o kind s;
            add_attr o prefix (print p) )
  in
  let enc = by_case v (List.map enc v.cases) and absent = !absent in
  let keys, decs = table (List.rev !cases) in
  (* the case the [fooKind] attribute names *)
  let find ix e a =
    match Ix.match_value ix a ~from:0 keys with
    | -1 -> raise (Decode_error (Printf.sprintf v.unknown (Ix.value ix a)))
    | i -> (Array.unsafe_get decs i) ix e (Array.unsafe_get keys i)
  in
  let opt ix e =
    match Ix.find_attr ix e kind with
    | -1 -> (
      match absent with
      | Some d -> Some (d ix e)
      | None -> None)
    | a -> Some (find ix e a)
  and req ix e =
    match (Ix.find_attr ix e kind, absent) with
    | -1, Some d -> d ix e
    | -1, None -> decode_error "%s without %s" (Ix.tag ix e) prefix
    | a, _ -> find ix e a
  in
  (enc, opt, req)

and place : type a. place -> a t -> default:a option -> omit:bool -> a codec =
 fun at ty ~default ~omit ->
  match (at, ty) with
  | _, Custom c ->
    let k = place at c.xml ~default:None ~omit:false in
    { enc = (fun o v -> k.enc o (c.to_xml v));
      dec = (fun ix e -> c.of_xml (k.dec ix e)) }
  | Attr n, Variant ({ by = Kind_pair missing; _ } as v) ->
    let enc, _, dec = kind_pair n missing v in
    { enc; dec }
  | Attr n, Opt (Variant ({ by = Kind_pair missing; _ } as v)) ->
    let enc, dec, _ = kind_pair n missing v in
    { enc = (fun o -> Option.iter (enc o)); dec }
  | Attr n, Opt s ->
    let print, parse = text s ~name:n ~required:false in
    { enc = (fun o -> Option.iter (fun x -> add_attr o n (print x)));
      dec =
        (fun ix e ->
          match Ix.find_attr ix e n with
          | -1 -> None
          | a -> Some (parse ix a)) }
  | Attr n, _ -> (
    let print, parse = text ty ~name:n ~required:(Option.is_none default) in
    match default with
    | Some d ->
      { enc =
          (fun o v -> if not (omit && v = d) then add_attr o n (print v));
        dec =
          (fun ix e ->
            match Ix.find_attr ix e n with
            | -1 -> d
            | a -> parse ix a) }
    | None ->
      { enc = (fun o v -> add_attr o n (print v));
        dec = (fun ix e -> parse ix (required ix e n)) })
  | Xmi_type, Enum en ->
    let read = enum_at en in
    { enc = (fun o v -> o.xtype <- Some (en.spell v));
      dec =
        (fun ix e ->
          let a = xmi_type ix e in
          read ix a ~from:(type_from ix a)) }
  | (Xmi_type | Inline), _ -> content ty
  | Each (tag, Attr n), List (Variant ({ by = Kind_pair missing; _ } as v)) ->
    (* a list item that carries no value is skipped *)
    let enc, dec, _ = kind_pair n missing v in
    let next ix c = Ix.next_tagged ix c tag in
    { enc = each tag enc;
      dec = (fun ix e -> some_items dec next ix (Ix.find_child ix e tag)) }
  | Each (tag, inner), List a ->
    let item = place inner a ~default:None ~omit:false in
    let next ix c = Ix.next_tagged ix c tag in
    { enc = each tag item.enc;
      dec = (fun ix e -> items item.dec next ix (Ix.find_child ix e tag)) }
  | Child tag, _ ->
    let k = content ty in
    { enc = (fun o v -> add_child o (element tag k.enc v));
      dec =
        (fun ix e ->
          match Ix.find_child ix e tag with
          | -1 -> decode_error "%s without %s" (Ix.tag ix e) tag
          | c -> k.dec ix c) }
  | Tagged strict, List a ->
    let item = content a in
    let tags = if strict then [||] else Array.of_list (tags_of a) in
    (* the first item among child element [c] and its later siblings *)
    let rec from ix c =
      if c < 0 || strict || Ix.match_tag ix c tags >= 0 then c
      else from ix (Ix.next_element ix c)
    in
    let next ix c = from ix (Ix.next_element ix c) in
    { enc = (fun o l -> List.iter (item.enc o) l);
      dec = (fun ix e -> items item.dec next ix (from ix (Ix.first_element ix e)))
    }
  | (Each _ | Tagged _), _ -> invalid_arg "Xmi.Codec: not a list"

and tags_of : type a. a t -> string list = function
  | Variant v -> List.filter_map (fun (Any c) -> c.spelling) v.cases
  | Rec r -> tags_of (Lazy.force r.body)
  | Str | Ident | Int | Bool | Float | Enum _ | Opt _ | List _ | Record _
  | Custom _ ->
    invalid_arg "Xmi.Codec: tagged children need a variant"

let element_codec = content Meta.element
let application_codec = content Meta.application
let diagram_codec = content Meta.diagram
