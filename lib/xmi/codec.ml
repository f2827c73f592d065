(* The XML interpreter: compiles each {!Schema} node once into an encoder
   that adds attributes and children to the element under construction,
   and a decoder that reads the value back out of an element. *)

open Schema

(* [Schema.fields] borrows the list syntax; here it means lists *)
type 'a list = 'a Stdlib.List.t = [] | ( :: ) of 'a * 'a list

(* An element under construction; lists are kept reversed.  [xmi:type]
   is held apart because it is always written first. *)
type out = {
  mutable xtype : string option;
  mutable attrs : Sxml.Doc.attribute list;
  mutable children : Sxml.Doc.t list;
}

type 'a codec = { enc : out -> 'a -> unit; dec : Sxml.Doc.element -> 'a }
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

let opt_string n =
  { enc = (fun o -> Option.iter (add_attr o n));
    dec = (fun e -> Sxml.Doc.attr e n) }

let get_attr e name =
  match Sxml.Doc.attr e name with
  | Some v -> v
  | None -> decode_error "element <%s> missing attribute %s" e.Sxml.Doc.tag name

let string n = { enc = (fun o -> add_attr o n); dec = (fun e -> get_attr e n) }

let xmi_type e =
  match Sxml.Doc.attr e "xmi:type" with
  | Some t when String.length t > 4 && String.sub t 0 4 = "uml:" ->
    String.sub t 4 (String.length t - 4)
  | Some t -> t
  | None -> decode_error "<%s> missing xmi:type" e.Sxml.Doc.tag

let enum_of_text en s =
  let rec go i =
    if i >= Array.length en.all then decode_error "unknown %s %s" en.xml_what s
    else
      let v = Array.unsafe_get en.all i in
      if String.equal (en.spell v) s then v else go (i + 1)
  in
  go 0

let not_a_value () = invalid_arg "Xmi.Codec: not an attribute value"

(* A scalar's attribute text, and its parser for attribute [name]:
   [required] attributes report a bad integer without echoing it. *)
let rec text :
    type a. a t -> name:string -> required:bool -> (a -> string) * (string -> a)
    =
 fun ty ~name ~required ->
  match ty with
  | Str -> (Fun.id, Fun.id)
  (* identifiers are strings *)
  | Ident -> (Fun.id, Fun.id)
  | Int ->
    ( string_of_int,
      fun s ->
        match int_of_string_opt s with
        | Some i -> i
        | None when required -> decode_error "bad integer attribute %s" name
        | None -> decode_error "bad integer attribute %s=%s" name s )
  | Bool ->
    ( string_of_bool,
      fun s ->
        match bool_of_string_opt s with
        | Some b -> b
        | None -> decode_error "bad boolean attribute %s=%s" name s )
  | Float ->
    ( Meta.float_text,
      fun s ->
        match float_of_string_opt s with
        | Some r -> r
        | None -> decode_error "bad real attribute %s=%s" name s )
  | Enum en -> (en.spell, enum_of_text en)
  | Custom c ->
    let print, parse = text c.xml ~name ~required in
    ((fun v -> print (c.to_xml v)), fun s -> c.of_xml (parse s))
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

(* Case decoders keyed by discriminator text. *)
let dispatch cases unknown key =
  let table = Hashtbl.create 16 in
  List.iter (fun (k, d) -> Hashtbl.replace table k d) cases;
  fun e ->
    let k = key e in
    match Hashtbl.find table k with
    | d -> d e
    | exception Not_found -> raise (Decode_error (Printf.sprintf unknown k))

(* What a value writes into, and reads from, its own element. *)
let rec content : type a. a t -> a codec = function
  | Record (R r) ->
    (* each field is compiled once, when the decoder asks for it *)
    let n = List.length (field_list r.fields) in
    let encs = Array.make n (fun _ _ -> ()) and checks = Array.make n ignore in
    (* the position of the field whose decoder raised last *)
    let failed = ref 0 in
    let on i f =
      let { enc; dec } = field f and get = f.get in
      encs.(i) <- (fun o r -> enc o (get r));
      checks.(i) <- (fun e -> ignore (dec e));
      fun e ->
        try dec e
        with Decode_error _ as exn ->
          failed := i;
          raise exn
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
        (fun e ->
          try decode e
          with Decode_error _ as exn ->
            for i = n - 1 downto !failed + 1 do
              checks.(i) e
            done;
            raise exn) }
  | Variant v -> variant v
  | Custom c ->
    let k = content c.xml in
    { enc = (fun o v -> k.enc o (c.to_xml v));
      dec = (fun e -> c.of_xml (k.dec e)) }
  | Rec r -> (
    let uid = Type.Id.uid r.fix_key in
    match Hashtbl.find_opt memo uid with
    | Some (M (k, f)) ->
      let Type.Equal = same k r.fix_key in
      { enc = (fun o v -> !f.enc o v); dec = (fun e -> !f.dec e) }
    | None ->
      let f = ref { enc = (fun _ _ -> ()); dec = (fun _ -> assert false) } in
      Hashtbl.add memo uid (M (r.fix_key, f));
      f := content (Lazy.force r.body);
      { enc = (fun o v -> !f.enc o v); dec = (fun e -> !f.dec e) })
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
            fun _ -> x
          | None -> fun e -> c.inj (payload.dec e)
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
  let key =
    match v.by with
    | By_xmi_type -> xmi_type
    | By_attr a -> fun e -> get_attr e a
    | By_tag | Kind_pair _ -> fun e -> e.Sxml.Doc.tag
  in
  { enc = by_case v (List.map snd cases);
    dec = dispatch (List.concat_map fst cases) v.unknown key }

(* [fooKind] + [foo]: the encoder, then the decoder of an optional value
   ([None] when [fooKind] is absent and no case is written as absence)
   and of a required one *)
and kind_pair : type a.
    string -> (string -> string -> string) -> a variant ->
    (out -> a -> unit)
    * (Sxml.Doc.element -> a option)
    * (Sxml.Doc.element -> a) =
 fun prefix missing v ->
  let kind = prefix ^ "Kind" in
  let absent = ref None and table = Hashtbl.create 8 in
  let enc (Any c) =
    match (c.spelling, constant c.payload) with
    | None, _ ->
      let x = Option.map c.inj (constant c.payload) in
      absent := Option.map (fun x _ -> x) x;
      E (c, fun _ _ -> ())
    | Some s, Some u ->
      let x = c.inj u in
      Hashtbl.replace table s (fun _ _ -> x);
      E (c, fun o _ -> add_attr o kind s)
    | Some s, None ->
      let print, parse = text c.payload ~name:prefix ~required:true in
      Hashtbl.replace table s (fun e k ->
          let p =
            match Sxml.Doc.attr e prefix with
            | Some p -> p
            | None -> raise (Decode_error (missing prefix k))
          in
          match parse p with
          | x -> c.inj x
          | exception Decode_error _ -> decode_error "bad %s literal %s" k p);
      E
        ( c,
          fun o p ->
            add_attr o kind s;
            add_attr o prefix (print p) )
  in
  let enc = by_case v (List.map enc v.cases) and absent = !absent in
  let find e k =
    match Hashtbl.find table k with
    | d -> d e k
    | exception Not_found -> raise (Decode_error (Printf.sprintf v.unknown k))
  in
  let opt e =
    match Sxml.Doc.attr e kind with
    | Some k -> Some (find e k)
    | None -> Option.map (fun d -> d e) absent
  and req e =
    match (Sxml.Doc.attr e kind, absent) with
    | Some k, _ -> find e k
    | None, Some d -> d e
    | None, None -> decode_error "%s without %s" e.Sxml.Doc.tag prefix
  in
  (enc, opt, req)

and place : type a. place -> a t -> default:a option -> omit:bool -> a codec =
 fun at ty ~default ~omit ->
  match (at, ty) with
  | _, Custom c ->
    let k = place at c.xml ~default:None ~omit:false in
    { enc = (fun o v -> k.enc o (c.to_xml v));
      dec = (fun e -> c.of_xml (k.dec e)) }
  | Attr n, Variant ({ by = Kind_pair missing; _ } as v) ->
    let enc, _, dec = kind_pair n missing v in
    { enc; dec }
  | Attr n, Opt (Variant ({ by = Kind_pair missing; _ } as v)) ->
    let enc, dec, _ = kind_pair n missing v in
    { enc = (fun o -> Option.iter (enc o)); dec }
  (* the attribute is the value (identifiers are strings) *)
  | Attr n, Opt Str -> opt_string n
  | Attr n, Opt Ident -> opt_string n
  | Attr n, Str when Option.is_none default -> string n
  | Attr n, Ident when Option.is_none default -> string n
  | Attr n, Opt s ->
    let print, parse = text s ~name:n ~required:false in
    { enc = (fun o -> Option.iter (fun x -> add_attr o n (print x)));
      dec = (fun e -> Option.map parse (Sxml.Doc.attr e n)) }
  | Attr n, _ -> (
    let print, parse = text ty ~name:n ~required:(Option.is_none default) in
    match default with
    | Some d ->
      { enc =
          (fun o v -> if not (omit && v = d) then add_attr o n (print v));
        dec =
          (fun e ->
            match Sxml.Doc.attr e n with
            | Some s -> parse s
            | None -> d) }
    | None ->
      { enc = (fun o v -> add_attr o n (print v));
        dec = (fun e -> parse (get_attr e n)) })
  | Xmi_type, Enum en ->
    { enc = (fun o v -> o.xtype <- Some (en.spell v));
      dec = (fun e -> enum_of_text en (xmi_type e)) }
  | (Xmi_type | Inline), _ -> content ty
  | Each (tag, Attr n), List (Variant ({ by = Kind_pair missing; _ } as v)) ->
    (* a list item that carries no value is skipped *)
    let enc, dec, _ = kind_pair n missing v in
    { enc = each tag enc;
      dec = (fun e -> List.filter_map dec (Sxml.Doc.find_children e tag)) }
  | Each (tag, inner), List a ->
    let item = place inner a ~default:None ~omit:false in
    { enc = each tag item.enc;
      dec = (fun e -> List.map item.dec (Sxml.Doc.find_children e tag)) }
  | Child tag, _ ->
    let k = content ty in
    { enc = (fun o v -> add_child o (element tag k.enc v));
      dec =
        (fun e ->
          match Sxml.Doc.find_child e tag with
          | Some c -> k.dec c
          | None -> decode_error "%s without %s" e.Sxml.Doc.tag tag) }
  | Tagged strict, List a ->
    let item = content a in
    let children e = Sxml.Doc.child_elements e in
    let children =
      if strict then children
      else
        let tags = tags_of a in
        fun e ->
          List.filter (fun c -> List.mem c.Sxml.Doc.tag tags) (children e)
    in
    { enc = (fun o l -> List.iter (item.enc o) l);
      dec = (fun e -> List.map item.dec (children e)) }
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
