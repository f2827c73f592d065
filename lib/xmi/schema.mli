(** Metamodel schemas: each metamodel type described once, as a value.

    A schema says what a value is made of (strings, identifiers, enums,
    options, lists, records, tagged variants) and where each part goes
    in both interchange formats: the XMI placement of every record field
    and variant case, and the flags-byte layout of the hot records in
    the binary snapshot.  Two interpreters compile a schema into
    encoder/decoder closures once, at module initialisation: {!Codec}
    (XML, behind {!Read}/{!Write}) and [Snap.Codec] (binary, behind
    [Snap.Read]/[Snap.Write]).  Compiled codecs do no per-field dispatch
    on the schema at run time.

    The descriptions of the whole metamodel live in {!Meta}. *)

exception Decode_error of string
(** Raised by decoders and by {!custom} conversions on malformed input;
    the readers turn it into their own [Import_error]. *)

val decode_error : ('a, unit, string, 'b) format4 -> 'a

(** {1 Placements} *)

(** Where a value sits in its XMI element. *)
type place =
  | Attr of string
      (** A scalar in this attribute (absent for [None]).  A
          {!Kind_pair} variant uses two attributes, [name ^ "Kind"] and
          [name]. *)
  | Xmi_type
      (** An enum or {!By_xmi_type} variant spelled in the element's
          [xmi:type] as ["uml:" ^ spelling]; always the first
          attribute. *)
  | Inline  (** A record's or variant's content, merged into this element. *)
  | Each of string * place
      (** A list: one [<tag>] child per item, the item placed inside
          it. *)
  | Child of string
      (** The single [<tag>] child holding this value; a missing child
          is the diagnostic ["<parent> without <tag>"]. *)
  | Tagged of bool
      (** A list of a {!By_tag} variant: one child element per item,
          tagged by its case.  With [true] every child element must be
          an item; with [false] other children are skipped. *)

(** Where a field sits in the flags byte of a binary record.  A record
    with any flag field writes one flags byte at its first flag field;
    decoders reject bits outside the declared ones and indices past an
    inventory.  The decoder keeps one flags byte at a time, so from a
    record's first flag field up to (not including) its last one, no
    field, and no flag field's payload, may hold a flagged record at any
    depth; [Snap.Codec] raises [Invalid_argument] at start-up if one
    does. *)
type _ bits =
  | Bytes : 'a bits  (** not in the flags byte: encoded in line *)
  | Bit : int -> bool bits  (** the value is this bit *)
  | Index : int * int -> 'a bits
      (** an enum or variant index at [(shift, width)]; a variant's
          payload follows in line *)
  | Present : int -> 'a option bits
      (** set for [Some]; the payload follows in line *)
  | Unless : int * 'a -> 'a bits
      (** set unless the value equals this default; the value follows
          in line when set *)

(** {1 Schemas} *)

type 'a enum = {
  what : string;  (** binary diagnostics: ["unknown <what> tag <n>"] *)
  xml_what : string;  (** XMI diagnostics: ["unknown <xml_what> <text>"] *)
  all : 'a array;
      (** canonical inventory of constant constructors; the position is
          the binary tag *)
  spell : 'a -> string;  (** XMI spelling (an exhaustive match) *)
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
  | Rec : 'a fix -> 'a t  (** a recursive type, see {!fix} *)

and ('r, 'a) field = {
  get : 'r -> 'a;
  ty : 'a t;
  place : place;
  default : 'a option;  (** XMI value when the attribute is absent *)
  omit : bool;  (** XMI attribute left out when equal to [default] *)
  bits : 'a bits;
}

(** Fields in constructor-argument order, which is also the binary
    order; written with list syntax. *)
and ('r, 'k) fields =
  | [] : ('r, 'r) fields
  | ( :: ) : ('r, 'a) field * ('r, 'k) fields -> ('r, 'a -> 'k) fields

and 'r record =
  | R : {
      name : string;  (** binary diagnostics: ["unknown <name> flag byte"] *)
      fields : ('r, 'k) fields;
      make : 'k;
      xmi_order : int list option;
          (** field positions in XMI emission order, when it differs
              from the field order *)
    }
      -> 'r record

and discriminator =
  | By_xmi_type  (** the element's [xmi:type] *)
  | By_attr of string  (** this attribute, written before the payload *)
  | By_tag  (** the element's tag *)
  | Kind_pair of (string -> string -> string)
      (** [fooKind] names the case and [foo] holds its scalar payload
          (see {!Attr}); the function gives the diagnostic for a
          missing payload from the prefix and the kind. *)

and 'a variant = {
  vname : string;  (** binary diagnostics: ["unknown <vname> tag <n>"] *)
  by : discriminator;
  unknown : (string -> string, unit, string) format;
      (** XMI diagnostic for an unknown discriminator *)
  cases : 'a any_case list;  (** in binary tag order *)
  view : 'a -> 'a view;  (** the case of a value, and its payload *)
}

and ('a, 'p) case = {
  spelling : string option;
      (** the discriminator text; [None] for a {!By_xmi_type} case
          whose payload spells its own [xmi:type] (an {!Xmi_type}
          field), or for the {!Kind_pair} case written as no
          attributes at all *)
  payload : 'p t;
  at : place;  (** XMI placement of the payload *)
  inj : 'p -> 'a;
  key : 'p Type.Id.t;
  mutable index : int;  (** position in [cases], set by {!variant} *)
}

and 'a any_case = Any : ('a, 'p) case -> 'a any_case
and 'a view = V : ('a, 'p) case * 'p -> 'a view

(** An irregular XMI encoding: the value travels in XMI as [to_xml v]
    under the [xml] schema, and in the binary format under [wire]. *)
and ('a, 'b) custom = {
  wire : 'a t;
  xml : 'b t;
  to_xml : 'a -> 'b;
  of_xml : 'b -> 'a;  (** may raise {!Decode_error} *)
}

and 'a fix = { fix_key : 'a Type.Id.t; body : 'a t Lazy.t }

(** {1 Builders} *)

val field :
  ?default:'a -> ?omit:bool -> ?bits:'a bits -> place -> 'a t -> ('r -> 'a) ->
  ('r, 'a) field

val record : ?xmi_order:int list -> string -> 'k -> ('r, 'k) fields -> 'r t
val pair : place -> 'a t -> place -> 'b t -> ('a * 'b) t
val unit : unit t

val enum : ?xml_what:string -> string -> 'a list -> ('a -> string) -> 'a t
(** [xml_what] defaults to the binary [what]. *)

val case : ?at:place -> string option -> 'p t -> ('p -> 'a) -> ('a, 'p) case

val variant :
  string -> discriminator -> (string -> string, unit, string) format ->
  'a any_case list -> ('a -> 'a view) -> 'a t
(** Numbers the cases in list order (their binary tags).
    @raise Invalid_argument if a case was already numbered elsewhere. *)

val fix : ('a t -> 'a t) -> 'a t
(** [fix (fun self -> ...)] ties a recursive schema. *)

val custom : wire:'a t -> xml:'b t -> ('a -> 'b) -> ('b -> 'a) -> 'a t

(** {1 Interpreter support} *)

val enum_index : 'a enum -> 'a -> int

val same : 'a Type.Id.t -> 'b Type.Id.t -> ('a, 'b) Type.eq
(** The equality between two keys of the same type: the case of a
    {!view} and its compiled counterpart, or a {!fix} node met again.
    @raise Invalid_argument on different keys. *)

val constant : 'a t -> 'a option
(** The only value of a schema that carries no data (a record without
    fields, such as {!unit}). *)

(** A per-field compiler, polymorphic in the field type. *)
type ('r, 's) on_field = { on : 'a. int -> ('r, 'a) field -> 's -> 'a }

val decode_in_order : ('r, 's) on_field -> ('r, 'k) fields -> 'k -> 's -> 'r
(** Compile a record decoder that runs the field decoders first to last
    and applies [make] to all of them at once (no partial
    application up to 11 fields). *)

type 'r any_field = F : int * ('r, 'a) field -> 'r any_field

val field_list : ('r, 'k) fields -> 'r any_field list
