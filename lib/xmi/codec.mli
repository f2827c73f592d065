(** The XML interpreter of the metamodel schemas.

    Compiles {!Meta}'s schemas once into closures: an encoder that adds
    attributes and children to the element under construction, and a
    decoder that reads the value back out of an element, both following
    the {!Schema.place}ments.  {!Write} and {!Read} wrap them with the
    document frame. *)

type out
(** An element under construction. *)

type 'a codec = { enc : out -> 'a -> unit; dec : Sxml.Doc.element -> 'a }
(** Decoders raise {!Schema.Decode_error} on malformed input. *)

val element : string -> (out -> 'a -> unit) -> 'a -> Sxml.Doc.t
(** [element tag enc v]: the element [<tag>] holding [v]. *)

val get_attr : Sxml.Doc.element -> string -> string
(** @raise Schema.Decode_error when the attribute is missing. *)

val element_codec : Uml.Model.element codec
val application_codec : Uml.Profile.application codec
val diagram_codec : Uml.Diagram.t codec
