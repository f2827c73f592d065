(** The binary interpreter of the metamodel schemas.

    Compiles [Xmi.Meta]'s schemas once into encoder/decoder closures over
    the {!Wire} primitives: fields in record order, variants as a
    one-byte tag (case position) then the payload, enums as their
    position in the canonical inventory, options as a presence byte,
    lists as a count, and the hot records' flags bytes where their
    schemas place them.  Decoders raise {!Wire.Decode_error} on unknown
    tags and undeclared flag bits; {!Read} wraps that (and the
    duplicate-identifier [Invalid_argument] from [Uml.Model.add]) into
    its own [Import_error]. *)

val enc_model : Wire.Enc.t -> Uml.Model.t -> unit
(** Encode the whole model body (name, elements, applications,
    diagrams) into the encoder; header and string table are added by
    [Wire.Enc.contents]. *)

val dec_model : Wire.Dec.t -> Uml.Model.t
(** Inverse of {!enc_model}; assumes the string table is installed.
    @raise Wire.Decode_error on malformed input.
    @raise Invalid_argument on duplicate element identifiers. *)
