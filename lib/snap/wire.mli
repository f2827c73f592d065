(** Binary wire substrate for model snapshots.

    A snapshot is [magic] + one version byte + an interned string table
    + the body.  The table holds every distinct string once, in first
    encode order; the body refers to strings by table index, so
    identifiers and names repeated across references cost one varint.
    Both sides are fully deterministic: the same model always produces
    the same bytes (the write∘read∘write identity tested in
    [test_snap]). *)

val magic : string
(** First bytes of every snapshot; starts with a non-ASCII byte so no
    XMI/XML document can collide. *)

val format_version : int
(** Version byte written after the magic; {!Read.model_of_string}
    rejects everything else. *)

exception Decode_error of string

val decode_error : ('a, unit, string, 'b) format4 -> 'a

(** Encoder: primitives append to an internal body buffer; {!Enc.str}
    interns.  {!Enc.contents} assembles header + table + body. *)
module Enc : sig
  type t

  val create : unit -> t
  val u8 : t -> int -> unit
  val varint : t -> int -> unit
  val int : t -> int -> unit
  (** Arbitrary-sign integers: zigzag onto the full 63-bit pattern
      space, then LEB128 — every [int] round-trips, [min_int] and
      [max_int] included. *)

  val bool : t -> bool -> unit
  val float : t -> float -> unit
  (** IEEE bits, big-endian — round-trips every float exactly. *)

  val str : t -> string -> unit
  (** Interned: writes the table index, adding the string on first use. *)

  val opt : t -> (t -> 'a -> unit) -> 'a option -> unit
  val list : t -> (t -> 'a -> unit) -> 'a list -> unit
  val string_count : t -> int
  val body_bytes : t -> int
  val contents : t -> string
end

(** Decoder over a raw byte string; every primitive bounds-checks and
    raises {!Decode_error} on truncation or malformed input. *)
module Dec : sig
  type t

  val make : ?pos:int -> string -> t
  val set_table : t -> string array -> unit

  val flags : t -> int
  val set_flags : t -> int -> unit
  (** The flags byte of the record being decoded, kept here for the
      fields that read their bits from it ([Codec]). *)

  val pos : t -> int
  val at_end : t -> bool
  val u8 : t -> int

  val varint : t -> int
  (** Always non-negative: encodings that set bit 62 (the native sign
      bit) raise {!Decode_error}, so counts, lengths and table indices
      decoded through this can never go negative. *)

  val int : t -> int
  (** Full-range signed int (inverse of {!Enc.int}). *)

  val bool : t -> bool
  val float : t -> float
  val raw_string : t -> string
  (** Length-prefixed bytes (used only for the table itself). *)

  val string_table : t -> int -> unit
  (** Bulk-decode [count] length-prefixed strings at the current
      position and install them as the reference table for {!str}.
      Equivalent to [count] calls to {!raw_string} + {!set_table}, but
      one tight loop.  @raise Decode_error on truncation. *)

  val str : t -> string
  (** Table reference; bounds-checked. *)

  val opt : t -> (t -> 'a) -> 'a option
  val list : t -> (t -> 'a) -> 'a list
end
