(** The XML scanner, and the flat index it builds.

    One pass over the input checks the document (the grammar of
    {!Parse}) and records, in int arrays, each element's tag span,
    first attribute, first child and next sibling, and each attribute's
    name and value spans.  Values that hold character or entity
    references, and text nodes, are decoded once, during the scan, into
    a side table; every other value stays a span of the input until it
    is read.  No tree is built: {!Parse.parse_string} builds one from
    the index, and XMI import decodes from the index directly.

    Nodes and attributes are numbered in document order, the root node
    being [0]; a negative number means none.  Readers allocate only the
    strings, options and lists they return.  An index is immutable once built and
    may be read from several domains. *)

exception Error of {
  line : int;
  column : int;
  message : string;
}
(** Positions are 1-based; the column counts bytes.  Computed from the
    offset only when raised. *)

val max_depth : int
(** Deepest element nesting accepted (1024 levels, the root being level
    1).  A document nested deeper is rejected with an {!Error} at the
    first element beyond the limit, so hostile input cannot make the
    scan cost grow faster than its size. *)

type t
type node = int
type attr = int

val scan : ?keep_whitespace:bool -> string -> t
(** Index a complete document.  Whitespace-only text between elements is
    left out unless [keep_whitespace] is set (default [false]).
    @raise Error on malformed input. *)

(** {1 Nodes} *)

val root : node
(** The root element. *)

val is_element : t -> node -> bool
(** [false] for a text node. *)

val tag : t -> node -> string
val tag_is : t -> node -> string -> bool
(** Compared in place. *)

val match_tag : t -> node -> string array -> int
(** Position of the tag in the array, or [-1]; compared in place. *)

val text : t -> node -> string
(** A text node's decoded text. *)

val first_child : t -> node -> node
val next_sibling : t -> node -> node

val first_element : t -> node -> node
(** The first child element. *)

val next_element : t -> node -> node
(** The next sibling element. *)

val find_child : t -> node -> string -> node
(** The first child element with this tag. *)

val next_tagged : t -> node -> string -> node
(** The next sibling element with this tag. *)

(** {1 Attributes} *)

val find_attr : t -> node -> string -> attr
(** The first attribute with this name, or [-1]; compared in place. *)

val attrs : t -> node -> attr list
(** In document order. *)

val attr_name : t -> attr -> string

val value : t -> attr -> string
(** The decoded value. *)

val value_from : t -> attr -> from:int -> string
(** The value from byte [from] on. *)

val value_length : t -> attr -> int
val value_has_prefix : t -> attr -> string -> bool

val match_value : t -> attr -> from:int -> string array -> int
(** Position in the array of the value from byte [from] on, or [-1]. *)
