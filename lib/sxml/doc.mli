(** XML document trees.

    A minimal XML data model sufficient for XMI: elements with attributes
    and ordered children, plus text nodes.  Namespaces are carried
    syntactically in tag/attribute names ([xmi:id] style). *)

type attribute = string * string

type t =
  | Element of element
  | Text of string

and element = {
  tag : string;
  attrs : attribute list;
  children : t list;
}

val element : ?attrs:attribute list -> string -> t list -> t
val text : string -> t

val attr : element -> string -> string option

val child_elements : element -> element list
val find_child : element -> string -> element option
(** First child element with the given tag. *)

val find_children : element -> string -> element list
val text_content : element -> string
(** Concatenation of all directly contained text nodes. *)

val escape : string -> string
(** Escape ampersand, angle brackets and quotes for attribute/text
    contexts. *)

val to_string : ?indent:bool -> t -> string
(** Serialize; [indent] (default [true]) pretty-prints with two-space
    indentation.  Text nodes are always emitted verbatim (escaped), so a
    parse of the output yields the same tree modulo ignorable
    whitespace. *)

val to_buffer : ?indent:bool -> Buffer.t -> t -> unit

val equal : t -> t -> bool
(** Structural equality ignoring attribute order. *)
