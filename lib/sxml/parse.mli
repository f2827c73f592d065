(** XML parser.

    Handwritten parser for the XML subset produced by {!Doc.to_string}
    and common XMI exporters: prolog, comments, CDATA, DOCTYPE (skipped),
    elements, attributes (single or double quoted), character and entity
    references.

    {!parse_string} is {!Index.scan}, the one scanner, plus a tree
    builder over the index it returns: the grammar, the checks and every
    {!Error} are the scanner's.  Callers that only read the document,
    such as XMI import, use the index directly and build no tree. *)

exception Error of {
  line : int;
  column : int;
  message : string;
}
(** The scanner's {!Index.Error}. *)

val max_depth : int
(** {!Index.max_depth}: 1024 levels. *)

val parse_string : ?keep_whitespace:bool -> string -> Doc.t
(** Parse a complete document and return the root element.
    Whitespace-only text nodes between elements are dropped unless
    [keep_whitespace] is set (default [false]).
    @raise Error on malformed input. *)

val error_message : exn -> string option
(** Render an [Error]; [None] for other exceptions. *)
