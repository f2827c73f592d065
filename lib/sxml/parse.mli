(** XML parser.

    Handwritten recursive-descent parser for the XML subset produced by
    {!Doc.to_string} and common XMI exporters: prolog, comments, CDATA,
    DOCTYPE (skipped), elements, attributes (single or double quoted),
    character and entity references.

    It scans byte offsets: names, plain attribute values and text runs
    are sliced out of the input with one copy each, and whitespace
    between elements is tested in place and dropped without allocating.
    Error positions are computed only when an error is raised. *)

exception Error of {
  line : int;
  column : int;
  message : string;
}

val max_depth : int
(** Deepest element nesting accepted (1024 levels, the root being level
    1).  A document nested deeper is rejected with an {!Error} at the
    first element beyond the limit, so hostile input cannot make the
    parse cost grow faster than its size. *)

val parse_string : ?keep_whitespace:bool -> string -> Doc.t
(** Parse a complete document and return the root element.
    Whitespace-only text nodes between elements are dropped unless
    [keep_whitespace] is set (default [false]).
    @raise Error on malformed input. *)

val error_message : exn -> string option
(** Render an [Error]; [None] for other exceptions. *)
