(** XMI import: the inverse of {!Write}.

    [model_of_string (Write.to_string m)] returns a model equal to [m]
    (per {!Uml.Model.equal}); imported identifiers are preserved
    verbatim.  The document is scanned into a {!Sxml.Index} and the
    model decoded from it; no {!Sxml.Doc} tree is built. *)

exception Import_error of string

val model_of_string : string -> Uml.Model.t
(** Scan then {!of_index}.
    @raise Import_error on XML parse errors and structural problems. *)

val of_index : Sxml.Index.t -> Uml.Model.t
(** The model of a scanned document: the decode half of
    {!model_of_string}, which benchmarks time apart from the scan.
    @raise Import_error on structural problems. *)
