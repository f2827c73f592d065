(** XMI import: the inverse of {!Write}.

    [model_of_string (Write.to_string m)] returns a model equal to [m]
    (per {!Uml.Model.equal}); imported identifiers are preserved
    verbatim. *)

exception Import_error of string

val of_xml : Sxml.Doc.t -> Uml.Model.t
(** @raise Import_error on structural problems. *)

val model_of_string : string -> Uml.Model.t
(** Parse then {!of_xml}.
    @raise Import_error also on XML parse errors. *)
