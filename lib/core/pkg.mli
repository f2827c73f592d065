(** Packages: namespaces composing model elements (Package Diagrams).

    A package owns elements by identifier and may nest sub-packages and
    import other packages, as surveyed in the paper's Package Diagram
    paragraph. *)

type t = {
  pkg_id : Ident.t;
  pkg_name : string;
  pkg_owned : Ident.t list;  (** identifiers of owned model elements *)
  pkg_subpackages : Ident.t list;
  pkg_imports : Ident.t list;  (** imported packages *)
}
[@@deriving eq, ord, show]

val make :
  ?id:Ident.t ->
  ?owned:Ident.t list ->
  ?subpackages:Ident.t list ->
  ?imports:Ident.t list ->
  string ->
  t

val add_owned : t -> Ident.t -> t

val qualified_name : parents:string list -> t -> string
(** ["A::B::C"]-style qualified name given ancestor package names. *)
