(** Structural tables precomputed over a state machine: ownership
    chains, transition indexes, and least-common-ancestor queries used
    by the execution engine. *)

open Uml

type t

val build : Smachine.t -> t
val machine : t -> Smachine.t

val vertex : t -> Ident.t -> Smachine.vertex
(** @raise Not_found for foreign identifiers. *)

val vertex_opt : t -> Ident.t -> Smachine.vertex option

val fold_vertices : (Ident.t -> Smachine.vertex -> 'a -> 'a) -> t -> 'a -> 'a
(** Every vertex of the machine once, in no specified order. *)

val region_of_vertex : t -> Ident.t -> Ident.t
(** Owning region of a vertex. *)

val state_of_region : t -> Ident.t -> Ident.t option
(** Owning composite state of a region; [None] for top-level regions. *)

val region : t -> Ident.t -> Smachine.region

val outgoing : t -> Ident.t -> Smachine.transition list
val incoming : t -> Ident.t -> Smachine.transition list

val region_chain : t -> Ident.t -> Ident.t list
(** Regions containing the vertex, outermost first (the last element is
    the vertex's own region). *)

val ancestor_states : t -> Ident.t -> Ident.t list
(** Composite states containing the vertex, outermost first; excludes
    the vertex itself. *)

val depth : t -> Ident.t -> int
(** Nesting depth of a vertex (number of containing regions). *)

val lca_region : t -> Ident.t -> Ident.t -> Ident.t option
(** Deepest region containing both vertices; [None] only if the
    machine has several top regions and the vertices live in different
    ones (the engine then treats the machine itself as the scope). *)

val initial_of_region : Smachine.region -> Smachine.pseudostate option
val history_of_region : Smachine.region -> Smachine.pseudostate option
(** Either kind of history pseudostate owned by the region, if any. *)

val is_within : t -> ancestor:Ident.t -> Ident.t -> bool
(** Is the vertex (strictly) inside composite state [ancestor]? *)
