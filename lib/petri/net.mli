(** Place/transition nets.

    The substrate for the paper's observation that UML 2.0 activity
    token semantics are "semantically close to high-level Petri Nets":
    the [activity] library translates activities onto these nets and
    checks trace equivalence. *)

type place = {
  pl_id : string;
  pl_name : string;
}
[@@deriving eq, ord, show]

type transition = {
  tn_id : string;
  tn_name : string;
}
[@@deriving eq, ord, show]

(** Arcs connect places to transitions ([P_to_t]) or transitions to
    places ([T_to_p]) with a positive weight. *)
type arc =
  | P_to_t of string * string * int
  | T_to_p of string * string * int
[@@deriving eq, ord, show]

type t = {
  places : place list;
  transitions : transition list;
  arcs : arc list;
}
[@@deriving eq, show]

val make : place list -> transition list -> arc list -> t
(** @raise Invalid_argument if an arc references an unknown node, has a
    non-positive weight, or node identifiers collide. *)

val place : ?name:string -> string -> place
val transition : ?name:string -> string -> transition

val pre : t -> string -> (string * int) list
(** [pre net tn] = input places of transition [tn] with weights. *)

val post : t -> string -> (string * int) list
(** Output places of a transition with weights. *)

val find_transition : t -> string -> transition option
val place_count : t -> int
val transition_count : t -> int
