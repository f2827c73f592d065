(** Coverability analysis (Karp–Miller).

    Decides boundedness where plain reachability (the [sum_bound] of an
    {!Analysis.summary}) can only give up: the coverability tree
    accelerates strictly growing paths to ω, so unbounded places are
    identified exactly (up to the node limit safeguard). *)

type count =
  | Fin of int
  | Omega

type omega_marking = (string * count) list
(** Non-zero entries, sorted by place id. *)

type result = {
  nodes : int;  (** distinct ω-markings constructed *)
  unbounded_places : string list;  (** places that reach ω, sorted *)
  truncated : bool;  (** hit the node limit; verdicts below are partial *)
}

val analyse : ?limit:int -> Net.t -> Marking.t -> result
(** Build the coverability set, up to [limit] nodes (default 10_000). *)

val verdict : result -> bool option
(** [Some true] when the full coverability set is finite and ω-free,
    [Some false] when some place reaches ω, [None] when truncated
    without finding ω. *)

val is_bounded : ?limit:int -> Net.t -> Marking.t -> bool option
(** [verdict (analyse ?limit net m0)]. *)

val covers : omega_marking -> Marking.t -> bool
(** Does an ω-marking cover a concrete marking? *)
