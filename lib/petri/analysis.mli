(** Behavioral analysis: reachability, boundedness, deadlocks, and
    occurrence sequences.

    All state-space queries run on the integer-indexed {!Compiled}
    engine; {!reachable_reference} keeps the original string-keyed BFS
    as the differential-testing oracle. *)

type reach_result = {
  markings : Marking.t list;  (** discovered markings, BFS order *)
  state_count : int;
  truncated : bool;  (** hit the exploration limit *)
  deadlocks : Marking.t list;  (** reachable markings without successors *)
}

type summary = {
  sum_reach : reach_result;
  sum_bound : int option;
      (** max tokens in any single place; [None] when truncated *)
  sum_deadlock_free : bool option;
      (** [None] when truncated without finding a deadlock *)
  sum_dead_transitions : string list;
      (** never enabled in the explored space, in net order;
          conservative when truncated *)
}

val explore :
  ?limit:int ->
  ?metrics:Telemetry.Metrics.t ->
  ?budget:Exec.Budget.t ->
  ?compiled:Compiled.t ->
  Net.t ->
  Marking.t ->
  summary
(** One compiled breadth-first exploration (up to [limit] states,
    default 10_000) answering every per-net question at once: clients
    that need several of reachability, bounds, deadlock-freedom and
    dead transitions should call this once instead of one query
    function per answer.  [metrics] receives the
    [petri.markings_explored] counter.
    [budget] is checkpointed once per visited marking;
    {!Exec.Budget.Expired} propagates with no summary produced.
    [compiled] supplies a pre-interned form of [net] (it must be
    [Compiled.of_net net] for the same net), skipping the interning
    step — the warm path of the [socuml serve] artifact cache. *)

val reachable :
  ?limit:int ->
  ?metrics:Telemetry.Metrics.t ->
  ?budget:Exec.Budget.t ->
  ?pool:Exec.Pool.t ->
  ?compiled:Compiled.t ->
  Net.t ->
  Marking.t ->
  reach_result
(** The {!explore} reachability component.  [pool] is accepted for
    source compatibility and ignored: exploration is sequential (a
    level-parallel BFS measured slower than this one on two cores). *)

val reachable_reference :
  ?limit:int -> ?metrics:Telemetry.Metrics.t -> Net.t -> Marking.t ->
  reach_result
(** The original map/set-based BFS over string-keyed markings, kept as
    the reference semantics for differential tests and benchmarks.
    Agrees with {!reachable} exactly (same markings, same BFS order,
    same deadlocks and truncation verdict). *)

val is_deadlock_free : ?limit:int -> Net.t -> Marking.t -> bool option
(** [Some b] when the state space was fully explored, [None] when
    truncated. *)

val bound : ?limit:int -> Net.t -> Marking.t -> int option
(** Maximum tokens observed in any single place over the explored state
    space; [None] when exploration was truncated (the net may be
    unbounded). *)

val is_k_bounded : ?limit:int -> int -> Net.t -> Marking.t -> bool option

val random_occurrence_sequence :
  seed:int -> max_steps:int -> Net.t -> Marking.t -> string list
(** A deterministic pseudo-random firing sequence (for differential
    testing against the activity engine): repeatedly fires the
    [seed]-selected enabled transition until none is enabled or
    [max_steps] were taken. *)

val dead_transitions :
  ?limit:int ->
  ?budget:Exec.Budget.t ->
  ?compiled:Compiled.t ->
  Net.t ->
  Marking.t ->
  string list
(** Transitions never enabled in the explored state space (L0-live
    check); conservative when truncated. *)
