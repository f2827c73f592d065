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
  sum_state_count : int;
  sum_truncated : bool;  (** hit the exploration limit *)
  sum_deadlocks : Marking.t list;  (** visit order *)
  sum_bound : int option;
      (** max tokens in any single place; [None] when truncated *)
  sum_deadlock_free : bool option;
      (** [None] when truncated without finding a deadlock *)
  sum_dead_transitions : string list;
      (** never enabled in the explored space, in net order;
          conservative when truncated *)
}
(** Every per-net answer of one exploration, without the visited
    markings themselves: only {!reachable} pays for exporting those to
    string-keyed {!Marking.t} values. *)

type exploration
(** One compiled breadth-first exploration, kept so that questions at
    any smaller limit are answered from it instead of exploring
    again.  It keeps its deadlocks but not the other visited
    markings. *)

val exploration :
  ?limit:int ->
  ?metered:int ->
  ?metrics:Telemetry.Metrics.t ->
  ?budget:Exec.Budget.t ->
  ?compiled:Compiled.t ->
  Net.t ->
  Marking.t ->
  exploration
(** Explore up to [limit] markings (default 10_000, the Karp–Miller
    default).  The first [metered] visits (default: all) count towards
    [metrics]' [petri.markings_explored] and checkpoint [budget];
    {!Exec.Budget.Expired} propagates with no exploration produced.
    [compiled] supplies a pre-interned form of [net] (it must be
    [Compiled.of_net net] for the same net), skipping the interning
    step — the warm path of the [socuml serve] artifact cache. *)

val summary : ?limit:int -> exploration -> summary
(** The answers an exploration to [limit] (default: the exploration's
    own limit) would give, exactly — BFS order does not depend on the
    limit, so they are read off visit indices.
    @raise Invalid_argument if [limit] exceeds the exploration's. *)

val coverability : ?limit:int -> exploration -> Coverability.result
(** Exactly [Coverability.analyse ?limit] on the explored net and
    initial marking (default limit 10_000).  Karp–Miller runs only when
    the exploration was truncated or found exactly [limit] markings;
    otherwise the net is bounded and the result follows from the
    marking count. *)

val explore :
  ?limit:int ->
  ?metrics:Telemetry.Metrics.t ->
  ?budget:Exec.Budget.t ->
  ?compiled:Compiled.t ->
  Net.t ->
  Marking.t ->
  summary
(** [summary (exploration ...)]: one exploration answering every
    per-net question at once, for clients that need several of
    reachability, bounds, deadlock-freedom and dead transitions. *)

val reachable :
  ?limit:int ->
  ?metrics:Telemetry.Metrics.t ->
  ?budget:Exec.Budget.t ->
  ?pool:Exec.Pool.t ->
  ?compiled:Compiled.t ->
  Net.t ->
  Marking.t ->
  reach_result
(** The visited markings of one exploration, exported to
    {!Marking.t}.  [pool] is accepted for source compatibility and
    ignored: exploration is sequential (a level-parallel BFS measured
    slower than this one on two cores). *)

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
