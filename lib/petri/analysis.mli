(** Behavioral analysis: reachability, boundedness, deadlocks and dead
    transitions.

    All state-space queries run on the integer-indexed {!Compiled}
    engine.  The original string-keyed BFS is the differential-testing
    oracle in [test/oracles/petri_ref.ml]. *)

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
