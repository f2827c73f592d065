(** Integer-indexed compiled form of a net, for state-space work.

    {!Net.t} keeps places, transitions and arcs as association lists of
    strings — the right *reference* surface (small, obviously correct,
    directly serializable), but every [pre]/[post] lookup is an
    O(|arcs|) scan and every marking operation walks a string-keyed
    balanced tree.  This module interns places and transitions to dense
    integer ids once, stores pre/post sets as int arrays, and represents
    markings as immutable int arrays with a precomputed hash, so
    reachability exploration runs on array reads and a hash table.

    Semantics are locked to the reference engine by the differential
    qcheck properties in [test/test_compiled.ml]: enabling, firing,
    reachable sets, deadlocks, bounds and dead transitions agree
    exactly. *)

type t
(** A compiled net.  Construction is O(|places| + |transitions| +
    |arcs|); the original {!Net.t} remains the source of truth for
    identifiers. *)

type marking
(** An immutable token-count vector over the net's interned places,
    hashed at construction.  Token counts of places unknown to the
    compiled net cannot be represented; see {!split}. *)

val of_net : Net.t -> t

val net : t -> Net.t
(** The net this was compiled from. *)

val place_count : t -> int
val transition_count : t -> int

val transition_index : t -> string -> int option
(** String id to dense index; [None] for unknown transitions. *)

val place_id : t -> int -> string
(** Dense index (in [Net.t.places] order) back to the string id. *)

val place_index : t -> string -> int option
(** String id to dense index; [None] for places the net does not know. *)

val pre_arcs : t -> int -> (int * int) array
(** Input [(place, weight)] pairs of a transition (by dense index), in
    the net's arc order.  Callers must not mutate the array. *)

val post_arcs : t -> int -> (int * int) array
(** Output pairs; same conventions as {!pre_arcs}. *)

val split : t -> Marking.t -> marking * (string * int) list
(** Intern a reference marking.  The second component is the *residue*:
    entries for places the net does not know.  Arcs never touch such
    places, so the residue is invariant under firing; add it back with
    {!export} to reproduce reference markings exactly. *)

val export : t -> (string * int) list -> marking -> Marking.t
(** [export c residue m] = the reference marking with the residue
    entries restored. *)

val tokens : marking -> int -> int
(** Token count at a dense place index. *)

val add_tokens : marking -> int -> int -> marking
(** [add_tokens m i delta]: [m] with [delta] (may be negative) added at
    dense place index [i], unclamped — the token-fault hook. *)

val marking_equal : marking -> marking -> bool

val enabled : t -> marking -> int -> bool
(** Is the transition (by dense index) enabled? *)

val fire : t -> marking -> int -> marking option
(** Successor marking, [None] if not enabled. *)

val fire_by_id : t -> marking -> string -> marking option
(** {!fire} keyed by the string id; [None] also for unknown ids
    (mirrors {!Marking.fire}). *)

type reach = {
  r_queue : marking array;
      (** the exploration's queue, which keeps everything it pushed: its
          first [r_state_count] entries are the visited markings in BFS
          order; entries past the last marking pushed are filler *)
  r_state_count : int;
  r_truncated : bool;  (** stopped at the limit with work remaining *)
  r_deadlocks : (int * marking) list;
      (** deadlocks with their visit index, in visit order *)
  r_first_enabled : int array;
      (** per dense transition index: the visit index of the first
          marking that enables it, [max_int] if none does *)
  r_max_tokens : int;
      (** max token count in any single place over visited markings *)
}

val reachable :
  ?limit:int ->
  ?metered:int ->
  ?metrics:Telemetry.Metrics.t ->
  ?budget:Exec.Budget.t ->
  t ->
  marking ->
  reach
(** Breadth-first exploration up to [limit] visited markings (default
    10_000), with the visited set marked at *enqueue* time so the
    frontier never holds duplicates.  One pass accumulates everything
    downstream analyses need: deadlocks, when each transition is first
    enabled and the per-place token bound.

    BFS order does not depend on [limit], so the first [l] visits of an
    exploration are exactly the exploration with limit [l]: every
    answer an exploration at a smaller limit would give can be read off
    this one by visit index (see {!Analysis.summary}).

    The first [metered] visits (default: all of them) are the metered
    ones: each increments [metrics]' [petri.markings_explored] counter
    and checkpoints [budget] (default {!Exec.Budget.unlimited}) once.
    {!Exec.Budget.Expired} propagates to the caller with the
    exploration abandoned cleanly. *)
