(** StateChart execution engine (STATEMATE/UML run-to-completion).

    Semantics implemented:
    - hierarchical and orthogonal states, with inner-first transition
      priority and maximal non-conflicting firing sets;
    - entry/exit/effect behaviors in ASL, executed in UML order
      (exits innermost-first, entries outermost-first);
    - initial, junction, choice, fork, join, shallow/deep history,
      entry/exit points and terminate pseudostates;
    - completion transitions (trigger-less transitions fire when the
      source state completes; a composite completes when every region
      reaches a final state);
    - deferred events, [after n] time events on a logical clock.

    Guards and effects run on an {!Asl.Interp} shared with the caller,
    with [self] bound to a model object and event arguments bound to
    [e1], [e2], … plus [event] (the event name). *)

type status =
  | Running
  | Finished  (** a top-level final state was reached *)
  | Terminated  (** a terminate pseudostate was reached *)
[@@deriving eq, show]

type step_record = {
  sr_event : Event.t;
  sr_fired : Uml.Ident.t list;  (** transitions fired, firing order *)
  sr_config : string list;  (** active leaf-state names after the step *)
}
[@@deriving eq, show]

exception Model_error of string
(** Raised when execution reaches an ill-formed situation (e.g. a choice
    with no enabled branch). *)

type t

val create :
  ?interp:Asl.Interp.t ->
  ?self_:Asl.Value.t ->
  ?metrics:Telemetry.Metrics.t ->
  Uml.Smachine.t ->
  t
(** Build an engine; a fresh interpreter over an empty store is created
    when none is supplied (instrumented with [metrics] in that case —
    a caller-supplied [interp] keeps its own registry).  The machine is
    not started yet.  [metrics] (default {!Telemetry.Metrics.null})
    receives [statechart.events_dispatched], [statechart.transitions_fired],
    [statechart.rtc_microsteps], the [statechart.queue_depth] gauge, and
    one structured ["statechart/step"] event per processed event. *)

val start : t -> unit
(** Enter the default configuration (initial transitions, entry
    behaviors, resulting completion cascade). *)

val interp : t -> Asl.Interp.t

val metrics : t -> Telemetry.Metrics.t
(** The registry supplied at creation time. *)

val status : t -> status

val active_leaf_names : t -> string list
(** Sorted names of the innermost active states. *)

val is_in : t -> string -> bool
(** Is a state with this name active (at any depth)? *)

val send : t -> Event.t -> unit
(** Enqueue an event into the pool. *)

val step : t -> bool
(** Dispatch one pooled event (running the full run-to-completion
    cascade); [false] when the pool is empty or the machine stopped. *)

val dispatch : t -> Event.t -> unit
(** [send] followed by draining the pool. *)

val run_to_quiescence : t -> int
(** Dispatch pooled events until empty; returns the number processed. *)

val run_bounded : t -> budget:int -> [ `Quiescent of int | `Exhausted ]
(** Like {!run_to_quiescence} but with a step budget: [`Quiescent n]
    when the pool drained after [n] dispatches, [`Exhausted] when the
    budget ran out with events still pooled — the graceful verdict
    fault-injection campaigns classify as truncated instead of letting
    an injected event storm spin the engine unboundedly.
    @raise Invalid_argument on a negative budget. *)

val now : t -> int
val advance_time : t -> int -> unit
(** Advance the logical clock, firing due [after n] transitions (and
    their completion cascades) in due-time order. *)

val trace : t -> step_record list
(** Processed events oldest-first (includes internal completion and time
    events). *)

val signature : t -> string
(** Compact digest of the current configuration, e.g. ["Idle|Run.Fast"];
    used by differential tests. *)
