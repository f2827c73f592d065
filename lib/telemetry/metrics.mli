(** Metrics registry and structured event sink.

    One registry is shared by every engine participating in a run:
    engines look up named instruments once at creation time and bump
    them on their hot paths.  Instruments are monotonic counters, gauges
    (last value + high-water mark), span statistics (count/total/max
    duration under the registry's {!Clock}), and a bounded structured
    event log (a {!Ring}).

    The rendered {!report} is sorted by instrument name and contains no
    wall-clock input when the registry uses a deterministic clock, so it
    is byte-for-byte reproducible — the property the CLI and the tests
    rely on.

    A registry created with {!disabled} (and the shared {!null}) turns
    every operation into a cheap branch, which is what the E11 bench
    measures instrumentation overhead against. *)

type t

type counter
type gauge

(** A typed field of a structured event. *)
type field =
  | F_int of int
  | F_bool of bool
  | F_str of string

type event = {
  ev_seq : int;  (** 0-based emission index *)
  ev_tick : int;  (** registry clock reading at emission *)
  ev_scope : string;  (** emitting subsystem, e.g. ["statechart"] *)
  ev_name : string;
  ev_fields : (string * field) list;
}

val create : ?clock:Clock.t -> ?event_capacity:int -> unit -> t
(** A live registry.  [clock] defaults to {!Clock.counting} (logical,
    deterministic); [event_capacity] (default 4096) bounds the event
    ring. *)

val disabled : unit -> t
(** A registry that records nothing: counters, gauges, spans and events
    all no-op. *)

val null : t
(** A shared disabled registry — the default instrument target for
    engines created without explicit telemetry. *)

val live : t -> bool
(** [false] exactly for disabled registries; lets callers skip building
    expensive event payloads. *)

val counter : t -> string -> counter
(** Find or register the named counter. *)

val incr : ?by:int -> counter -> unit
val counter_value : counter -> int

val gauge : t -> string -> gauge
val set_gauge : gauge -> int -> unit
(** Record the current level; the maximum ever set is kept as well. *)

val gauge_value : gauge -> int
val gauge_max : gauge -> int

val span : t -> string -> (unit -> 'a) -> 'a
(** Run the thunk, charging its clock-tick duration to the named span
    statistic (also on exception). *)

val event : t -> scope:string -> string -> (string * field) list -> unit
(** Append a structured event to the ring (dropped when full or when
    the registry is disabled). *)

val event_lazy :
  t -> scope:string -> string -> (unit -> (string * field) list) -> unit
(** {!event} with the fields built only when the ring keeps the event:
    a ring of capacity 0 still advances the sequence number, reads the
    clock once and counts the event dropped, exactly as {!event}. *)

val events : t -> event list
(** Retained events, oldest first. *)

val events_dropped : t -> int

val render_event : event -> string
(** One-line rendering, e.g.
    ["000012 @34 statechart/step event=toggle fired=1"]. *)

val report : t -> string
(** The full deterministic metrics report: counters, gauges and spans
    sorted by name, then an event-volume summary line. *)

(** {1 Accumulate-then-merge}

    The parallel fan-outs ({!Fault.Campaign}, {!Petri.Compiled}, the
    CLI) never share one registry across domains.  Each task records
    into its own {!fork} and the caller folds the forks back with
    {!merge_into} in task order — so with a counting clock the merged
    registry {!report}s byte-for-byte what a sequential run over the
    same tasks would have produced, at any domain count. *)

val fork : t -> t
(** A fresh live registry suitable for one parallel task: same event
    capacity as the parent, its own {!Clock.counting} clock (span
    durations under a counting clock are relative, so they merge
    exactly).  Forking a disabled registry returns {!null}. *)

val merge_into : into:t -> t -> unit
(** [merge_into ~into src] folds a fork back: counters and span
    statistics add, span/gauge maxima combine, gauges written in [src]
    overwrite [into]'s last value (call in task order — last writer
    wins, as it would sequentially), and [src]'s retained events are
    appended with re-assigned sequence numbers ([src] drop counts carry
    over, so recorded+dropped is conserved).  Event {e ticks} stay
    task-local — only event counts, never merged ticks, appear in
    {!report}.  No-op when either side is disabled. *)
