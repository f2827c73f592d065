(** Reference interpreter for flat RTL modules: the oracle that
    [Dsim.Fast] is differentially tested against ([test_dsim_fast],
    [test_iplib]) and timed against (bench E14).

    Executes the output of {!Hdl.Elaborate.flatten}: combinational
    processes settle through delta cycles (re-evaluated until no signal
    changes); sequential processes sample current values on
    {!clock_edge} and commit next values atomically, like non-blocking
    assignment.

    The simulator counts events (process evaluations and effective
    signal updates) for the performance experiments.  Every failure
    raises [Dsim.Netlist.Simulation_error], the production engine's
    exception, so differentials compare errors as well as values. *)

type t

val create : ?metrics:Telemetry.Metrics.t -> Hdl.Module_.t -> t
(** @raise Dsim.Netlist.Simulation_error when the module has unresolved
    names or a combinational loop prevents settling.  [metrics] (default
    {!Telemetry.Metrics.null}) receives the [dsim.events] and
    [dsim.delta_cycles] counters. *)

val module_of : t -> Hdl.Module_.t

val get : t -> string -> int
(** Current value of a signal or port.
    @raise Dsim.Netlist.Simulation_error for unknown names. *)

val get_enum : t -> string -> string
(** Current value of an enum-typed signal, as its literal name. *)

val set_input : t -> string -> int -> unit
(** Drive an input port (masked to the port width); combinational logic
    settles immediately. *)

val clock_edge : t -> string -> unit
(** One rising edge of the named clock: run all sequential processes on
    that clock, commit, settle combinational logic. *)

val cycle : ?inputs:(string * int) list -> t -> string -> unit
(** [cycle t clk] = apply inputs, then one {!clock_edge}. *)

val run : t -> clock:string -> cycles:int -> unit

val events : t -> int
(** Total events processed so far. *)

val delta_cycles : t -> int
(** Total delta cycles used by settling so far. *)

val metrics : t -> Telemetry.Metrics.t
(** The registry supplied at creation time. *)

val signals : t -> (string * Hdl.Htype.t) list
(** All simulated signals (ports first), declaration order. *)

val snapshot : t -> (string * int) list
(** All current values, sorted by name (order precomputed at creation,
    so each call is a single linear walk). *)

val probe : t -> Dsim.Probe.t
(** Read-only view for the [Dsim.Vcd] and [Dsim.Timing] renderers
    ([of_probe]). *)
