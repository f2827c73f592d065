(** Compiled event-driven simulator for flat RTL modules.

    The production RTL engine, built on {!Netlist}: the
    module is lowered once to an integer-indexed netlist, and settling
    is sensitivity-driven — a signal→fanout map feeds only the
    combinational processes whose read set actually changed, instead of
    re-evaluating every process per delta cycle.  When the
    combinational dependency graph is acyclic (the common case for
    generated designs) one topologically ordered pass settles; cyclic
    graphs fall back to bounded worklist iteration with the same
    1000-round divergence guard as the reference.

    The string-keyed interpreter it replaced lives on as the
    differential-testing oracle [test/oracles/sim.ml]:
    [test/test_dsim_fast.ml] and [test/test_iplib.ml] assert byte-equal
    {!snapshot}s between the two engines, and E14 (bench) measures the
    throughput gap.

    {2 Telemetry semantics}

    The counters mirror the reference engine's names but count what the
    compiled engine actually does:

    - [dsim.events] — combinational/sequential process evaluations
      {e performed} plus effective signal updates (value actually
      changed).  Because settling skips clean processes, this grows
      slower than the reference engine's counter on the same stimulus.
    - [dsim.delta_cycles] — settling passes: exactly one per settle in
      levelized mode, one per worklist generation in fallback mode.
    - [dsim.skipped_evals] — process evaluations the all-processes
      reference strategy would have performed but event-driven settling
      skipped (per pass: processes minus evaluations).

    All three are monotonically non-decreasing over the life of the
    simulator; the test suite asserts this. *)

type t

val create :
  ?metrics:Telemetry.Metrics.t ->
  ?settle_budget:int ->
  ?budget:Exec.Budget.t ->
  Hdl.Module_.t ->
  t
(** Compile and settle.  [metrics] (default {!Telemetry.Metrics.null})
    receives the [dsim.events], [dsim.delta_cycles] and
    [dsim.skipped_evals] counters.  [settle_budget] (default 1000)
    bounds the worklist-fallback rounds per settle for cyclic comb
    graphs; exceeding it raises a [Netlist.Simulation_error] that names the
    still-unstable signals.  [budget] (default
    {!Exec.Budget.unlimited}) is checkpointed once per settle pass —
    every [set_input]/[clock_edge]/[cycle] step, and the initial
    settle — so a cancelled simulation unwinds with
    {!Exec.Budget.Expired} before the next pass starts.
    @raise Netlist.Simulation_error when the module has unresolved names or
    unknown enum literals (reported eagerly, at compile time), or when
    a combinational loop prevents settling within the budget.
    @raise Invalid_argument when [settle_budget <= 0]. *)

val of_netlist :
  ?metrics:Telemetry.Metrics.t ->
  ?settle_budget:int ->
  ?budget:Exec.Budget.t ->
  Netlist.t ->
  t
(** {!create} from an already-compiled netlist, skipping the lowering
    entirely — the warm path of the [socuml serve] artifact cache.  The
    netlist is shared, never mutated: simulator state lives in a
    private copy of the value array, so any number of simulators can
    run over one compiled netlist.
    @raise Netlist.Simulation_error when a combinational loop prevents the
    initial settle within the budget.
    @raise Invalid_argument when [settle_budget <= 0]. *)

val module_of : t -> Hdl.Module_.t

val get : t -> string -> int
(** Current value of a signal or port.
    @raise Netlist.Simulation_error for unknown names. *)

val get_enum : t -> string -> string
(** Current value of an enum-typed signal, as its literal name. *)

val set_input : t -> string -> int -> unit
(** Drive an input port (masked to the port width); affected
    combinational logic settles immediately. *)

val force : t -> string -> int -> unit
(** Fault-injection write: like {!set_input} but intended for any
    signal, including registers and comb-driven wires.  A forced value
    on a comb-driven signal only survives until its driver re-evaluates
    — transient-fault semantics.  Forcing a register flips stored state
    until the next clock edge overwrites it.
    @raise Netlist.Simulation_error for unknown names. *)

val clock_edge : t -> string -> unit
(** One rising edge of the named clock: run all sequential processes on
    that clock, commit atomically, settle affected combinational
    logic. *)

val cycle : ?inputs:(string * int) list -> t -> string -> unit
(** [cycle t clk] = apply inputs, then one {!clock_edge}. *)

val run : t -> clock:string -> cycles:int -> unit

val events : t -> int
(** Evaluations performed + effective updates so far (see the telemetry
    note above). *)

val delta_cycles : t -> int
(** Settling passes so far. *)

val skipped_evals : t -> int
(** Evaluations avoided by event-driven settling so far. *)

val levelized : t -> bool
(** Whether the one-pass topological settling strategy is active
    (false: worklist fallback for a cyclic comb graph). *)

val metrics : t -> Telemetry.Metrics.t
(** The registry supplied at creation time. *)

val signals : t -> (string * Hdl.Htype.t) list
(** All simulated signals (ports first), declaration order. *)

val snapshot : t -> (string * int) list
(** All current values, sorted by name — byte-compatible with the
    reference interpreter's [snapshot]. *)

val probe : t -> Probe.t
(** Read-only view for the {!Vcd} and {!Timing} renderers. *)
