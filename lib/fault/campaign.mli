(** Fault-injection campaigns and resilience verification.

    A campaign executes a golden (fault-free) run per engine family,
    then one injected variant per planned fault, and classifies each
    variant against the golden run from its final state and how it
    stopped.  A run returns exactly what its classifier reads:

    - RTL ({!rtl_run}, {!classify_rtl}): the simulation diagnostic,
      then the {!Dsim.Fast} snapshot after the last completed cycle;
    - statecharts ({!sc_run}, {!classify_sc}): the model error, the
      dispatch budget flag, the final status, then the configuration
      signature after the last delivered event;
    - activities ({!act_run}, {!classify_act}): the stop reason and
      the final marking;
    - Petri nets ({!net_run}, {!classify_net}): the step budget flag,
      the final marking, the net's P-invariants evaluated on both final
      markings (the runtime monitor), then the deadlock flag.

    {2 Outcome taxonomy}

    - {e masked} — the injected run converged to the golden final
      state: the fault was absorbed by the design.
    - {e detected} — an explicit mechanism surfaced the fault: a
      non-settling diagnostic from the RTL engine, a statechart
      [Model_error] or status divergence, a token-engine deadlock where
      the golden run completed, or a violated P-invariant.
    - {e silent} — the run completed unremarkably with corrupted final
      state: silent data corruption, the outcome campaigns exist to
      count.
    - {e truncated} — a resource guard (dispatch or step budget)
      expired before the run finished; no verdict on the state.

    {2 Determinism}

    Every run is driven by seeded {!Workload.Prng} choices and logical
    clocks: the same plan over the same specs yields a byte-identical
    {!to_text} / {!to_json} report, across processes and machines
    (enforced by [test/test_fault.ml] and the [@inject-demo] golden
    gate).  A campaign over {!Plan.empty} reproduces the golden
    artifacts byte-for-byte in every engine family (the qcheck identity
    property). *)

type outcome =
  | Masked
  | Detected of string  (** what surfaced, e.g. ["p-invariant violated"] *)
  | Silent
  | Truncated of string  (** which budget expired *)
[@@deriving eq, show]

(** {1 RTL campaigns — compiled discrete-event engine} *)

type rtl_spec = {
  rs_module : Hdl.Module_.t;  (** flat module, compiled via {!Dsim.Netlist} *)
  rs_clock : string;
  rs_reset : string option;  (** pulsed for one edge before cycle 0 *)
  rs_stimulus : (int * (string * int) list) list;
      (** inputs applied just before the edge of the given cycle *)
  rs_cycles : int;
  rs_settle_budget : int;  (** worklist rounds per settle (see {!Dsim.Fast}) *)
}

type rtl_run = {
  rr_final : (string * int) list;
      (** {!Dsim.Fast.snapshot} after the last completed cycle; [[]]
          when no cycle completed (lowering failed, an error on the
          reset edge or in the first cycle, zero cycles) *)
  rr_error : string option;
      (** simulation diagnostic that stopped the run, if any *)
}

val rtl_run :
  ?metrics:Telemetry.Metrics.t ->
  ?budget:Exec.Budget.t ->
  rtl_spec ->
  Plan.rtl_fault list ->
  rtl_run
(** Execute the stimulus with the given faults injected ([[]] = golden
    run), lowering [rs_module] first ({!run} lowers it once per
    campaign).  Bit flips are forced once after the target edge; stuck-at
    faults are re-forced after every edge from their start cycle.
    [budget] (default {!Exec.Budget.unlimited}) is checkpointed once
    per cycle (and per settle pass inside the simulator);
    {!Exec.Budget.Expired} propagates — it is never folded into
    [rr_error]. *)

val classify_rtl : golden:rtl_run -> rtl_run -> outcome
(** [Detected] when [rr_error] is set, else [Masked] when the final
    snapshots are equal, else [Silent]. *)

(** {1 Statechart campaigns — event-stream perturbation} *)

type sc_spec = {
  ss_machine : Uml.Smachine.t;
  ss_events : string list;  (** golden stimulus, dispatch order *)
  ss_budget : int;  (** run-to-completion dispatch budget per event *)
}

type sc_run = {
  sc_final : string;
      (** {!Statechart.Engine.signature} after the last delivered event;
          [""] when none was delivered (every event dropped, or a
          [Model_error] in [start] or in the first event) *)
  sc_status : string;  (** final engine status, rendered *)
  sc_error : string option;  (** [Model_error] diagnostic, if raised *)
  sc_truncated : bool;  (** a dispatch exhausted [ss_budget] *)
}

val perturb_events : Plan.statechart_fault list -> string list -> string list
(** Apply drop/duplicate/spurious faults to a stimulus.  Indices refer
    to the original list; out-of-range indices leave it unchanged. *)

val sc_run :
  ?metrics:Telemetry.Metrics.t ->
  ?budget:Exec.Budget.t ->
  sc_spec ->
  Plan.statechart_fault list ->
  sc_run
(** [budget] is checkpointed once per delivered event. *)

val classify_sc : golden:sc_run -> sc_run -> outcome

(** {1 Token campaigns — activity engine} *)

type act_spec = {
  ac_activity : Uml.Activityg.t;
  ac_choice_seed : int;  (** seed for the enabled-firing choice *)
  ac_max_steps : int;
}

type act_run = {
  ar_tokens : (string * int) list;  (** final marking, sorted *)
  ar_stop : string;  (** ["completed"], ["stuck"] or ["exhausted"] *)
}

val act_run :
  ?metrics:Telemetry.Metrics.t ->
  ?budget:Exec.Budget.t ->
  act_spec ->
  Plan.token_fault list ->
  act_run
(** Steps the activity engine one seeded choice at a time, applying
    each token fault to the marking just before its target step.
    [budget] is checkpointed once per step. *)

val classify_act : golden:act_run -> act_run -> outcome
(** [Truncated] when the injected run [exhausted] its steps, [Detected]
    when it got [stuck] where the golden run [completed], [Masked] when
    [ar_tokens] and [ar_stop] both match, else [Silent]. *)

(** {1 Token campaigns — Petri net} *)

type net_spec = {
  np_net : Petri.Net.t;
  np_marking : Petri.Marking.t;  (** initial marking *)
  np_choice_seed : int;
  np_max_steps : int;
}

type net_run = {
  nr_final : (string * int) list;  (** final marking, sorted *)
  nr_deadlocked : bool;  (** ended with no transition enabled *)
  nr_truncated : bool;
}

val net_run :
  ?metrics:Telemetry.Metrics.t ->
  ?budget:Exec.Budget.t ->
  net_spec ->
  Plan.token_fault list ->
  net_run
(** [budget] is checkpointed once per step. *)

val classify_net : net_spec -> golden:net_run -> net_run -> outcome
(** Needs the spec: detection includes evaluating the net's
    P-invariants (computed once per call) against both final
    markings. *)

(** {1 Campaign orchestration} *)

type run = {
  run_index : int;  (** position in the plan, 0-based *)
  run_domain : string;  (** ["rtl"], ["statechart"], ["activity"], ["petri"] *)
  run_fault : Plan.fault;
  run_outcome : outcome;
}

type report = {
  rp_label : string;  (** model name or campaign label *)
  rp_plan : Plan.t;
  rp_runs : run list;  (** plan order; token faults yield one run per
                           available token backend *)
  rp_skipped : (Plan.fault * string) list;
      (** faults with no executable domain in this campaign *)
}

type totals = {
  t_injected : int;
  t_masked : int;
  t_detected : int;
  t_silent : int;
  t_truncated : int;
}

val run :
  ?metrics:Telemetry.Metrics.t ->
  ?budget:Exec.Budget.t ->
  ?pool:Exec.Pool.t ->
  ?rtl:rtl_spec ->
  ?statechart:sc_spec ->
  ?activity:act_spec ->
  ?net:net_spec ->
  label:string ->
  Plan.t ->
  report
(** Execute the campaign: one golden run per supplied spec, then the
    plan's faults in order against their domain (token faults against
    both token backends when both are supplied).  [metrics] receives
    the [fault.injected] / [fault.masked] / [fault.detected] /
    [fault.silent] / [fault.truncated] counters, one ["fault/run"] span
    per injected run, and one structured ["fault/injected"] event per
    run when live.

    With [pool] (and [Exec.Pool.jobs pool > 1]) the injected variants
    are sharded across the pool's domains — golden runs and artifacts
    are shared read-only, each variant records into a
    {!Telemetry.Metrics.fork}, and results merge back in plan order.
    The report and the metrics report are byte-identical at every job
    count (enforced by [test/test_parallel.ml] and the jobs-4 leg of
    the [@inject-demo] golden gate).

    [budget] (default {!Exec.Budget.unlimited}) is checkpointed before
    each fault and at each cycle/event/step inside the per-domain
    runs; {!Exec.Budget.Expired} propagates to the caller (via the
    pool's lowest-index exception rule when sharded) with no report
    produced — the campaign is all-or-nothing under cancellation. *)

val totals : report -> totals

val coverage : totals -> float
(** Detected fraction of the non-masked outcomes,
    [detected / (injected - masked)]; [1.0] when every injected fault
    was masked (nothing needed detecting). *)

val to_text : report -> string
(** Deterministic human-readable report: plan, per-run outcomes,
    summary counts and coverage. *)

val to_json : report -> string
(** The same content as a stable JSON object, [coverage] rounded to six
    significant digits, printed by {!Sjson.Json.to_report}: the escaper
    and layout every report shares. *)
