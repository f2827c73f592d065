(** The lint driver: run every pass over a model (and optionally a
    generated HDL design), filter by rule selection, and return one
    deterministically ordered report.

    Diagnostics reuse the {!Uml.Wfr.diagnostic} shape, so lint output
    composes with well-formedness output in the CLI.

    [metrics] (default {!Telemetry.Metrics.null}) receives the
    dataflow tier's per-pass counters ([dataflow.asl.*],
    [dataflow.events.*], [dataflow.netlist.*]). *)

val check_model :
  ?selection:Rules.selection ->
  ?metrics:Telemetry.Metrics.t ->
  ?explore:(Uml.Activityg.t -> Petri.Analysis.exploration) ->
  Uml.Model.t ->
  Uml.Wfr.diagnostic list
(** ASL, statechart, activity, component and model-level dataflow
    passes over the model.  Sorted by (rule, element, message).
    [explore] is handed to {!Act_pass.check}. *)

val check_design :
  ?selection:Rules.selection ->
  ?metrics:Telemetry.Metrics.t ->
  Hdl.Module_.design ->
  Uml.Wfr.diagnostic list
(** HDL + netlist dataflow passes alone, over an already-generated
    design. *)

val check :
  ?selection:Rules.selection ->
  ?metrics:Telemetry.Metrics.t ->
  ?design:Hdl.Module_.design ->
  Uml.Model.t ->
  Uml.Wfr.diagnostic list
(** Model passes plus, when [design] is given, the HDL and netlist
    dataflow passes.  The caller derives the design (e.g.
    {!Mda.Generate.hw_design}); [lint] itself does not depend on the
    generators. *)
