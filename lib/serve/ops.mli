(** The model-consuming subcommand bodies, shared verbatim by the
    one-shot CLI ([bin/socuml.ml]) and the serve daemon.

    Every op writes through a {!sink} instead of the process streams
    and returns the exit code, so the daemon can capture a request's
    stdout/stderr into its JSON response while the CLI keeps printing —
    one implementation, provably identical bytes (the serve-vs-CLI
    differential suite in [test/test_serve.ml] depends on this).

    Inputs arrive as {!Artifacts.t} (a model plus memoized derived
    artifacts): the CLI builds a fresh one per invocation, the daemon
    serves them from its content-hash cache.  Ops only read models and
    artifacts; the only filesystem writer is {!pack}. *)

(** Where an op's two output streams go. *)
type sink = {
  s_out : string -> unit;
  s_err : string -> unit;
}

val std_sink : sink
(** [stdout]/[stderr] — the one-shot CLI's sink. *)

val errl : sink -> string -> unit
(** One diagnostic line (appends the newline), as [prerr_endline]. *)

val guarded : sink -> (unit -> int) -> int
(** Last-resort guard for every op body: downstream failures on
    adversarial models (simulation, execution, generation) become
    one-line diagnostics on the sink's error stream and exit code 1,
    never crashes. *)

(** What an op body answers. *)
type reply =
  | Exit of int  (** the op wrote its streams through the sink *)
  | Stored of Artifacts.answer
      (** a memoized answer, written nowhere yet: the sink saw nothing *)

val guarded_reply : sink -> (unit -> reply) -> reply
(** {!guarded} for a body that answers a {!reply}; a caught failure
    answers [Exit 1]. *)

val replay : sink -> reply -> int
(** Write a [Stored] answer's streams through the sink; the exit code
    either way. *)

type format = [ `Text | `Json ]

type loader = string -> (Artifacts.t, string) result
(** How ops obtain a model: the CLI loads from disk, the daemon from
    its cache.  The error string is the one-line diagnostic. *)

val load_artifacts : string -> (Artifacts.t, string) result
(** The CLI's loader: {!Load.load_model} wrapped in fresh artifacts. *)

val with_artifacts : sink -> loader -> string -> (Artifacts.t -> int) -> int
(** Run the body on the loaded model, or report the load diagnostic
    and return 1 — the shared funnel keeping load errors identical
    across subcommands. *)

val selection_of :
  only:string list ->
  disable:string list ->
  (Lint.Rules.selection, string) result
(** Split comma-separated selector lists, build the rule selection, and
    reject unknown selectors with the standard diagnostic. *)

(** {1 Ops}

    [metrics] is the per-run registry: [None] means telemetry off;
    [Some reg] collects into [reg] and appends the rendered report to
    the output stream (the CLI and the daemon both pass a fresh one,
    built by {!Op_spec}). *)

val validate : sink -> format:format -> Artifacts.t -> int

val lint :
  sink ->
  format:format ->
  only:string list ->
  disable:string list ->
  no_hdl:bool ->
  jobs:int ->
  loader ->
  string list ->
  int

val info : sink -> Artifacts.t -> int

val gen : sink -> lang:string -> Artifacts.t -> int
(** Answered through [art.gen]: the first call per language derives and
    renders, later calls on the same artifacts replay the stored bytes
    and exit code. *)

val gen_reply : sink -> lang:string -> loader -> string -> reply
(** [gen] on the model at a path, as a reply: [Stored] with the memoized
    answer, or the load diagnostic and [Exit 1].  Only output made
    before an exception {!guarded} does not catch goes through the
    sink. *)

val simulate :
  ?budget:Exec.Budget.t ->
  sink ->
  machine:string option ->
  events:string ->
  metrics:Telemetry.Metrics.t option ->
  rtl:bool ->
  Artifacts.t ->
  int
(** [budget] (default {!Exec.Budget.unlimited}) cancels the [--rtl]
    path cooperatively — checkpointed per settle pass;
    {!Exec.Budget.Expired} propagates (it is deliberately outside
    {!guarded}'s net so the daemon can answer a typed timeout). *)

val trace :
  sink -> machine:string option -> events:string -> Artifacts.t -> int

val partition : sink -> budget:int -> Artifacts.t -> int

val analyze :
  ?budget:Exec.Budget.t ->
  sink ->
  metrics:Telemetry.Metrics.t option ->
  only:string list ->
  disable:string list ->
  jobs:int ->
  loader ->
  string ->
  int
(** Takes the loader (not pre-loaded artifacts) because unknown rule
    selectors must be rejected before the model is loaded, exactly as
    the CLI orders its diagnostics.  [budget] is checkpointed per
    explored marking in the Petri explorations. *)

val inject :
  ?budget:Exec.Budget.t ->
  sink ->
  machine:string option ->
  seed:int ->
  faults:int ->
  format:format ->
  metrics:Telemetry.Metrics.t option ->
  jobs:int ->
  Artifacts.t ->
  int
(** [budget] is checkpointed per fault and per cycle/event/step inside
    the campaign runs. *)

val pack : sink -> out:string option -> path:string -> Artifacts.t -> int
(** [path] is the input path the default output name derives from. *)
