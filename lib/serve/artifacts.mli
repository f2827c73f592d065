(** A loaded model plus its memoized expensive derivations.

    This is the unit the serve cache holds: the first request that
    needs a derived artifact pays for it, every later request on the
    same cache entry gets the memo.  For [gen] the memo is the finished
    answer, so a warm [gen] derives and renders nothing, and the daemon
    splices the answer's stored JSON encoding into its response, so a
    warm hit escapes nothing either.  The accessors are domain-safe (a
    sharded lint request may touch one entry from several workers) and
    every memoized value is a pure function of the model, so memoization
    can never change output bytes — the property the serve-vs-CLI
    differential tests pin down.

    The third expensive artifact class, compiled ASL behaviors, needs no
    per-entry storage: [Asl.Compiled]'s process-global memo tables are
    warmed by the first engine construction and shared by every request
    (bounded LRU, see {!Asl.Compiled.set_memo_cap}). *)

(** One op's captured result: its stdout and stderr bytes and its exit
    code. *)
type rendered = {
  out : string;
  err : string;
  exit : int;
}

type answer
(** A memoized answer: its {!rendered} streams, plus their JSON
    encoding, made on first demand and kept. *)

val rendered : answer -> rendered

val encoded : answer -> Json.encoded * Json.encoded
(** The answer's [out] and [err] as JSON string literals
    ({!Json.encode}).  The first call encodes them under the owning
    entry's lock and stores them in the entry; later calls return the
    stored pair.  A caller that only prints the answer (the one-shot
    CLI) never calls this and pays for no encoded copy.  The stored
    pair (up to 6x the raw text, for control bytes) is not charged to
    the cache's byte budget ({!Cache}). *)

type t = private {
  model : Uml.Model.t;
  design : unit -> Mda.Generate.hw_result;
      (** The generated HDL design ([Mda.Generate.hw_design]), as lint
          sees it; computed once. *)
  rtl : Uml.Smachine.t -> (Dsim.Netlist.t, string) result;
      (** Flatten the machine, compile it to an FSM module and lower
          that to a compiled netlist; successes memoize per machine
          name.  [Error] carries the flatten/FSM-compile reason;
          lowering failures raise [Dsim.Netlist.Simulation_error]
          exactly like the uncached path (and are not memoized). *)
  petri : Uml.Activityg.t -> Petri.Net.t * Petri.Marking.t * Petri.Compiled.t;
      (** The activity's Petri translation plus its compiled form;
          memoized per activity (physical equality — activities come
          from [model]). *)
  lint_diags :
    key:string -> (unit -> Uml.Wfr.diagnostic list) -> Uml.Wfr.diagnostic list;
      (** Memoized lint diagnostics, keyed by the caller's rule-selection
          fingerprint.  The thunk must be a pure function of [model] and
          [key] (it is skipped on a memo hit, so side effects — e.g. a
          live metrics registry — must NOT flow through here; [analyze]
          keeps the uncached path for exactly that reason), and must not
          call this value's other accessors (the entry lock is held). *)
  gen : lang:string -> (unit -> rendered) -> answer;
      (** Memoized [gen] answer per target language: the rendered
          streams and exit code, failures included, with room for their
          {!encoded} form.  Same contract as [lint_diags]: the thunk is
          a pure function of [model] and [lang], runs under the entry
          lock, and a thunk that raises stores nothing. *)
}

val of_model : Uml.Model.t -> t
(** Wrap a model with empty memos.  Cheap: nothing is derived until an
    accessor runs. *)
