(** A loaded model plus its memoized expensive derivations.

    This is the unit the serve cache holds: the first request that
    needs a derived artifact pays for it, every later request on the
    same cache entry gets the memo.  For [gen] the memo is the finished
    answer, so a warm [gen] derives and renders nothing.  The accessors are domain-safe (a
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
  gen : lang:string -> (unit -> rendered) -> rendered;
      (** Memoized [gen] output per target language: the rendered
          streams and exit code, failures included.  Same contract as
          [lint_diags]: the thunk is a pure function of [model] and
          [lang], runs under the entry lock, and a thunk that raises
          stores nothing. *)
}

val of_model : Uml.Model.t -> t
(** Wrap a model with empty memos.  Cheap: nothing is derived until an
    accessor runs. *)
