(** Integer-indexed compiled form of a flat RTL module.

    A string-keyed interpreter pays on every evaluation for what this
    module does {e once}, at compile time:

    - signals and ports are interned to dense integer indices
      (declaration order, ports first), with per-signal write masks;
    - every expression is compiled to a closure over the value array,
      with widths, masks and enum encodings resolved statically — the
      hot path never consults a type again;
    - every process carries a precomputed read set and write set, from
      which a signal→readers fanout map is derived for event-driven
      settling;
    - the combinational processes are levelized: when the
      process-dependency graph is acyclic, [nl_levels] holds a
      topological evaluation order under which one ordered pass
      settles; a cyclic graph (e.g. latch-style processes that read
      their own outputs) yields [None] and the engine falls back to
      bounded worklist iteration.

    Value semantics are locked to the reference interpreter in
    [test/oracles/sim.ml]: the differential qcheck suite in
    [test/test_dsim_fast.ml] asserts byte-equal snapshots between it
    and {!Fast} under random stimulus.  Compilation is stricter only
    about errors: names and enum literals that the interpreter rejects
    lazily at first evaluation are rejected eagerly at compile time
    (raising {!Simulation_error}). *)

exception Simulation_error of string
(** The RTL engines' one failure: an unresolved name, an unknown enum
    literal, an assignment to an undeclared target, or combinational
    logic that does not settle.  The message says which. *)

type body = int array -> (int -> int -> unit) -> unit
(** A compiled statement list: [body vals write] evaluates over the
    current value array, emitting [(signal index, raw value)] pairs
    through [write].  Masking to the target width is the writer's
    responsibility (see [nl_mask]). *)

type comb = {
  c_name : string;
  c_reads : int array;  (** signal indices read anywhere in the body *)
  c_writes : int array;  (** signal indices assigned anywhere *)
  c_body : body;
}

type seq = {
  q_name : string;
  q_clock : string;  (** rising-edge clock signal name *)
  q_reads : int array;
      (** signal indices read anywhere in the clocked body (the reset
          branch is excluded — clock-domain analysis cares about the
          data path, not the reset path) *)
  q_writes : int array;  (** signal indices assigned in the clocked body *)
  q_reset : (int * body) option;
      (** synchronous reset signal index and compiled reset body *)
  q_body : body;
}

type t = {
  nl_module : Hdl.Module_.t;  (** the module this was compiled from *)
  nl_names : string array;  (** dense index -> name, declaration order *)
  nl_types : Hdl.Htype.t array;
  nl_index : (string, int) Hashtbl.t;  (** name -> dense index *)
  nl_init : int array;  (** masked initial values *)
  nl_mask : int array;
      (** per-signal write mask; [-1] (identity) for widths >= 62 *)
  nl_comb : comb array;  (** process-list order *)
  nl_seq : seq array;  (** process-list order *)
  nl_fanout : int array array;
      (** signal index -> indices into [nl_comb] whose read set
          contains it, ascending *)
  nl_levels : int array option;
      (** topological order over [nl_comb] indices, or [None] when the
          comb dependency graph has a cycle *)
  nl_snapshot : int array;
      (** signal indices sorted by name, duplicates removed — the
          iteration order of {!Fast.snapshot} *)
}

val mask_bits : int -> int
(** All-ones mask for a width: [(1 lsl w) - 1], or [-1] (every bit) for
    [w >= 62] where the shift would overflow OCaml's native int. *)

val compile : Hdl.Module_.t -> t
(** @raise Simulation_error on unresolved signal names, unknown
    enum literals, or assignments to undeclared targets — the same
    failures the interpreter reports, surfaced eagerly.  Callers must
    treat every array of the result as read-only. *)

val index : t -> string -> int option
(** Dense index of a signal or port name. *)
