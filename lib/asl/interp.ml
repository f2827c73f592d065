exception Runtime_error = Resolve.Runtime_error

type signal_out = Resolve.signal_out = {
  sig_name : string;
  sig_args : Value.t list;
  sig_target : Value.t option;
}

type t = Resolve.ctx
type body = Resolve.body

type method_impl = Resolve.method_impl =
  | Builtin of (t -> self:Value.t -> Value.t list -> Value.t)
  | Body of body

let create ?(fuel = 1_000_000) ?resolve ?attr_defaults
    ?(metrics = Telemetry.Metrics.null) store =
  let methods =
    match resolve with
    | Some r -> r
    | None -> fun _class _op -> None
  in
  let attr_defaults =
    match attr_defaults with
    | Some f -> f
    | None -> fun _class -> []
  in
  {
    Resolve.store;
    methods;
    attr_defaults;
    initial_fuel = fuel;
    fuel;
    signals = [];
    out_lines = [];
    metrics;
    m_stmts = Telemetry.Metrics.counter metrics "asl.statements";
    m_reads = Telemetry.Metrics.counter metrics "asl.store_reads";
    m_writes = Telemetry.Metrics.counter metrics "asl.store_writes";
  }

let store (t : t) = t.Resolve.store
let metrics (t : t) = t.Resolve.metrics

let body params prog = Resolve.body params (Compiled.program_code prog)

(* Every top-level run starts on a full tank and a fresh frame. *)
let frame ?(self_ = Value.V_null) (t : t) h =
  t.Resolve.fuel <- t.Resolve.initial_fuel;
  Resolve.new_frame t self_ h

let with_params fr h = function
  | None -> fr
  | Some params ->
    Resolve.bind_named fr h params;
    fr

let run_compiled ?self_ ?params t prog =
  let h = Compiled.program_code prog in
  Resolve.exec (with_params (frame ?self_ t h) h params) h

let eval ?self_ ?params t e =
  let h = Resolve.guard e in
  Resolve.eval (with_params (frame ?self_ t h) h params) h

let eval_guard_compiled ?self_ ?params t g =
  let h = Compiled.guard_code g in
  Resolve.as_bool (Resolve.eval (with_params (frame ?self_ t h) h params) h)

let event_frame ?self_ t h ~event ~args =
  let fr = frame ?self_ t h in
  Resolve.bind_event fr h ~event ~args;
  fr

let run_event ?self_ t prog ~event ~args =
  let h = Compiled.program_code prog in
  Resolve.exec (event_frame ?self_ t h ~event ~args) h

let eval_guard_event ?self_ t g ~event ~args =
  let h = Compiled.guard_code g in
  Resolve.as_bool (Resolve.eval (event_frame ?self_ t h ~event ~args) h)

let drain_signals (t : t) =
  let out = List.rev t.Resolve.signals in
  t.Resolve.signals <- [];
  out

let output (t : t) = List.rev t.Resolve.out_lines
