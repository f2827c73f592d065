(* The traced run: the request stream replayed in-process, with spans.

   Each request gets a root span around [Serve.Daemon.handle_line] on
   an in-process daemon primed exactly like the piped one.  Nothing
   inside the library is instrumented, so the child spans are replays
   of the public calls the daemon makes for that request, on the same
   inputs and in the same cache state: a shadow [Serve.Cache] sees the
   same load sequence as the daemon's, and the op body runs on the
   shadow's artifacts, whose memos are exactly as warm as the daemon's
   were.  A layer's self time is its span's duration minus its direct
   children's durations; the root's self time is what the replays do
   not account for ([daemon.unattributed_us]). *)

open Workloads

(* --- spans and counters ------------------------------------------------ *)

type span = {
  sp_id : int;
  sp_name : string;
  sp_req : int;
  sp_parent : int;  (** -1 for a root *)
  sp_start : int64;  (** ns, monotonic *)
  sp_stop : int64;
}

type recorder = {
  mutable spans : span list;
  mutable next_id : int;
  counters : (string, float) Hashtbl.t;
}

let recorder () = { spans = []; next_id = 0; counters = Hashtbl.create 32 }

(* Time [f], which receives the new span's id (the parent of anything
   it records) and returns its result plus the span's name.  A major GC
   slice runs first, untimed: the replays roughly double the
   allocation of the traced run, and without it each span would pay
   for collection work its predecessors left behind. *)
let record rc ~req ~parent f =
  let id = rc.next_id in
  rc.next_id <- id + 1;
  ignore (Gc.major_slice 0);
  let t0 = Monotonic_clock.now () in
  let v, name = f id in
  let t1 = Monotonic_clock.now () in
  rc.spans <-
    { sp_id = id; sp_name = name; sp_req = req; sp_parent = parent; sp_start = t0; sp_stop = t1 }
    :: rc.spans;
  v

let span rc ~req ~parent name f = record rc ~req ~parent (fun id -> (f id, name))

let count rc name v =
  Hashtbl.replace rc.counters name (v +. Option.value (Hashtbl.find_opt rc.counters name) ~default:0.)

let counter rc name = Option.value (Hashtbl.find_opt rc.counters name) ~default:0.
let dur_us s = Int64.to_float (Int64.sub s.sp_stop s.sp_start) *. 1e-3

(* --- shadow state ------------------------------------------------------- *)

(* What the shadow cache's artifacts have already derived, keyed by
   content key: a request replays a derivation only when the daemon's
   memo would have computed it for that request. *)
type shadow = {
  cache : Serve.Cache.t;
  designs : (string, Mda.Generate.hw_result) Hashtbl.t;
  diags : (string, Uml.Wfr.diagnostic list) Hashtbl.t;
  netlists : (string, (Dsim.Netlist.t, string) result) Hashtbl.t;
  nets : (string, Petri.Net.t * Petri.Marking.t * Petri.Compiled.t) Hashtbl.t;
}

let shadow () =
  {
    cache = Serve.Cache.create ();
    designs = Hashtbl.create 8;
    diags = Hashtbl.create 8;
    netlists = Hashtbl.create 8;
    nets = Hashtbl.create 8;
  }

let forget sh key =
  let drop tbl =
    let stale = Hashtbl.fold (fun k _ acc -> if String.starts_with ~prefix:key k then k :: acc else acc) tbl [] in
    List.iter (Hashtbl.remove tbl) stale
  in
  drop sh.designs;
  drop sh.diags;
  drop sh.netlists;
  drop sh.nets

(* Memo lookup that replays (under a span) on a first use. *)
let memo tbl k ~replay =
  match Hashtbl.find_opt tbl k with
  | Some v -> v
  | None ->
    let v = replay () in
    Hashtbl.add tbl k v;
    v

(* --- per-op replays ----------------------------------------------------- *)

let choose_machine m machine =
  let machines = Uml.Model.state_machines m in
  match machine with
  | Some name -> List.find_opt (fun sm -> sm.Uml.Smachine.sm_name = name) machines
  | None -> (
    match machines with
    | sm :: _rest -> Some sm
    | [] -> None)

let split_events events = if events = "" then [] else String.split_on_char ',' events

type ctx = {
  rc : recorder;
  sh : shadow;
  req : int;
  key : string;  (** content key of the request's model *)
  model : Uml.Model.t;
  expected : Reference.outcome;
  mutable mismatches : int;  (** replays whose rendering differs from the reference *)
}

let expect ctx rendered = if rendered <> ctx.expected.Reference.output then ctx.mismatches <- ctx.mismatches + 1
let sp ctx ~parent name f = span ctx.rc ~req:ctx.req ~parent name f

let design ctx ~parent =
  memo ctx.sh.designs ctx.key ~replay:(fun () ->
      sp ctx ~parent "derive.design" (fun _ -> Mda.Generate.hw_design ctx.model))

let lint_passes ctx ~parent ?design m =
  let pass name f = ignore (sp ctx ~parent name (fun _ -> f ())) in
  pass "lint.asl" (fun () -> Lint.Asl_pass.check m);
  pass "lint.sc" (fun () -> Lint.Sc_pass.check m);
  pass "lint.act" (fun () -> Lint.Act_pass.check m);
  pass "lint.comp" (fun () -> Lint.Comp_pass.check m);
  pass "lint.df" (fun () ->
      Lint.Df_pass.check_model m
      @
      match design with
      | Some d -> Lint.Df_pass.check_design d
      | None -> []);
  match design with
  | Some d -> pass "lint.hdl" (fun () -> Lint.Hdl_pass.check_design d)
  | None -> ()

let lint_check ctx ~parent ?design m run =
  let diags, id = sp ctx ~parent "lint.check" (fun id -> (run (), id)) in
  lint_passes ctx ~parent:id ?design m;
  count ctx.rc "lint.calls" 1.;
  count ctx.rc "lint.diagnostics" (float_of_int (List.length diags));
  diags

let render ctx ~parent f =
  let text = sp ctx ~parent "render" (fun _ -> f ()) in
  count ctx.rc "render.calls" 1.;
  count ctx.rc "render.bytes" (float_of_int (String.length text));
  text

let replay_lint ctx ~parent =
  let m = ctx.model in
  let design () = (design ctx ~parent).Mda.Generate.design in
  let diags =
    memo ctx.sh.diags ctx.key ~replay:(fun () ->
        let design = design () in
        lint_check ctx ~parent ?design m (fun () -> Lint.Check.check ?design m))
  in
  expect ctx (render ctx ~parent (fun () -> Lint.Report.to_text ~model:(Uml.Model.name m) diags))

let netlist ctx ~parent (sm : Uml.Smachine.t) =
  memo ctx.sh.netlists (ctx.key ^ "|rtl|" ^ sm.Uml.Smachine.sm_name) ~replay:(fun () ->
      match sp ctx ~parent "derive.flatten" (fun _ -> Statechart.Flatten.flatten sm) with
      | Error reason -> Error reason
      | Ok flat -> (
        match sp ctx ~parent "derive.fsm_compile" (fun _ -> Codegen.Fsm_compile.compile flat) with
        | Error reason -> Error reason
        | Ok hmod -> Ok (sp ctx ~parent "derive.netlist" (fun _ -> Dsim.Netlist.compile hmod))))

let petri ctx ~parent (act : Uml.Activityg.t) =
  memo ctx.sh.nets (ctx.key ^ "|petri|" ^ act.Uml.Activityg.ac_id) ~replay:(fun () ->
      sp ctx ~parent "derive.petri" (fun _ ->
          let net, m0 = Activity.Translate.to_petri act in
          (net, m0, Petri.Compiled.of_net net)))

let replay_rtl ctx ~parent sm events =
  match netlist ctx ~parent sm with
  | Error _reason -> ()
  | Ok nl ->
    let sim = Dsim.Fast.of_netlist nl in
    let out = Buffer.create 256 in
    let edge () = sp ctx ~parent "dsim.clock_edge" (fun _ -> Dsim.Fast.clock_edge sim "clk") in
    Dsim.Fast.set_input sim "rst" 1;
    edge ();
    Dsim.Fast.set_input sim "rst" 0;
    Printf.bprintf out "start: %s\n" (Dsim.Fast.get_enum sim "state");
    List.iter
      (fun ev ->
        let port = Codegen.Fsm_compile.event_input ev in
        Dsim.Fast.set_input sim port 1;
        edge ();
        Dsim.Fast.set_input sim port 0;
        Printf.bprintf out "%s: %s\n" ev (Dsim.Fast.get_enum sim "state"))
      events;
    count ctx.rc "dsim.cycles" (float_of_int (1 + List.length events));
    count ctx.rc "dsim.events" (float_of_int (Dsim.Fast.events sim));
    count ctx.rc "dsim.delta_cycles" (float_of_int (Dsim.Fast.delta_cycles sim));
    count ctx.rc "dsim.skipped_evals" (float_of_int (Dsim.Fast.skipped_evals sim));
    expect ctx (Buffer.contents out)

let replay_statechart ctx ~parent sm events =
  let interp = Asl.Interp.create (Asl.Store.create ()) in
  let engine = Statechart.Engine.create ~interp sm in
  let out = Buffer.create 4096 in
  Statechart.Engine.start engine;
  Printf.bprintf out "start: %s\n" (Statechart.Engine.signature engine);
  List.iter
    (fun ev ->
      sp ctx ~parent "statechart.dispatch" (fun _ ->
          Statechart.Engine.dispatch engine (Statechart.Event.make ev));
      Printf.bprintf out "%s: %s\n" ev (Statechart.Engine.signature engine))
    events;
  count ctx.rc "statechart.events" (float_of_int (List.length events));
  expect ctx (Buffer.contents out)

let replay_gen ctx ~parent lang =
  let plat =
    match lang with
    | "vhdl" -> Mda.Platform.asic_vhdl
    | "verilog" -> Mda.Platform.fpga_verilog
    | "systemc" -> Mda.Platform.virtual_systemc
    | _c -> Mda.Platform.sw_c
  in
  let psm, _trace = sp ctx ~parent "mda.to_psm" (fun _ -> Mda.Mapping.to_psm plat ctx.model) in
  let files = sp ctx ~parent "codegen.emit" (fun _ -> Mda.Generate.artifacts plat psm) in
  count ctx.rc "codegen.calls" 1.;
  count ctx.rc "codegen.bytes"
    (float_of_int (List.fold_left (fun n (_file, text) -> n + String.length text) 0 files))

let replay_analyze ctx ~parent =
  let m = ctx.model in
  Exec.Pool.with_pool ~jobs (fun pool ->
      List.iter
        (fun act ->
          let net, m0, compiled = petri ctx ~parent act in
          ignore
            (sp ctx ~parent "petri.coverability" (fun _ -> Petri.Coverability.is_bounded net m0));
          let r =
            sp ctx ~parent "petri.reach" (fun _ ->
                Petri.Analysis.reachable ~limit:5000 ~pool ~compiled net m0)
          in
          count ctx.rc "petri.states" (float_of_int r.Petri.Analysis.state_count);
          ignore (sp ctx ~parent "petri.invariants" (fun _ -> Petri.Invariant.p_invariants net)))
        (Uml.Model.activities m));
  ignore (lint_check ctx ~parent m (fun () -> Lint.Check.check_model m))

(* The fault surface and specs of [Serve.Ops.inject], rebuilt from the
   same inputs so the campaign can be timed on its own. *)
let machine_event_alphabet (sm : Uml.Smachine.t) =
  let module S = Uml.Smachine in
  List.sort_uniq String.compare
    (List.concat_map
       (fun (tr : S.transition) ->
         List.filter_map
           (fun trg ->
             match trg with
             | S.Signal_trigger name -> Some name
             | S.Time_trigger _ | S.Any_trigger | S.Completion -> None)
           tr.S.tr_triggers)
       (S.all_transitions sm))

let replay_inject ctx ~parent ~machine ~seed ~faults =
  let m = ctx.model in
  let stimulus_length = 16 in
  let sm =
    match choose_machine m machine with
    | Some sm when machine_event_alphabet sm <> [] -> Some sm
    | Some _ | None -> None
  in
  let alphabet = Option.fold ~none:[] ~some:machine_event_alphabet sm in
  let events =
    match alphabet with
    | [] -> []
    | alphabet ->
      let rng = Workload.Prng.create (seed lxor 0x5bd1) in
      List.init stimulus_length (fun _i -> Workload.Prng.pick rng alphabet)
  in
  let sc_spec =
    Option.map
      (fun sm -> { Fault.Campaign.ss_machine = sm; ss_events = events; ss_budget = 1000 })
      sm
  in
  let rtl_spec =
    Option.bind sm (fun sm ->
        match netlist ctx ~parent sm with
        | Error _reason -> None
        | Ok nl ->
          let strobe ev = Codegen.Fsm_compile.event_input ev in
          let stimulus =
            List.mapi
              (fun i ev ->
                let clear = if i = 0 then [] else [ (strobe (List.nth events (i - 1)), 0) ] in
                (i, clear @ [ (strobe ev, 1) ]))
              events
          in
          Some
            {
              Fault.Campaign.rs_module = nl.Dsim.Netlist.nl_module;
              rs_clock = "clk";
              rs_reset = Some "rst";
              rs_stimulus = stimulus;
              rs_cycles = stimulus_length;
              rs_settle_budget = 1000;
            })
  in
  let act_spec, net_spec =
    match Uml.Model.activities m with
    | [] -> (None, None)
    | act :: _rest ->
      let net, m0, _compiled = petri ctx ~parent act in
      ( Some { Fault.Campaign.ac_activity = act; ac_choice_seed = seed; ac_max_steps = 10_000 },
        Some
          { Fault.Campaign.np_net = net; np_marking = m0; np_choice_seed = seed; np_max_steps = 10_000 }
      )
  in
  let signals =
    match rtl_spec with
    | None -> []
    | Some spec ->
      let hmod = spec.Fault.Campaign.rs_module in
      let keep name = name <> "clk" && name <> "rst" in
      List.filter_map
        (fun (p : Hdl.Module_.port) ->
          if keep p.Hdl.Module_.port_name then
            Some (p.Hdl.Module_.port_name, Hdl.Htype.width p.Hdl.Module_.port_type)
          else None)
        hmod.Hdl.Module_.mod_ports
      @ List.map
          (fun (s : Hdl.Module_.signal) -> (s.Hdl.Module_.sig_name, Hdl.Htype.width s.Hdl.Module_.sig_type))
          hmod.Hdl.Module_.mod_signals
  in
  let surface =
    {
      Fault.Plan.su_signals = signals;
      su_cycles = stimulus_length;
      su_events = alphabet;
      su_length = stimulus_length;
      su_places =
        (match net_spec with
         | Some spec ->
           List.map (fun (p : Petri.Net.place) -> p.Petri.Net.pl_id) spec.Fault.Campaign.np_net.Petri.Net.places
         | None -> []);
      su_steps = 32;
    }
  in
  let plan = Fault.Plan.generate ~seed ~count:faults surface in
  let report =
    Exec.Pool.with_pool ~jobs (fun pool ->
        sp ctx ~parent "fault.campaign" (fun _ ->
            Fault.Campaign.run ~pool ?rtl:rtl_spec ?statechart:sc_spec ?activity:act_spec
              ?net:net_spec ~label:(Uml.Model.name m) plan))
  in
  count ctx.rc "fault.runs" (float_of_int (List.length report.Fault.Campaign.rp_runs));
  expect ctx (render ctx ~parent (fun () -> Fault.Campaign.to_text report))

let replay_validate ctx ~parent =
  let m = ctx.model in
  let wfr = sp ctx ~parent "wfr.check" (fun _ -> Uml.Wfr.check m) in
  let soc = sp ctx ~parent "profiles.soc_check" (fun _ -> Profiles.Soc_profile.check m) in
  let rt = sp ctx ~parent "profiles.rt_check" (fun _ -> Profiles.Rt_profile.check m) in
  expect ctx
    (render ctx ~parent (fun () -> Lint.Report.to_json ~model:(Uml.Model.name m) (wfr @ soc @ rt)))

(* --- one request --------------------------------------------------------- *)

let load_state s =
  match s with
  | Serve.Cache.Hit -> "hit"
  | Serve.Cache.Snap | Serve.Cache.Miss -> "miss"

(* Replay request [req] as children of its root span [root]; returns
   the number of replays whose output disagreed with the reference. *)
let replay rc sh ~req ~root (r : request) ~line ~response ~expected =
  let top name f = span rc ~req ~parent:root name f in
  ignore (top "json.parse" (fun _ -> Serve.Json.parse line));
  let fmt = fmt_name r.fmt in
  let loaded =
    record rc ~req ~parent:root (fun id ->
        let res = Serve.Cache.load sh.cache r.path in
        let name =
          match res with
          | Ok (_art, _key, state) -> "cache.load." ^ load_state state
          | Error _msg -> "cache.load.error"
        in
        ((res, id), name))
  in
  let mismatches =
    match loaded with
    | Error _msg, _id -> 1
    | Ok (art, key, state), load_id ->
      (* the layers under the lookup, on the same bytes *)
      let data =
        span rc ~req ~parent:load_id ("load.read." ^ fmt) (fun _ ->
            match Serve.Load.read_bytes r.path with
            | Ok data -> data
            | Error msg -> failwith msg)
      in
      ignore (span rc ~req ~parent:load_id ("load.hash." ^ fmt) (fun _ -> Digest.string data));
      count rc ("load.bytes." ^ fmt) (float_of_int (String.length data));
      count rc ("load.calls." ^ fmt) 1.;
      if state <> Serve.Cache.Hit then begin
        forget sh key;
        match r.fmt with
        | Xmi -> ignore (span rc ~req ~parent:load_id "xmi.decode" (fun _ -> Xmi.Read.model_of_string data))
        | Sumb -> ignore (span rc ~req ~parent:load_id "snap.decode" (fun _ -> Snap.Read.model_of_string data))
      end;
      let ctx =
        { rc; sh; req; key; model = art.Serve.Artifacts.model; expected; mismatches = 0 }
      in
      (* the op body itself, on the shadow artifacts ... *)
      let body =
        span rc ~req ~parent:root ("ops." ^ op_name r.op) (fun id ->
            (Reference.run ~loader:(fun _path -> Ok art) r, id))
      in
      let outcome, ops_id = body in
      if outcome <> expected then ctx.mismatches <- ctx.mismatches + 1;
      (* ... and the layer calls it makes, replayed as its children *)
      let parent = ops_id in
      (match r.op with
       | Lint -> replay_lint ctx ~parent
       | Simulate { machine; events; rtl } -> (
         match choose_machine ctx.model machine with
         | None -> ()
         | Some sm ->
           if rtl then replay_rtl ctx ~parent sm (split_events events)
           else replay_statechart ctx ~parent sm (split_events events))
       | Info -> ()
       | Gen lang -> replay_gen ctx ~parent lang
       | Analyze -> replay_analyze ctx ~parent
       | Inject { machine; seed; faults } -> replay_inject ctx ~parent ~machine ~seed ~faults
       | Validate -> replay_validate ctx ~parent);
      ctx.mismatches
  in
  (match Serve.Json.parse response with
   | Ok v -> ignore (top "json.print" (fun _ -> Serve.Json.to_string v))
   | Error _msg -> ());
  count rc "json.response_bytes" (float_of_int (String.length response));
  mismatches
