type sink = {
  s_out : string -> unit;
  s_err : string -> unit;
}

let std_sink = { s_out = print_string; s_err = (fun s -> output_string stderr s) }

let outf sink fmt = Printf.ksprintf sink.s_out fmt
let errl sink msg = sink.s_err (msg ^ "\n")

(* Last-resort guard for every op body: downstream failures on
   adversarial models (simulation, execution, generation) become
   diagnostics, not crashes. *)
let guarded sink f =
  match f () with
  | code -> code
  | exception Xmi.Read.Import_error msg ->
    errl sink msg;
    1
  | exception Dsim.Sim.Simulation_error msg ->
    errl sink msg;
    1
  | exception Statechart.Engine.Model_error msg ->
    errl sink msg;
    1
  | exception Sys_error msg ->
    errl sink msg;
    1
  | exception Invalid_argument msg ->
    errl sink msg;
    1
  | exception Failure msg ->
    errl sink msg;
    1

type format = [ `Text | `Json ]
type loader = string -> (Artifacts.t, string) result

let load_artifacts path =
  match Load.load_model path with
  | Error msg -> Error msg
  | Ok m -> Ok (Artifacts.of_model m)

(* Every model-consuming op funnels through this, so the load path and
   its diagnostics can never drift between subcommands. *)
let with_artifacts sink (load : loader) path f =
  match load path with
  | Error msg ->
    errl sink msg;
    1
  | Ok art -> f art

(* Validate --jobs and run the body with a pool (no worker domains when
   [jobs = 1], so the sequential paths stay exactly as before). *)
let with_jobs sink jobs f =
  if jobs < 1 then begin
    errl sink "--jobs must be at least 1";
    1
  end
  else Exec.Pool.with_pool ~jobs f

let split_selectors values =
  List.concat_map
    (fun v -> List.filter (fun s -> s <> "") (String.split_on_char ',' v))
    values

(* A selector that matches no registered rule is a user error: reject
   it up front (a silently ignored --only/--disable would lint with a
   different rule set than the user asked for). *)
let selection_of ~only ~disable =
  let only = split_selectors only and disable = split_selectors disable in
  let selection =
    Lint.Rules.selection_of_strings
      ?only:(match only with [] -> None | l -> Some l)
      ~disabled:disable ()
  in
  match Lint.Rules.unknown_selectors selection with
  | [] -> Ok selection
  | unknown ->
    Error
      (Printf.sprintf "unknown rule selector%s: %s (see `socuml rules`)"
         (match unknown with [ _ ] -> "" | _ -> "s")
         (String.concat ", " unknown))

let metrics_reg metrics =
  match metrics with
  | Some reg -> reg
  | None -> Telemetry.Metrics.null

let emit_metrics sink metrics =
  match metrics with
  | Some reg -> sink.s_out (Telemetry.Metrics.report reg)
  | None -> ()

(* --- validate ------------------------------------------------------- *)

let validate sink ~format (art : Artifacts.t) =
  let m = art.Artifacts.model in
  let diags = Uml.Wfr.check m in
  let soc = Profiles.Soc_profile.check m in
  let rt = Profiles.Rt_profile.check m in
  let all = diags @ soc @ rt in
  (match format with
   | `Json -> sink.s_out (Lint.Report.to_json ~model:(Uml.Model.name m) all)
   | `Text ->
     List.iter (fun d -> outf sink "%s\n" (Uml.Wfr.to_string d)) all;
     outf sink "%d diagnostics (%d errors, %d warnings) in %s\n"
       (List.length all)
       (List.length (Uml.Wfr.errors all))
       (List.length (Uml.Wfr.warnings all))
       (Uml.Model.name m));
  if Uml.Wfr.errors all = [] then 0 else 1

(* --- lint ----------------------------------------------------------- *)

let lint sink ~format ~only ~disable ~no_hdl ~jobs (load : loader) paths =
  match selection_of ~only ~disable with
  | Error msg ->
    errl sink msg;
    1
  | Ok selection ->
    (* One task per model: load, derive the HDL design (the netlist the
       MDA flow would generate, so lint sees the same design as `gen`),
       check, and render off-line; the rendered reports are printed in
       input order afterwards, so multi-model output never depends on
       the job count. *)
    let lint_one path =
      match load path with
      | Error msg -> Error msg
      | Ok art ->
        let m = art.Artifacts.model in
        let design =
          if no_hdl then None
          else (art.Artifacts.design ()).Mda.Generate.design
        in
        (* Key the per-entry memo by the raw selector inputs: different
           spellings of one selection just miss, which is only a speed
           question, never a correctness one. *)
        let key =
          String.concat "," only ^ ";" ^ String.concat "," disable ^ ";"
          ^ string_of_bool no_hdl
        in
        let diags =
          art.Artifacts.lint_diags ~key (fun () ->
              Lint.Check.check ~selection ?design m)
        in
        let rendered =
          match format with
          | `Json -> Lint.Report.to_json ~model:(Uml.Model.name m) diags
          | `Text -> Lint.Report.to_text ~model:(Uml.Model.name m) diags
        in
        Ok (rendered, Uml.Wfr.errors diags <> [])
    in
    with_jobs sink jobs @@ fun pool ->
    let results = Exec.Pool.map_list pool lint_one paths in
    let code = ref 0 in
    List.iter
      (fun result ->
        match result with
        | Error msg ->
          errl sink msg;
          code := 1
        | Ok (rendered, has_errors) ->
          sink.s_out rendered;
          if has_errors then code := 1)
      results;
    !code

(* --- info ----------------------------------------------------------- *)

let info sink (art : Artifacts.t) =
  let m = art.Artifacts.model in
  outf sink "model %s: %d elements\n" (Uml.Model.name m) (Uml.Model.size m);
  let count label n = if n > 0 then outf sink "  %-16s %d\n" label n in
  (* one walk over the elements; slot i counts labels.(i) *)
  let labels =
    [| "classifiers"; "components"; "state machines"; "activities";
       "interactions"; "use cases"; "packages"; "profiles" |]
  in
  let n = Array.make (Array.length labels) 0 in
  let bump i = n.(i) <- n.(i) + 1 in
  Uml.Model.iter
    (fun e ->
      match e with
      | Uml.Model.E_classifier _ -> bump 0
      | Uml.Model.E_component _ -> bump 1
      | Uml.Model.E_state_machine _ -> bump 2
      | Uml.Model.E_activity _ -> bump 3
      | Uml.Model.E_interaction _ -> bump 4
      | Uml.Model.E_use_case _ -> bump 5
      | Uml.Model.E_package _ -> bump 6
      | Uml.Model.E_profile _ -> bump 7
      | _other -> ())
    m;
  Array.iteri (fun i label -> count label n.(i)) labels;
  count "applications" (List.length (Uml.Model.applications m));
  count "diagrams" (List.length (Uml.Model.diagrams m));
  0

(* --- gen ------------------------------------------------------------ *)

let gen sink ~lang (art : Artifacts.t) =
  let m = art.Artifacts.model in
  let plat =
    match lang with
    | "vhdl" -> Mda.Platform.asic_vhdl
    | "verilog" -> Mda.Platform.fpga_verilog
    | "systemc" -> Mda.Platform.virtual_systemc
    | _c -> Mda.Platform.sw_c
  in
  let psm, trace = Mda.Mapping.to_psm plat m in
  outf sink "-- PSM %s (reuse %.0f%%)\n" (Uml.Model.name psm)
    (100. *. Mda.Transform.reuse_fraction trace);
  match Mda.Generate.artifacts plat psm with
  | [] ->
    errl sink "no generatable content (no compilable state machines)";
    1
  | artifacts ->
    List.iter
      (fun (file, contents) ->
        outf sink "-- %s (%d lines)\n%s\n" file
          (Mda.Generate.loc contents) contents)
      artifacts;
    0

(* --- simulate --------------------------------------------------------- *)

let split_events events =
  if events = "" then [] else String.split_on_char ',' events

let choose_machine m machine =
  let machines = Uml.Model.state_machines m in
  match machine with
  | Some name ->
    List.find_opt (fun sm -> sm.Uml.Smachine.sm_name = name) machines
  | None -> (
    match machines with
    | sm :: _rest -> Some sm
    | [] -> None)

(* Run the chosen state machine on the event list; when telemetry is
   live, also run every activity of the model so one registry covers
   the statechart, activity and ASL engines. *)
let run_engines_exn ?(echo = false) sink reg m sm names =
  let interp = Asl.Interp.create ~metrics:reg (Asl.Store.create ()) in
  let engine = Statechart.Engine.create ~interp ~metrics:reg sm in
  Statechart.Engine.start engine;
  if echo then outf sink "start: %s\n" (Statechart.Engine.signature engine);
  List.iter
    (fun ev ->
      Statechart.Engine.dispatch engine (Statechart.Event.make ev);
      if echo then
        outf sink "%s: %s\n" ev (Statechart.Engine.signature engine))
    names;
  if Telemetry.Metrics.live reg then
    List.iter
      (fun act ->
        let exec = Activity.Exec.create ~metrics:reg act in
        ignore (Activity.Exec.run ~seed:1 exec))
      (Uml.Model.activities m)

(* Model-level failures (bad ASL in a guard or effect, broken topology)
   are user errors, not crashes: print the diagnostic, exit nonzero. *)
let run_engines ?echo sink reg m sm names =
  match run_engines_exn ?echo sink reg m sm names with
  | () -> true
  | exception Statechart.Engine.Model_error msg ->
    errl sink msg;
    false

(* --rtl path: compile the machine to a synthesizable FSM and run the
   event sequence as single-cycle strobes on the compiled
   discrete-event engine, echoing the state register after each edge
   in the same format as the statechart path.  The lowered netlist
   comes from the artifact memo, so a warm serve request skips
   flatten/FSM-compile/lowering entirely. *)
let run_rtl_exn sink reg ~budget (art : Artifacts.t) sm names =
  match art.Artifacts.rtl sm with
  | Error reason ->
    errl sink reason;
    false
  | Ok nl ->
    let sim = Dsim.Fast.of_netlist ~metrics:reg ~budget nl in
    Dsim.Fast.set_input sim "rst" 1;
    Dsim.Fast.clock_edge sim "clk";
    Dsim.Fast.set_input sim "rst" 0;
    outf sink "start: %s\n" (Dsim.Fast.get_enum sim "state");
    List.iter
      (fun ev ->
        let port = Codegen.Fsm_compile.event_input ev in
        Dsim.Fast.set_input sim port 1;
        Dsim.Fast.clock_edge sim "clk";
        Dsim.Fast.set_input sim port 0;
        outf sink "%s: %s\n" ev (Dsim.Fast.get_enum sim "state"))
      names;
    true

let run_rtl sink reg ~budget art sm names =
  match run_rtl_exn sink reg ~budget art sm names with
  | ok -> ok
  | exception Dsim.Sim.Simulation_error msg ->
    errl sink msg;
    false

let simulate ?(budget = Exec.Budget.unlimited) sink ~machine ~events ~metrics
    ~rtl (art : Artifacts.t) =
  let m = art.Artifacts.model in
  match choose_machine m machine with
  | None ->
    errl sink "no such state machine in the model";
    1
  | Some sm ->
    let reg = metrics_reg metrics in
    let names = split_events events in
    let ok =
      if rtl then run_rtl sink reg ~budget art sm names
      else run_engines ~echo:true sink reg m sm names
    in
    emit_metrics sink metrics;
    if ok then 0 else 1

(* --- trace ------------------------------------------------------------- *)

let trace sink ~machine ~events (art : Artifacts.t) =
  let m = art.Artifacts.model in
  match choose_machine m machine with
  | None ->
    errl sink "no such state machine in the model";
    1
  | Some sm ->
    let reg = Telemetry.Metrics.create () in
    let ok = run_engines sink reg m sm (split_events events) in
    let events = Telemetry.Metrics.events reg in
    List.iter
      (fun ev -> outf sink "%s\n" (Telemetry.Metrics.render_event ev))
      events;
    outf sink "%d events recorded, %d dropped\n" (List.length events)
      (Telemetry.Metrics.events_dropped reg);
    if ok then 0 else 1

(* --- partition --------------------------------------------------------- *)

let partition sink ~budget (art : Artifacts.t) =
  match Uml.Model.activities art.Artifacts.model with
  | [] ->
    errl sink "no activity in the model";
    1
  | act :: _rest ->
    let g = Hwsw.Taskgraph.of_activity act in
    let greedy = Hwsw.Partition.greedy ~budget g in
    let improved = Hwsw.Partition.improve ~budget g in
    let all_sw =
      (Hwsw.Schedule.run g (Hwsw.Schedule.all_sw g)).Hwsw.Schedule.makespan
    in
    outf sink "activity %s: %d tasks, all-SW makespan %d\n"
      act.Uml.Activityg.ac_name
      (List.length g.Hwsw.Taskgraph.tasks)
      all_sw;
    outf sink "greedy:   makespan %d, area %d (%d evals)\n"
      greedy.Hwsw.Partition.cost greedy.Hwsw.Partition.area
      greedy.Hwsw.Partition.evaluations;
    outf sink "improved: makespan %d, area %d (%d evals)\n"
      improved.Hwsw.Partition.cost improved.Hwsw.Partition.area
      improved.Hwsw.Partition.evaluations;
    List.iter
      (fun (task, side) ->
        outf sink "  %-12s %s\n" task
          (match side with
           | Hwsw.Schedule.Hw -> "HW"
           | Hwsw.Schedule.Sw -> "SW"))
      improved.Hwsw.Partition.assignment;
    0

(* --- analyze ------------------------------------------------------------ *)

let analyze ?(budget = Exec.Budget.unlimited) sink ~metrics ~only ~disable
    ~jobs (load : loader) path =
  match selection_of ~only ~disable with
  | Error msg ->
    errl sink msg;
    1
  | Ok selection -> (
    with_artifacts sink load path @@ fun art ->
    let m = art.Artifacts.model in
    match Uml.Model.activities m with
    | [] ->
      errl sink "no activity in the model";
      1
    | activities ->
      with_jobs sink jobs @@ fun pool ->
      let reg = metrics_reg metrics in
      List.iter
        (fun act ->
          outf sink "activity %s:\n" act.Uml.Activityg.ac_name;
          let net, m0, compiled = art.Artifacts.petri act in
          outf sink "  net: %d places, %d transitions\n"
            (Petri.Net.place_count net)
            (Petri.Net.transition_count net);
          (match Petri.Coverability.is_bounded net m0 with
           | Some true -> outf sink "  bounded: yes\n"
           | Some false ->
             let r = Petri.Coverability.analyse net m0 in
             outf sink "  bounded: NO (unbounded places: %s)\n"
               (String.concat ", " r.Petri.Coverability.unbounded_places)
           | None -> outf sink "  bounded: unknown (limit reached)\n");
          let s =
            Petri.Analysis.explore ~limit:5000 ~metrics:reg ~budget ~pool
              ~compiled net m0
          in
          let r = s.Petri.Analysis.sum_reach in
          outf sink "  reachable markings: %d%s, deadlocks: %d\n"
            r.Petri.Analysis.state_count
            (if r.Petri.Analysis.truncated then "+" else "")
            (List.length r.Petri.Analysis.deadlocks);
          let invariants = Petri.Invariant.p_invariants net in
          outf sink "  P-invariants: %d\n" (List.length invariants);
          (* dead-transition verdicts are only meaningful when the
             state space was fully explored *)
          let dead = s.Petri.Analysis.sum_dead_transitions in
          if (not r.Petri.Analysis.truncated) && dead <> [] then
            outf sink "  dead transitions: %s\n" (String.concat ", " dead))
        activities;
      let lint = Lint.Check.check_model ~selection ~metrics:reg m in
      if lint <> [] then begin
        outf sink "lint:\n";
        List.iter (fun d -> outf sink "  %s\n" (Uml.Wfr.to_string d)) lint
      end;
      emit_metrics sink metrics;
      0)

(* --- inject ------------------------------------------------------------ *)

(* The signal-trigger alphabet of a machine, sorted and deduplicated —
   the stimulus events a fault campaign perturbs. *)
let machine_event_alphabet (sm : Uml.Smachine.t) =
  let rec region_events (r : Uml.Smachine.region) =
    List.concat_map
      (fun (tr : Uml.Smachine.transition) ->
        List.filter_map
          (fun trg ->
            match trg with
            | Uml.Smachine.Signal_trigger name -> Some name
            | Uml.Smachine.Time_trigger _ | Uml.Smachine.Any_trigger
            | Uml.Smachine.Completion ->
              None)
          tr.Uml.Smachine.tr_triggers)
      r.Uml.Smachine.rg_transitions
    @ List.concat_map
        (fun v ->
          match v with
          | Uml.Smachine.State s ->
            List.concat_map region_events s.Uml.Smachine.st_regions
          | Uml.Smachine.Pseudo _ | Uml.Smachine.Final _ -> [])
        r.Uml.Smachine.rg_vertices
  in
  List.sort_uniq String.compare
    (List.concat_map region_events sm.Uml.Smachine.sm_regions)

(* Fault targets of a flat RTL module: every port and signal except the
   clock and reset, with bit widths for bit-flip positions. *)
let rtl_fault_surface (hmod : Hdl.Module_.t) =
  let keep name = name <> "clk" && name <> "rst" in
  List.filter_map
    (fun (p : Hdl.Module_.port) ->
      if keep p.Hdl.Module_.port_name then
        Some (p.Hdl.Module_.port_name, Hdl.Htype.width p.Hdl.Module_.port_type)
      else None)
    hmod.Hdl.Module_.mod_ports
  @ List.map
      (fun (s : Hdl.Module_.signal) ->
        (s.Hdl.Module_.sig_name, Hdl.Htype.width s.Hdl.Module_.sig_type))
      hmod.Hdl.Module_.mod_signals

let inject ?(budget = Exec.Budget.unlimited) sink ~machine ~seed ~faults
    ~format ~metrics ~jobs (art : Artifacts.t) =
  let m = art.Artifacts.model in
  if faults < 0 then begin
    errl sink "--faults must be non-negative";
    1
  end
  else begin
    with_jobs sink jobs @@ fun pool ->
    let reg = metrics_reg metrics in
    let stimulus_length = 16 in
    (* statechart + RTL domains from the chosen state machine *)
    let sm =
      match choose_machine m machine with
      | Some sm when machine_event_alphabet sm <> [] -> Some sm
      | Some _ | None -> None
    in
    let alphabet =
      match sm with
      | Some sm -> machine_event_alphabet sm
      | None -> []
    in
    let events =
      match alphabet with
      | [] -> []
      | alphabet ->
        let rng = Workload.Prng.create (seed lxor 0x5bd1) in
        List.init stimulus_length (fun _i -> Workload.Prng.pick rng alphabet)
    in
    let sc_spec =
      Option.map
        (fun sm ->
          {
            Fault.Campaign.ss_machine = sm;
            ss_events = events;
            ss_budget = 1000;
          })
        sm
    in
    let rtl_spec =
      Option.bind sm (fun sm ->
          match art.Artifacts.rtl sm with
          | Error _reason -> None
          | Ok nl ->
            let hmod = nl.Dsim.Netlist.nl_module in
            (* one single-cycle strobe per stimulus event: clear the
               previous strobe, raise the current one *)
            let stimulus =
              List.mapi
                (fun i ev ->
                  let clear =
                    if i = 0 then []
                    else
                      [
                        ( Codegen.Fsm_compile.event_input
                            (List.nth events (i - 1)),
                          0 );
                      ]
                  in
                  (i, clear @ [ (Codegen.Fsm_compile.event_input ev, 1) ]))
                events
            in
            Some
              {
                Fault.Campaign.rs_module = hmod;
                rs_clock = "clk";
                rs_reset = Some "rst";
                rs_stimulus = stimulus;
                rs_cycles = stimulus_length;
                rs_settle_budget = 1000;
              })
    in
    (* token domain from the first activity *)
    let act_spec, net_spec =
      match Uml.Model.activities m with
      | [] -> (None, None)
      | act :: _rest ->
        let net, m0, _compiled = art.Artifacts.petri act in
        ( Some
            {
              Fault.Campaign.ac_activity = act;
              ac_choice_seed = seed;
              ac_max_steps = 10_000;
            },
          Some
            {
              Fault.Campaign.np_net = net;
              np_marking = m0;
              np_choice_seed = seed;
              np_max_steps = 10_000;
            } )
    in
    let surface =
      {
        Fault.Plan.su_signals =
          (match rtl_spec with
           | Some spec -> rtl_fault_surface spec.Fault.Campaign.rs_module
           | None -> []);
        su_cycles = stimulus_length;
        su_events = alphabet;
        su_length = stimulus_length;
        su_places =
          (match net_spec with
           | Some spec ->
             List.map
               (fun (p : Petri.Net.place) -> p.Petri.Net.pl_id)
               spec.Fault.Campaign.np_net.Petri.Net.places
           | None -> []);
        su_steps = 32;
      }
    in
    let plan = Fault.Plan.generate ~seed ~count:faults surface in
    let report =
      Fault.Campaign.run ~metrics:reg ~budget ~pool ?rtl:rtl_spec
        ?statechart:sc_spec ?activity:act_spec ?net:net_spec
        ~label:(Uml.Model.name m) plan
    in
    (match format with
     | `Text -> sink.s_out (Fault.Campaign.to_text report)
     | `Json -> sink.s_out (Fault.Campaign.to_json report));
    emit_metrics sink metrics;
    0
  end

(* --- pack ------------------------------------------------------------- *)

let pack sink ~out ~path (art : Artifacts.t) =
  let m = art.Artifacts.model in
  let out =
    match out with
    | Some out -> out
    | None -> Filename.remove_extension path ^ ".sumb"
  in
  let data = Snap.Write.to_string m in
  let oc = open_out_bin out in
  (match output_string oc data with
   | () -> close_out oc
   | exception e ->
     close_out_noerr oc;
     raise e);
  outf sink "wrote %s (%d bytes, %d elements)\n" out (String.length data)
    (Uml.Model.size m);
  0
