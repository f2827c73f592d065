(* Benchmark and experiment harness.

   The paper ("UML 2.0 - Overview and Perspectives in SoC Design", DATE
   2005) has no tables or figures; DESIGN.md maps its five claims to the
   experiment suite E1..E12.  For every experiment this harness

     (a) prints the measured report rows recorded in EXPERIMENTS.md, and
     (b) registers one Bechamel test group with the raw kernels.

   Run: dune exec bench/main.exe            (reports + timings)
        dune exec bench/main.exe -- quick   (reports only)
        dune exec bench/main.exe -- quick --json out.json
                                            (+ machine-readable results) *)

let sep title =
  Printf.printf "\n==== %s ====\n%!" title

(* ------------------------------------------------------------------ *)
(* Machine-readable results (--json <file>)

   Every report records its headline numbers under a stable
   "eN.metric.variant" key; the file is emitted with keys sorted
   lexicographically, so the key set and order are byte-deterministic
   across runs (values of timing metrics naturally vary). *)

let json_entries : (string * Sjson.Json.t) list ref = ref []
let record key value = json_entries := (key, value) :: !json_entries
let record_i key i = record key (Sjson.Json.Int i)
let record_b key b = record key (Sjson.Json.Bool b)

let record_f key v =
  record key (Sjson.Json.Float (float_of_string (Printf.sprintf "%.6g" v)))

let write_json path =
  let entries =
    List.sort_uniq
      (fun (a, _) (b, _) -> String.compare a b)
      !json_entries
  in
  let oc = open_out path in
  output_string oc (Sjson.Json.to_report entries);
  close_out oc;
  Printf.printf "\nwrote %d result keys to %s\n%!" (List.length entries) path

(* ------------------------------------------------------------------ *)
(* Shared workloads                                                    *)

let soc_instances n =
  let catalogue () = Iplib.Cores.catalogue () in
  let rec take k acc cat =
    if k = 0 then List.rev acc
    else
      match cat with
      | [] -> take k acc (catalogue ())
      | core :: rest ->
        take (k - 1) ((Printf.sprintf "u%d" (n - k), core) :: acc) rest
  in
  take n [] (catalogue ())

let pipeline_activity () =
  Workload.Gen_activity.series_parallel ~seed:42 ~size:20 ~max_width:4

(* ------------------------------------------------------------------ *)
(* E1: abstraction / expansion factor                                  *)

let e1_report () =
  sep "E1  model elements vs generated code (expansion factor)";
  Printf.printf "%-6s %-16s %-14s %-10s\n" "IPs" "model elements"
    "generated LoC" "expansion";
  List.iter
    (fun n ->
      let instances = soc_instances n in
      let m = Uml.Model.create (Printf.sprintf "soc%d" n) in
      let profile = Profiles.Soc_profile.install m in
      let _c = Iplib.Soc.component m ~profile ~name:"Soc" instances in
      let elements = Mda.Generate.model_element_count m in
      let design = Iplib.Soc.design ~name:"soc" instances in
      let vhdl = Codegen.Vhdl.of_design design in
      let c_text = Codegen.Cgen.of_model m in
      let loc = Mda.Generate.loc vhdl + Mda.Generate.loc c_text in
      let expansion = float_of_int loc /. float_of_int elements in
      Printf.printf "%-6d %-16d %-14d %9.1fx\n" n elements loc expansion;
      record_f (Printf.sprintf "e1.expansion_factor.ips%02d" n) expansion)
    [ 2; 4; 8; 16; 32 ]

let e1_tests () =
  let design = Iplib.Soc.design ~name:"soc" (soc_instances 8) in
  [
    Bechamel.Test.make ~name:"e1/vhdl-of-8ip-soc"
      (Bechamel.Staged.stage (fun () ->
           ignore (Codegen.Vhdl.of_design design)));
  ]

(* ------------------------------------------------------------------ *)
(* E2: executable models — engine vs flat vs RTL equivalence + speed   *)

let e2_machine seed = Workload.Gen_statechart.flat ~seed ~states:10 ~events:4

let e2_equivalent seed =
  let sm = e2_machine seed in
  let events = Workload.Gen_statechart.event_sequence ~seed ~length:200 4 in
  let engine = Statechart.Engine.create sm in
  Statechart.Engine.start engine;
  let engine_trace =
    List.map
      (fun name ->
        Statechart.Engine.dispatch engine (Statechart.Event.make name);
        Statechart.Engine.signature engine)
      events
  in
  match Statechart.Flatten.flatten sm with
  | Error _ -> false
  | Ok flat -> (
    let flat_trace = Statechart.Flatten.simulate flat events in
    engine_trace = flat_trace
    &&
    match Codegen.Fsm_compile.compile flat with
    | Error _ -> false
    | Ok hmod ->
      let sim = Oracles.Sim.create hmod in
      Oracles.Sim.set_input sim "rst" 1;
      Oracles.Sim.clock_edge sim "clk";
      Oracles.Sim.set_input sim "rst" 0;
      let rtl_trace =
        List.map
          (fun ev ->
            let port = Codegen.Fsm_compile.event_input ev in
            Oracles.Sim.set_input sim port 1;
            Oracles.Sim.clock_edge sim "clk";
            Oracles.Sim.set_input sim port 0;
            Oracles.Sim.get_enum sim "state")
          events
      in
      rtl_trace = flat_trace)

let e2_report () =
  sep "E2  in-model execution vs generated RTL (trace equivalence)";
  let seeds = [ 1; 2; 3; 4; 5; 6; 7; 8; 9; 10 ] in
  let agree = List.length (List.filter e2_equivalent seeds) in
  Printf.printf "engine = flat = RTL on %d/%d random machines x 200 events\n"
    agree (List.length seeds);
  record_i "e2.trace_agreement.machines" agree;
  record_i "e2.trace_agreement.total" (List.length seeds)

let e2_tests () =
  let sm = e2_machine 1 in
  let events = Workload.Gen_statechart.event_sequence ~seed:9 ~length:100 4 in
  let flat =
    match Statechart.Flatten.flatten sm with
    | Ok f -> f
    | Error m -> failwith m
  in
  let hmod =
    match Codegen.Fsm_compile.compile flat with
    | Ok m -> m
    | Error m -> failwith m
  in
  [
    Bechamel.Test.make ~name:"e2/engine-100-events"
      (Bechamel.Staged.stage (fun () ->
           let engine = Statechart.Engine.create sm in
           Statechart.Engine.start engine;
           List.iter
             (fun name ->
               Statechart.Engine.dispatch engine (Statechart.Event.make name))
             events));
    Bechamel.Test.make ~name:"e2/rtl-100-cycles"
      (Bechamel.Staged.stage (fun () ->
           let sim = Oracles.Sim.create hmod in
           Oracles.Sim.set_input sim "rst" 1;
           Oracles.Sim.clock_edge sim "clk";
           Oracles.Sim.set_input sim "rst" 0;
           List.iter
             (fun ev ->
               let port = Codegen.Fsm_compile.event_input ev in
               Oracles.Sim.set_input sim port 1;
               Oracles.Sim.clock_edge sim "clk";
               Oracles.Sim.set_input sim port 0)
             events));
  ]

(* xUML system kernel: a two-object relay model, run to quiescence *)
let relay_model () =
  let open Uml in
  let m = Model.create "relay" in
  let receiver =
    Classifier.make ~is_active:true
      ~attributes:
        [ Classifier.property ~default:(Vspec.of_int 0) "n" Dtype.Integer ]
      "Receiver"
  in
  let s = Smachine.simple_state "S" in
  let i = Smachine.pseudostate Smachine.Initial in
  let r_sm =
    Smachine.make ~context:receiver.Classifier.cl_id "RecvSM"
      [
        Smachine.region
          [ Smachine.Pseudo i; Smachine.State s ]
          [
            Smachine.transition ~source:i.Smachine.ps_id
              ~target:s.Smachine.st_id ();
            Smachine.transition
              ~triggers:[ Smachine.Signal_trigger "msg" ]
              ~effect:"self.n := self.n + 1;" ~kind:Smachine.Internal
              ~source:s.Smachine.st_id ~target:s.Smachine.st_id ();
          ];
      ]
  in
  let receiver =
    { receiver with Classifier.cl_behaviors = [ r_sm.Smachine.sm_id ] }
  in
  Model.add m (Model.E_classifier receiver);
  Model.add m (Model.E_state_machine r_sm);
  let sender =
    Classifier.make ~is_active:true
      ~attributes:
        [
          Classifier.property ~default:(Vspec.of_int 0) "i" Dtype.Integer;
          Classifier.property "peer" (Dtype.Ref receiver.Classifier.cl_id);
        ]
      "Sender"
  in
  let idle = Smachine.simple_state "Idle" in
  let burst = Smachine.simple_state "Burst" in
  let si = Smachine.pseudostate Smachine.Initial in
  let s_sm =
    Smachine.make ~context:sender.Classifier.cl_id "SendSM"
      [
        Smachine.region
          [ Smachine.Pseudo si; Smachine.State idle; Smachine.State burst ]
          [
            Smachine.transition ~source:si.Smachine.ps_id
              ~target:idle.Smachine.st_id ();
            Smachine.transition
              ~triggers:[ Smachine.Signal_trigger "go" ]
              ~source:idle.Smachine.st_id ~target:burst.Smachine.st_id ();
            Smachine.transition ~guard:"self.i < 50"
              ~effect:"self.i := self.i + 1; send msg() to self.peer;"
              ~source:burst.Smachine.st_id ~target:burst.Smachine.st_id ();
            Smachine.transition ~guard:"self.i >= 50"
              ~effect:"self.i := 0;" ~source:burst.Smachine.st_id
              ~target:idle.Smachine.st_id ();
          ];
      ]
  in
  let sender =
    { sender with Classifier.cl_behaviors = [ s_sm.Smachine.sm_id ] }
  in
  Model.add m (Model.E_classifier sender);
  Model.add m (Model.E_state_machine s_sm);
  m

let e2_xuml_test () =
  let m = relay_model () in
  [
    Bechamel.Test.make ~name:"e2/xuml-100-routed-signals"
      (Bechamel.Staged.stage (fun () ->
           let sys = Xuml.System.create m in
           let recv = Xuml.System.instantiate sys "Receiver" in
           let send = Xuml.System.instantiate sys "Sender" in
           ignore
             (Asl.Store.set_attr (Xuml.System.store sys) send "peer"
                (Asl.Value.V_obj recv));
           Xuml.System.send sys ~to_:send "go";
           ignore (Xuml.System.run sys)));
  ]

(* ------------------------------------------------------------------ *)
(* E3: activity tokens vs Petri nets                                   *)

let e3_report () =
  sep "E3  activity token runs as Petri occurrence sequences";
  List.iter
    (fun width ->
      let conforming = ref 0 in
      let steps = ref 0 in
      for seed = 1 to 10 do
        let act =
          Workload.Gen_activity.with_decisions ~seed ~size:(width * 4)
            ~max_width:width
        in
        let r = Oracles.Conform.run_and_check ~seed act in
        if r.Oracles.Conform.conforms then incr conforming;
        steps := !steps + r.Oracles.Conform.steps
      done;
      Printf.printf
        "width %-3d: 10/10 activities, %d total firings, conforming runs: %d/10\n"
        width !steps !conforming;
      record_i (Printf.sprintf "e3.conforming_runs.width%d" width) !conforming;
      record_i (Printf.sprintf "e3.total_firings.width%d" width) !steps)
    [ 2; 4; 8 ]

let e3_tests () =
  let act = pipeline_activity () in
  let net, m0 = Activity.Translate.to_petri act in
  [
    Bechamel.Test.make ~name:"e3/token-engine-run"
      (Bechamel.Staged.stage (fun () ->
           let engine = Activity.Exec.create act in
           ignore (Activity.Exec.run ~seed:3 engine)));
    Bechamel.Test.make ~name:"e3/petri-replay"
      (Bechamel.Staged.stage (fun () ->
           ignore
             (Oracles.Petri_ref.random_occurrence_sequence ~seed:3 ~max_steps:200
                net m0)));
  ]

(* ------------------------------------------------------------------ *)
(* E4: HW/SW interchangeability                                        *)

let e4_report () =
  sep "E4  one PIM realized as hardware and as software";
  let act = pipeline_activity () in
  let g = Hwsw.Taskgraph.of_activity act in
  let sw = Hwsw.Schedule.run g (Hwsw.Schedule.all_sw g) in
  let hw = Hwsw.Schedule.run g (Hwsw.Schedule.all_hw g) in
  Printf.printf
    "pipeline of %d tasks: SW %d cycles | HW %d cycles (area %d) | speedup %.1fx\n"
    (List.length g.Hwsw.Taskgraph.tasks)
    sw.Hwsw.Schedule.makespan hw.Hwsw.Schedule.makespan
    hw.Hwsw.Schedule.hw_area
    (float_of_int sw.Hwsw.Schedule.makespan
    /. float_of_int hw.Hwsw.Schedule.makespan);
  record_i "e4.makespan.sw_cycles" sw.Hwsw.Schedule.makespan;
  record_i "e4.makespan.hw_cycles" hw.Hwsw.Schedule.makespan;
  (* behavioral interchangeability: same machine through both flows *)
  let agree = e2_equivalent 99 in
  Printf.printf "same controller behavior in SW engine and generated RTL: %b\n"
    agree;
  record_b "e4.behavior_agreement" agree

let e4_tests () =
  let act = pipeline_activity () in
  let g = Hwsw.Taskgraph.of_activity act in
  [
    Bechamel.Test.make ~name:"e4/schedule-both-sides"
      (Bechamel.Staged.stage (fun () ->
           ignore (Hwsw.Schedule.run g (Hwsw.Schedule.all_sw g));
           ignore (Hwsw.Schedule.run g (Hwsw.Schedule.all_hw g))));
  ]

(* ------------------------------------------------------------------ *)
(* E5: MDA reuse and transformation scaling                            *)

(* Fine-grained reuse: fraction of classifier features (attributes,
   operations) and component ports that survive the mapping unchanged.
   Element-level reuse marks a whole class "changed" for a single
   lowered attribute; this measures what actually had to move. *)
let feature_reuse pim psm =
  let total = ref 0 in
  let kept = ref 0 in
  let count_list equal xs ys =
    List.iter
      (fun x ->
        incr total;
        if List.exists (equal x) ys then incr kept)
      xs
  in
  Uml.Model.iter
    (fun e ->
      match e with
      | Uml.Model.E_classifier c -> (
        match Uml.Model.find_classifier psm c.Uml.Classifier.cl_id with
        | None -> ()
        | Some c' ->
          count_list Uml.Classifier.equal_property
            c.Uml.Classifier.cl_attributes c'.Uml.Classifier.cl_attributes;
          count_list Uml.Classifier.equal_operation
            c.Uml.Classifier.cl_operations c'.Uml.Classifier.cl_operations)
      | Uml.Model.E_component c -> (
        match Uml.Model.find_component psm c.Uml.Component.cmp_id with
        | None -> ()
        | Some c' ->
          count_list Uml.Component.equal_port c.Uml.Component.cmp_ports
            c'.Uml.Component.cmp_ports)
      | _other -> ())
    pim;
  if !total = 0 then 1.0 else float_of_int !kept /. float_of_int !total

let e5_report () =
  sep "E5  PIM -> PSM reuse fraction and scaling";
  Printf.printf "%-8s %14s %14s %14s %14s\n" "classes" "hw elem reuse"
    "hw feat reuse" "sw elem reuse" "sw feat reuse";
  List.iter
    (fun classes ->
      let pim = Workload.Gen_model.structural ~seed:7 ~classes in
      let hw, hw_trace = Mda.Mapping.to_psm Mda.Platform.asic_vhdl pim in
      let sw, sw_trace = Mda.Mapping.to_psm Mda.Platform.sw_c pim in
      Printf.printf "%-8d %13.1f%% %13.1f%% %13.1f%% %13.1f%%\n" classes
        (100. *. Mda.Transform.reuse_fraction hw_trace)
        (100. *. feature_reuse pim hw)
        (100. *. Mda.Transform.reuse_fraction sw_trace)
        (100. *. feature_reuse pim sw);
      record_f
        (Printf.sprintf "e5.hw_feature_reuse.classes%04d" classes)
        (feature_reuse pim hw);
      record_f
        (Printf.sprintf "e5.sw_feature_reuse.classes%04d" classes)
        (feature_reuse pim sw))
    [ 10; 100; 1000 ]

let e5_tests () =
  let pim = Workload.Gen_model.structural ~seed:7 ~classes:300 in
  [
    Bechamel.Test.make ~name:"e5/to-psm-300-classes"
      (Bechamel.Staged.stage (fun () ->
           ignore (Mda.Mapping.to_psm Mda.Platform.asic_vhdl pim)));
  ]

(* ------------------------------------------------------------------ *)
(* E6: partitioning quality                                            *)

let e6_report () =
  sep "E6  partitioning: heuristics vs exhaustive (ablation)";
  Printf.printf "%-4s %-18s %-18s %-18s %-18s\n" "n" "exhaustive"
    "greedy" "greedy+KL" "annealing";
  List.iter
    (fun n ->
      let g = Workload.Gen_taskgraph.layered ~seed:5 ~tasks:n ~layers:4 in
      let budget = 600 in
      let opt = Hwsw.Partition.exhaustive ~budget g in
      let grd = Hwsw.Partition.greedy ~budget g in
      let imp = Hwsw.Partition.improve ~budget g in
      let sa = Hwsw.Partition.annealed ~seed:11 ~budget g in
      let cell (o : Hwsw.Partition.outcome) =
        Printf.sprintf "%4d %.2fx %6dev" o.Hwsw.Partition.cost
          (Hwsw.Partition.quality_ratio ~optimal:opt o)
          o.Hwsw.Partition.evaluations
      in
      Printf.printf "%-4d %-18s %-18s %-18s %-18s\n" n (cell opt) (cell grd)
        (cell imp) (cell sa);
      record_f
        (Printf.sprintf "e6.quality_ratio_greedy.tasks%02d" n)
        (Hwsw.Partition.quality_ratio ~optimal:opt grd);
      record_f
        (Printf.sprintf "e6.quality_ratio_annealed.tasks%02d" n)
        (Hwsw.Partition.quality_ratio ~optimal:opt sa))
    [ 8; 10; 12; 14 ]

let e6_tests () =
  let g50 = Workload.Gen_taskgraph.layered ~seed:5 ~tasks:50 ~layers:6 in
  let g12 = Workload.Gen_taskgraph.layered ~seed:5 ~tasks:12 ~layers:4 in
  [
    Bechamel.Test.make ~name:"e6/greedy-50-tasks"
      (Bechamel.Staged.stage (fun () ->
           ignore (Hwsw.Partition.greedy ~budget:2000 g50)));
    Bechamel.Test.make ~name:"e6/exhaustive-12-tasks"
      (Bechamel.Staged.stage (fun () ->
           ignore (Hwsw.Partition.exhaustive ~budget:600 g12)));
  ]

(* ------------------------------------------------------------------ *)
(* E7: XMI round-trip fidelity and throughput                          *)

let e7_report () =
  sep "E7  XMI round-trip fidelity";
  List.iter
    (fun classes ->
      let m = Workload.Gen_model.structural ~seed:3 ~classes in
      let text = Xmi.Write.to_string m in
      let m' = Xmi.Read.model_of_string text in
      Printf.printf "%-6d classes: %7d bytes, lossless: %b\n" classes
        (String.length text) (Uml.Model.equal m m');
      record_b
        (Printf.sprintf "e7.roundtrip_lossless.classes%04d" classes)
        (Uml.Model.equal m m'))
    [ 10; 100; 1000 ]

let e7_tests () =
  let m = Workload.Gen_model.structural ~seed:3 ~classes:200 in
  let text = Xmi.Write.to_string m in
  [
    Bechamel.Test.make ~name:"e7/export-200-classes"
      (Bechamel.Staged.stage (fun () -> ignore (Xmi.Write.to_string m)));
    Bechamel.Test.make ~name:"e7/import-200-classes"
      (Bechamel.Staged.stage (fun () ->
           ignore (Xmi.Read.model_of_string text)));
  ]

(* ------------------------------------------------------------------ *)
(* E8: statechart engine scaling with hierarchy depth                  *)

let e8_machines () =
  List.map
    (fun depth ->
      (depth,
       Workload.Gen_statechart.hierarchical ~seed:8 ~depth ~breadth:2
         ~events:4))
    [ 1; 2; 3; 4; 5 ]

let e8_report () =
  sep "E8  run-to-completion throughput vs hierarchy depth";
  let events = Workload.Gen_statechart.event_sequence ~seed:8 ~length:2000 4 in
  List.iter
    (fun (depth, sm) ->
      let engine = Statechart.Engine.create sm in
      Statechart.Engine.start engine;
      let t0 = Sys.time () in
      List.iter
        (fun name ->
          Statechart.Engine.dispatch engine (Statechart.Event.make name))
        events;
      let dt = Sys.time () -. t0 in
      let rate = float_of_int (List.length events) /. (dt +. 1e-9) in
      Printf.printf "depth %d: %7.0f events/s (%d vertices)\n" depth rate
        (List.length (Uml.Smachine.all_vertices sm));
      record_f (Printf.sprintf "e8.events_per_s.depth%d" depth) rate)
    (e8_machines ())

let e8_tests () =
  let events = Workload.Gen_statechart.event_sequence ~seed:8 ~length:200 4 in
  List.map
    (fun (depth, sm) ->
      Bechamel.Test.make
        ~name:(Printf.sprintf "e8/depth-%d-200-events" depth)
        (Bechamel.Staged.stage (fun () ->
             let engine = Statechart.Engine.create sm in
             Statechart.Engine.start engine;
             List.iter
               (fun name ->
                 Statechart.Engine.dispatch engine (Statechart.Event.make name))
               events)))
    (List.filter (fun (d, _) -> d <= 4) (e8_machines ()))

(* ------------------------------------------------------------------ *)
(* E9: code generation throughput and determinism                      *)

let e9_report () =
  sep "E9  code generation throughput and determinism";
  let design = Iplib.Soc.design ~name:"soc" (soc_instances 16) in
  let emit name f =
    let t0 = Sys.time () in
    let reps = 50 in
    let text = ref "" in
    for _ = 1 to reps do
      text := f design
    done;
    let dt = Sys.time () -. t0 in
    let deterministic = f design = !text in
    let mb_s =
      float_of_int (String.length !text * reps) /. (dt +. 1e-9) /. 1_048_576.
    in
    Printf.printf "%-10s %7d lines, %8.2f MB/s, deterministic: %b\n" name
      (Mda.Generate.loc !text)
      mb_s deterministic;
    record_f (Printf.sprintf "e9.throughput_mb_s.%s" name) mb_s;
    record_b (Printf.sprintf "e9.deterministic.%s" name) deterministic
  in
  emit "vhdl" Codegen.Vhdl.of_design;
  emit "verilog" Codegen.Verilog.of_design;
  emit "systemc" Codegen.Systemc.of_design

let e9_tests () =
  let design = Iplib.Soc.design ~name:"soc" (soc_instances 16) in
  [
    Bechamel.Test.make ~name:"e9/vhdl"
      (Bechamel.Staged.stage (fun () ->
           ignore (Codegen.Vhdl.of_design design)));
    Bechamel.Test.make ~name:"e9/verilog"
      (Bechamel.Staged.stage (fun () ->
           ignore (Codegen.Verilog.of_design design)));
    Bechamel.Test.make ~name:"e9/systemc"
      (Bechamel.Staged.stage (fun () ->
           ignore (Codegen.Systemc.of_design design)));
  ]

(* ------------------------------------------------------------------ *)
(* E10: discrete-event simulation performance                          *)

let e10_flat n =
  Hdl.Elaborate.flatten (Iplib.Soc.design ~name:"soc" (soc_instances n))

let e10_report () =
  sep "E10  simulator throughput vs design size (compiled engine)";
  List.iter
    (fun n ->
      let flat = e10_flat n in
      let sim = Dsim.Fast.create flat in
      Dsim.Fast.set_input sim "rst" 1;
      Dsim.Fast.clock_edge sim "clk";
      Dsim.Fast.set_input sim "rst" 0;
      let cycles = 2000 in
      let t0 = Sys.time () in
      Dsim.Fast.run sim ~clock:"clk" ~cycles;
      let dt = Sys.time () -. t0 in
      let rate = float_of_int cycles /. (dt +. 1e-9) in
      Printf.printf
        "%2d IPs (%3d processes): %8.0f cycles/s, %9d events, %d deltas, \
         %d evals skipped\n"
        n
        (List.length flat.Hdl.Module_.mod_processes)
        rate
        (Dsim.Fast.events sim) (Dsim.Fast.delta_cycles sim)
        (Dsim.Fast.skipped_evals sim);
      record_f (Printf.sprintf "e10.cycles_per_s.ips%02d" n) rate)
    [ 4; 8; 16; 32 ]

let e10_tests () =
  let flat = e10_flat 8 in
  [
    Bechamel.Test.make ~name:"e10/8ip-100-cycles"
      (Bechamel.Staged.stage (fun () ->
           let sim = Dsim.Fast.create flat in
           Dsim.Fast.run sim ~clock:"clk" ~cycles:100));
  ]

(* ------------------------------------------------------------------ *)
(* E11: telemetry instrumentation overhead                             *)

let e11_events =
  lazy (Workload.Gen_statechart.event_sequence ~seed:3 ~length:2000 4)

let e11_dispatch reg =
  let engine = Statechart.Engine.create ~metrics:reg (e2_machine 1) in
  Statechart.Engine.start engine;
  List.iter
    (fun name ->
      Statechart.Engine.dispatch engine (Statechart.Event.make name))
    (Lazy.force e11_events)

let e11_time make_reg =
  (* best of three runs to damp scheduler noise *)
  let best = ref infinity in
  for _ = 1 to 3 do
    let t0 = Sys.time () in
    e11_dispatch (make_reg ());
    let dt = Sys.time () -. t0 in
    if dt < !best then best := dt
  done;
  !best

let e11_report () =
  sep "E11  telemetry overhead on statechart dispatch (2000 events)";
  let off = e11_time (fun () -> Telemetry.Metrics.null) in
  let counters =
    e11_time (fun () -> Telemetry.Metrics.create ~event_capacity:0 ())
  in
  let full = e11_time (fun () -> Telemetry.Metrics.create ()) in
  let row key label dt =
    Printf.printf "%-24s %8.3f us/event  (%+5.1f%% vs off)\n" label
      (1e6 *. dt /. 2000.)
      (100. *. (dt -. off) /. (off +. 1e-9));
    record_f (Printf.sprintf "e11.us_per_event.%s" key) (1e6 *. dt /. 2000.)
  in
  row "off" "telemetry off (null)" off;
  row "ring0" "live, ring cap 0" counters;
  row "ring4096" "live, ring cap 4096" full

let e11_tests () =
  let sm = e2_machine 1 in
  let events = Workload.Gen_statechart.event_sequence ~seed:3 ~length:200 4 in
  let dispatch reg =
    let engine = Statechart.Engine.create ~metrics:reg sm in
    Statechart.Engine.start engine;
    List.iter
      (fun name ->
        Statechart.Engine.dispatch engine (Statechart.Event.make name))
      events
  in
  [
    Bechamel.Test.make ~name:"e11/dispatch-200-off"
      (Bechamel.Staged.stage (fun () -> dispatch Telemetry.Metrics.null));
    Bechamel.Test.make ~name:"e11/dispatch-200-live"
      (Bechamel.Staged.stage (fun () ->
           dispatch (Telemetry.Metrics.create ())));
  ]

(* ------------------------------------------------------------------ *)
(* E12: whole-model lint wall-time vs model size                       *)

let e12_model classes =
  Uml.Ident.reset_counter ();
  let m = Workload.Gen_model.structural ~seed:7 ~classes in
  Uml.Model.add m
    (Uml.Model.E_state_machine
       (Workload.Gen_statechart.hierarchical ~seed:7 ~depth:3 ~breadth:2
          ~events:4));
  Uml.Model.add m
    (Uml.Model.E_activity
       (Workload.Gen_activity.with_decisions ~seed:7 ~size:14 ~max_width:3));
  m

(* best of three runs of [f], in CPU seconds, to damp scheduler noise *)
let best_of_3 f =
  let best = ref infinity in
  for _ = 1 to 3 do
    let t0 = Sys.time () in
    ignore (Sys.opaque_identity (f ()));
    let dt = Sys.time () -. t0 in
    if dt < !best then best := dt
  done;
  !best

(* `validate`'s three checks on structural models, bare and with SoC/RT
   stereotypes on every feature (Workload.Gen_model.stereotyped) *)
let e12_validate_report () =
  Printf.printf "\nvalidate checks, best of 3 (ms):\n";
  Printf.printf "%-12s %-8s %-8s %10s %10s %10s %10s\n" "model" "classes"
    "apps" "wfr" "soc" "rt" "total";
  List.iter
    (fun (kind, gen) ->
      List.iter
        (fun classes ->
          Uml.Ident.reset_counter ();
          let m = gen ~seed:7 ~classes in
          let wfr = best_of_3 (fun () -> Uml.Wfr.check m) in
          let soc = best_of_3 (fun () -> Profiles.Soc_profile.check m) in
          let rt = best_of_3 (fun () -> Profiles.Rt_profile.check m) in
          let total = 1e3 *. (wfr +. soc +. rt) in
          Printf.printf "%-12s %-8d %-8d %10.2f %10.2f %10.2f %10.2f\n" kind
            classes
            (List.length (Uml.Model.applications m))
            (1e3 *. wfr) (1e3 *. soc) (1e3 *. rt) total;
          record_f
            (Printf.sprintf "e12.validate_ms.%s.classes%03d" kind classes)
            total)
        [ 100; 300; 1000 ])
    [
      ("bare", Workload.Gen_model.structural);
      ("stereotyped", Workload.Gen_model.stereotyped);
    ]

let e12_report () =
  sep "E12  whole-model lint wall-time vs model size";
  Printf.printf "%-8s %-10s %-12s %10s %14s\n" "classes" "elements"
    "diagnostics" "ms" "us/element";
  List.iter
    (fun classes ->
      let m = e12_model classes in
      let elements = Mda.Generate.model_element_count m in
      let diags = Lint.Check.check_model m in
      let best = best_of_3 (fun () -> Lint.Check.check_model m) in
      Printf.printf "%-8d %-10d %-12d %10.2f %14.1f\n" classes elements
        (List.length diags) (1e3 *. best)
        (1e6 *. best /. float_of_int elements);
      record_f (Printf.sprintf "e12.lint_ms.classes%03d" classes)
        (1e3 *. best);
      record_i (Printf.sprintf "e12.diagnostics.classes%03d" classes)
        (List.length diags))
    [ 10; 50; 200; 500 ];
  e12_validate_report ()

let e12_tests () =
  let m = e12_model 200 in
  [
    Bechamel.Test.make ~name:"e12/lint-200-class-model"
      (Bechamel.Staged.stage (fun () -> ignore (Lint.Check.check_model m)));
  ]

(* ------------------------------------------------------------------ *)
(* E13: compiled execution core vs reference paths                     *)

(* A net of [pairs] independent two-place toggles: place a_i holds a
   token that t_i_ab moves to b_i and t_i_ba moves back.  The reachable
   space is the full product, 2^pairs markings, so [pairs = 14] gives a
   16384-state space that both engines truncate at limit 10_000. *)
let e13_toggle_net pairs =
  let a i = Printf.sprintf "a%d" i
  and b i = Printf.sprintf "b%d" i in
  let idx = List.init pairs (fun i -> i) in
  let places =
    List.concat_map (fun i -> [ Petri.Net.place (a i); Petri.Net.place (b i) ]) idx
  in
  let transitions =
    List.concat_map
      (fun i ->
        [
          Petri.Net.transition (Printf.sprintf "t%d_ab" i);
          Petri.Net.transition (Printf.sprintf "t%d_ba" i);
        ])
      idx
  in
  let arcs =
    List.concat_map
      (fun i ->
        let ab = Printf.sprintf "t%d_ab" i
        and ba = Printf.sprintf "t%d_ba" i in
        [
          Petri.Net.P_to_t (a i, ab, 1);
          Petri.Net.T_to_p (ab, b i, 1);
          Petri.Net.P_to_t (b i, ba, 1);
          Petri.Net.T_to_p (ba, a i, 1);
        ])
      idx
  in
  let net = Petri.Net.make places transitions arcs in
  let m0 = Petri.Marking.of_list (List.map (fun i -> (a i, 1)) idx) in
  (net, m0)

(* The historical lint ACT pass over one activity: one reachability
   exploration for the deadlock question, then dead_transitions, which
   internally ran a second exploration plus an enabled-scan over every
   discovered marking. *)
let e13_lint_reference net m0 =
  let limit = 4096 in
  let r1 = Oracles.Petri_ref.reachable ~limit net m0 in
  let deadlocks = List.length r1.Petri.Analysis.deadlocks in
  let r2 = Oracles.Petri_ref.reachable ~limit net m0 in
  let module S = Set.Make (String) in
  let fired =
    List.fold_left
      (fun acc m ->
        List.fold_left
          (fun acc tn -> S.add tn.Petri.Net.tn_id acc)
          acc
          (Petri.Marking.enabled_transitions net m))
      S.empty r2.Petri.Analysis.markings
  in
  let dead =
    List.filter
      (fun tn -> not (S.mem tn.Petri.Net.tn_id fired))
      net.Petri.Net.transitions
  in
  (deadlocks, List.length dead)

let e13_lint_compiled net m0 =
  let s =
    Petri.Analysis.summary (Petri.Analysis.exploration ~limit:4096 net m0)
  in
  ( List.length s.Petri.Analysis.sum_deadlocks,
    List.length s.Petri.Analysis.sum_dead_transitions )

(* initial -> fork -> [branches] chains of [length] actions -> join ->
   final: (length + 1)^branches + 4 reachable markings. *)
let e13_fork_activity ~branches ~length =
  let module A = Uml.Activityg in
  let init = A.initial () and final = A.activity_final () in
  let fork = A.fork "fork" and join = A.join "join" in
  let edge a b = A.edge ~source:(A.node_id a) ~target:(A.node_id b) () in
  let chains =
    List.init branches (fun b ->
        List.init length (fun i -> A.action (Printf.sprintf "a%d_%d" b i)))
  in
  let rec link from nodes =
    match nodes with
    | n :: rest -> edge from n :: link n rest
    | [] -> [ edge from join ]
  in
  A.make "fork"
    (init :: fork :: join :: final :: List.concat chains)
    (edge init fork :: edge join final :: List.concat_map (link fork) chains)

(* A merge-based loop around a fork: one more token per lap. *)
let e13_pump_activity () =
  let module A = Uml.Activityg in
  let init = A.initial () and mg = A.merge "m" and a = A.action "a" in
  let f = A.fork "f" and b = A.action "b" in
  let edge s t = A.edge ~source:(A.node_id s) ~target:(A.node_id t) () in
  A.make "pump" [ init; mg; a; f; b ]
    [ edge init mg; edge mg a; edge a f; edge f mg; edge f b ]

(* What an analyze request computes per activity: the bounded verdict
   (Karp–Miller, 10 000 nodes), the reachability report at 5 000
   markings, and the ACT rules' answers at 4 096.  The four-exploration
   shape replays the way analyze used to compute them on this tree's
   primitives: Karp–Miller (twice when unbounded, once more to list the
   places), a 5 000-marking exploration exported to string maps, and
   the lint pass's own exported 4 096-marking exploration and
   Karp–Miller.  The one-exploration shape is the current analyze. *)
let e13_analyze_four net m0 =
  let bounded = Petri.Coverability.is_bounded net m0 in
  let places =
    if bounded = Some false then
      (Petri.Coverability.analyse net m0).Petri.Coverability.unbounded_places
    else []
  in
  let report = Petri.Analysis.reachable ~limit:5000 net m0 in
  let act = Petri.Analysis.reachable ~limit:4096 net m0 in
  ( (bounded, places),
    ( report.Petri.Analysis.state_count,
      List.length report.Petri.Analysis.deadlocks ),
    ( List.length act.Petri.Analysis.deadlocks,
      Petri.Coverability.is_bounded ~limit:4096 net m0 ) )

let e13_analyze_one net m0 =
  let ex = Petri.Analysis.exploration ~metered:5000 net m0 in
  let cov = Petri.Analysis.coverability ex in
  let report = Petri.Analysis.summary ~limit:5000 ex in
  let act = Petri.Analysis.summary ~limit:4096 ex in
  ( ( Petri.Coverability.verdict cov,
      cov.Petri.Coverability.unbounded_places ),
    ( report.Petri.Analysis.sum_state_count,
      List.length report.Petri.Analysis.sum_deadlocks ),
    ( List.length act.Petri.Analysis.sum_deadlocks,
      Petri.Coverability.verdict (Petri.Analysis.coverability ~limit:4096 ex)
    ) )

(* The ACT pass alone on one activity, before (an exported 4 096-marking
   exploration plus Karp–Miller at 4 096) and now (one exploration to
   10 000, Karp–Miller only when that does not settle boundedness). *)
let e13_act_before net m0 =
  let r = Petri.Analysis.reachable ~limit:4096 net m0 in
  ( List.length r.Petri.Analysis.deadlocks,
    Petri.Coverability.is_bounded ~limit:4096 net m0 )

let e13_act_now net m0 =
  let ex = Petri.Analysis.exploration net m0 in
  let s = Petri.Analysis.summary ~limit:4096 ex in
  ( List.length s.Petri.Analysis.sum_deadlocks,
    Petri.Coverability.verdict (Petri.Analysis.coverability ~limit:4096 ex) )

let e13_time f =
  (* best of three to damp scheduler noise *)
  let best = ref infinity in
  for _ = 1 to 3 do
    let t0 = Sys.time () in
    f ();
    let dt = Sys.time () -. t0 in
    if dt < !best then best := dt
  done;
  !best

let e13_report () =
  sep "E13  compiled execution core vs reference paths";
  (* (a) guard evaluation: parse-per-eval vs memoized compilation *)
  let guard_src = "(x + 3) * 2 > y and not (x * x < y)" in
  let interp = Asl.Interp.create (Asl.Store.create ()) in
  let iters = 50_000 in
  let params i = [ ("x", Asl.Value.V_int (i land 15)); ("y", Asl.Value.V_int 9) ] in
  let baseline () =
    for i = 1 to iters do
      ignore
        (Asl.Interp.eval ~params:(params i) interp
           (Asl.Parser.parse_expression guard_src))
    done
  in
  let memoized () =
    for i = 1 to iters do
      ignore (Asl.Interp.eval_guard ~params:(params i) interp guard_src)
    done
  in
  let t_base = e13_time baseline in
  let t_memo = e13_time memoized in
  let guard_speedup = t_base /. (t_memo +. 1e-9) in
  Printf.printf
    "guard eval, %d iters:  parse-per-eval %7.1f ms (%8.0f evals/s)\n" iters
    (1e3 *. t_base)
    (float_of_int iters /. (t_base +. 1e-9));
  Printf.printf
    "                       memoized       %7.1f ms (%8.0f evals/s)  %5.1fx\n"
    (1e3 *. t_memo)
    (float_of_int iters /. (t_memo +. 1e-9))
    guard_speedup;
  record_f "e13.guard_evals_per_s.baseline"
    (float_of_int iters /. (t_base +. 1e-9));
  record_f "e13.guard_evals_per_s.memoized"
    (float_of_int iters /. (t_memo +. 1e-9));
  record_f "e13.speedup.guard_eval" guard_speedup;
  (* (b) the E12 lint ACT workload shape: per-activity analysis of the
     standard decision-heavy activity, 25 activities' worth *)
  let act = Workload.Gen_activity.with_decisions ~seed:7 ~size:14 ~max_width:3 in
  let net, m0 = Activity.Translate.to_petri act in
  let sanity_ref = e13_lint_reference net m0 in
  let sanity_cmp = e13_lint_compiled net m0 in
  let reps = 25 in
  let t_lref =
    e13_time (fun () ->
        for _ = 1 to reps do
          ignore (e13_lint_reference net m0)
        done)
  in
  let t_lcmp =
    e13_time (fun () ->
        for _ = 1 to reps do
          ignore (e13_lint_compiled net m0)
        done)
  in
  let lint_speedup = t_lref /. (t_lcmp +. 1e-9) in
  Printf.printf
    "lint ACT shape x%d:    reference      %7.1f ms   compiled %7.1f ms  \
     %5.1fx  (agree: %b)\n"
    reps (1e3 *. t_lref) (1e3 *. t_lcmp) lint_speedup
    (sanity_ref = sanity_cmp);
  record_f "e13.lint_shape_ms.reference" (1e3 *. t_lref);
  record_f "e13.lint_shape_ms.compiled" (1e3 *. t_lcmp);
  record_b "e13.lint_shape_agree" (sanity_ref = sanity_cmp);
  record_f "e13.speedup.lint_shape" lint_speedup;
  (* (b') the analyze request shape: four explorations vs one *)
  List.iter
    (fun (label, key, act) ->
      let net, m0 = Activity.Translate.to_petri act in
      let agree = e13_analyze_four net m0 = e13_analyze_one net m0 in
      let t_four = e13_time (fun () -> ignore (e13_analyze_four net m0)) in
      let t_one = e13_time (fun () -> ignore (e13_analyze_one net m0)) in
      Printf.printf
        "analyze shape, %-9s four explorations %7.1f ms   one %7.1f ms  \
         %5.1fx  (agree: %b)\n"
        label (1e3 *. t_four) (1e3 *. t_one)
        (t_four /. (t_one +. 1e-9))
        agree;
      record_f ("e13.analyze_shape_ms.four." ^ key) (1e3 *. t_four);
      record_f ("e13.analyze_shape_ms.one." ^ key) (1e3 *. t_one);
      record_b ("e13.analyze_shape_agree." ^ key) agree;
      let act_agree = e13_act_before net m0 = e13_act_now net m0 in
      let t_before = e13_time (fun () -> ignore (e13_act_before net m0)) in
      let t_now = e13_time (fun () -> ignore (e13_act_now net m0)) in
      Printf.printf
        "lint ACT,      %-9s to 4096 + KM      %7.1f ms   now %7.1f ms  \
         %5.2fx  (agree: %b)\n"
        label (1e3 *. t_before) (1e3 *. t_now)
        (t_before /. (t_now +. 1e-9))
        act_agree;
      record_f ("e13.act_shape_ms.before." ^ key) (1e3 *. t_before);
      record_f ("e13.act_shape_ms.now." ^ key) (1e3 *. t_now);
      record_b ("e13.act_shape_agree." ^ key) act_agree)
    [
      ("fork 4x8", "fork_4x8", e13_fork_activity ~branches:4 ~length:8);
      ("pump", "pump", e13_pump_activity ());
    ];
  (* (c) a 10k-state reachability exploration *)
  let tnet, tm0 = e13_toggle_net 14 in
  let limit = 10_000 in
  let r_ref = ref 0 and r_cmp = ref 0 in
  let t_rref =
    e13_time (fun () ->
        let r = Oracles.Petri_ref.reachable ~limit tnet tm0 in
        r_ref := r.Petri.Analysis.state_count)
  in
  let t_rcmp =
    e13_time (fun () ->
        let r = Petri.Analysis.reachable ~limit tnet tm0 in
        r_cmp := r.Petri.Analysis.state_count)
  in
  let reach_speedup = t_rref /. (t_rcmp +. 1e-9) in
  Printf.printf
    "reachability %5d st: reference      %7.1f ms   compiled %7.1f ms  \
     %5.1fx  (agree: %b)\n"
    !r_ref (1e3 *. t_rref) (1e3 *. t_rcmp) reach_speedup (!r_ref = !r_cmp);
  record_i "e13.reach_10k.state_count" !r_cmp;
  record_f "e13.reach_10k_ms.reference" (1e3 *. t_rref);
  record_f "e13.reach_10k_ms.compiled" (1e3 *. t_rcmp);
  record_b "e13.reach_10k_agree" (!r_ref = !r_cmp);
  record_f "e13.speedup.reachability_10k" reach_speedup

let e13_tests () =
  let guard_src = "(x + 3) * 2 > y and not (x * x < y)" in
  let interp = Asl.Interp.create (Asl.Store.create ()) in
  let params = [ ("x", Asl.Value.V_int 5); ("y", Asl.Value.V_int 9) ] in
  let act = Workload.Gen_activity.with_decisions ~seed:7 ~size:14 ~max_width:3 in
  let net, m0 = Activity.Translate.to_petri act in
  let tnet, tm0 = e13_toggle_net 10 in
  [
    Bechamel.Test.make ~name:"e13/guard-parse-per-eval"
      (Bechamel.Staged.stage (fun () ->
           ignore
             (Asl.Interp.eval ~params interp
                (Asl.Parser.parse_expression guard_src))));
    Bechamel.Test.make ~name:"e13/guard-memoized"
      (Bechamel.Staged.stage (fun () ->
           ignore (Asl.Interp.eval_guard ~params interp guard_src)));
    Bechamel.Test.make ~name:"e13/lint-shape-reference"
      (Bechamel.Staged.stage (fun () -> ignore (e13_lint_reference net m0)));
    Bechamel.Test.make ~name:"e13/lint-shape-compiled"
      (Bechamel.Staged.stage (fun () -> ignore (e13_lint_compiled net m0)));
    Bechamel.Test.make ~name:"e13/reach-1024-reference"
      (Bechamel.Staged.stage (fun () ->
           ignore (Oracles.Petri_ref.reachable ~limit:2000 tnet tm0)));
    Bechamel.Test.make ~name:"e13/reach-1024-compiled"
      (Bechamel.Staged.stage (fun () ->
           ignore (Petri.Analysis.reachable ~limit:2000 tnet tm0)));
  ]

(* ------------------------------------------------------------------ *)
(* E14: compiled netlist engine vs reference interpreter               *)

let e14_run_ref flat cycles =
  let sim = Oracles.Sim.create flat in
  Oracles.Sim.set_input sim "rst" 1;
  Oracles.Sim.clock_edge sim "clk";
  Oracles.Sim.set_input sim "rst" 0;
  let t0 = Sys.time () in
  Oracles.Sim.run sim ~clock:"clk" ~cycles;
  (Sys.time () -. t0, Oracles.Sim.snapshot sim)

let e14_run_fast flat cycles =
  let sim = Dsim.Fast.create flat in
  Dsim.Fast.set_input sim "rst" 1;
  Dsim.Fast.clock_edge sim "clk";
  Dsim.Fast.set_input sim "rst" 0;
  let t0 = Sys.time () in
  Dsim.Fast.run sim ~clock:"clk" ~cycles;
  (Sys.time () -. t0, Dsim.Fast.snapshot sim)

let e14_report () =
  sep "E14  compiled netlist engine vs reference interpreter";
  List.iter
    (fun n ->
      let flat = e10_flat n in
      let cycles = 2000 in
      let t_ref, snap_ref = e14_run_ref flat cycles in
      let t_fast, snap_fast = e14_run_fast flat cycles in
      let rate_ref = float_of_int cycles /. (t_ref +. 1e-9) in
      let rate_fast = float_of_int cycles /. (t_fast +. 1e-9) in
      let speedup = rate_fast /. rate_ref in
      let agree = snap_ref = snap_fast in
      Printf.printf
        "%2d IPs: reference %8.0f cycles/s, compiled %8.0f cycles/s \
         (%.1fx), snapshots agree: %b\n"
        n rate_ref rate_fast speedup agree;
      record_f (Printf.sprintf "e14.cycles_per_s.reference%02d" n) rate_ref;
      record_f (Printf.sprintf "e14.cycles_per_s.compiled%02d" n) rate_fast;
      record_f (Printf.sprintf "e14.speedup.ips%02d" n) speedup;
      record_b (Printf.sprintf "e14.agree.ips%02d" n) agree)
    [ 4; 8; 16; 32 ]

let e14_tests () =
  let flat = e10_flat 8 in
  [
    Bechamel.Test.make ~name:"e14/8ip-100-cycles-reference"
      (Bechamel.Staged.stage (fun () ->
           let sim = Oracles.Sim.create flat in
           Oracles.Sim.run sim ~clock:"clk" ~cycles:100));
    Bechamel.Test.make ~name:"e14/8ip-100-cycles-compiled"
      (Bechamel.Staged.stage (fun () ->
           let sim = Dsim.Fast.create flat in
           Dsim.Fast.run sim ~clock:"clk" ~cycles:100));
  ]

(* ------------------------------------------------------------------ *)
(* E15: fault-injection campaign throughput                            *)

let e15_spec flat =
  let inputs =
    List.filter_map
      (fun (p : Hdl.Module_.port) ->
        match p.Hdl.Module_.port_dir with
        | Hdl.Module_.Input ->
          if p.Hdl.Module_.port_name = "clk" || p.Hdl.Module_.port_name = "rst"
          then None
          else Some p.Hdl.Module_.port_name
        | Hdl.Module_.Output -> None)
      flat.Hdl.Module_.mod_ports
  in
  let cycles = 64 in
  let rng = Workload.Prng.create 0x15 in
  let stimulus =
    List.init cycles (fun c ->
        ( c,
          List.filter_map
            (fun name ->
              if Workload.Prng.bool rng then
                Some (name, Workload.Prng.int rng 256)
              else None)
            inputs ))
  in
  {
    Fault.Campaign.rs_module = flat;
    rs_clock = "clk";
    rs_reset = Some "rst";
    rs_stimulus = stimulus;
    rs_cycles = cycles;
    rs_settle_budget = 1000;
  }

let e15_plan flat n_faults =
  let surface =
    {
      Fault.Plan.su_signals =
        List.map
          (fun (s : Hdl.Module_.signal) ->
            (s.Hdl.Module_.sig_name, Hdl.Htype.width s.Hdl.Module_.sig_type))
          flat.Hdl.Module_.mod_signals;
      su_cycles = 64;
      su_events = [];
      su_length = 0;
      su_places = [];
      su_steps = 0;
    }
  in
  Fault.Plan.generate ~seed:0x15 ~count:n_faults surface

let e15_report () =
  sep "E15  fault-injection campaign throughput (compiled RTL engine)";
  List.iter
    (fun n ->
      let flat = e10_flat n in
      let spec = e15_spec flat in
      let faults = 24 in
      let plan = e15_plan flat faults in
      let t0 = Sys.time () in
      let report = Fault.Campaign.run ~rtl:spec ~label:"bench" plan in
      let dt = Sys.time () -. t0 in
      let t = Fault.Campaign.totals report in
      (* golden run + one run per injected fault *)
      let runs = 1 + t.Fault.Campaign.t_injected in
      let runs_per_s = float_of_int runs /. (dt +. 1e-9) in
      let faults_per_s =
        float_of_int t.Fault.Campaign.t_injected /. (dt +. 1e-9)
      in
      Printf.printf
        "%2d IPs: %2d faults -> %6.1f runs/s, %6.1f faults/s \
         (masked %d, detected %d, silent %d, truncated %d)\n"
        n t.Fault.Campaign.t_injected runs_per_s faults_per_s
        t.Fault.Campaign.t_masked t.Fault.Campaign.t_detected
        t.Fault.Campaign.t_silent t.Fault.Campaign.t_truncated;
      record_f (Printf.sprintf "e15.runs_per_s.ips%02d" n) runs_per_s;
      record_f (Printf.sprintf "e15.faults_per_s.ips%02d" n) faults_per_s;
      record_i (Printf.sprintf "e15.masked.ips%02d" n)
        t.Fault.Campaign.t_masked;
      record_i (Printf.sprintf "e15.detected.ips%02d" n)
        t.Fault.Campaign.t_detected;
      record_i (Printf.sprintf "e15.silent.ips%02d" n)
        t.Fault.Campaign.t_silent;
      record_i (Printf.sprintf "e15.truncated.ips%02d" n)
        t.Fault.Campaign.t_truncated;
      record_f (Printf.sprintf "e15.coverage.ips%02d" n)
        (Fault.Campaign.coverage t))
    [ 4; 8; 16 ]

(* The token domains on the 4x8 fork activity perfbench's [verify]
   injects into: one 12-token-fault campaign per backend, repeated to
   get past the CPU clock's resolution, best of three. *)
let e15_token_report () =
  let act = e13_fork_activity ~branches:4 ~length:8 in
  let net, m0 = Activity.Translate.to_petri act in
  let surface =
    {
      Fault.Plan.su_signals = [];
      su_cycles = 0;
      su_events = [];
      su_length = 0;
      su_places = List.map (fun p -> p.Petri.Net.pl_id) net.Petri.Net.places;
      su_steps = 32;
    }
  in
  let plan = Fault.Plan.generate ~seed:0x15 ~count:12 surface in
  let activity =
    {
      Fault.Campaign.ac_activity = act;
      ac_choice_seed = 0x15;
      ac_max_steps = 10_000;
    }
  in
  let net_spec =
    {
      Fault.Campaign.np_net = net;
      np_marking = m0;
      np_choice_seed = 0x15;
      np_max_steps = 10_000;
    }
  in
  List.iter
    (fun (domain, campaign) ->
      let reps = 20 in
      let t = Fault.Campaign.totals (campaign ()) in
      let dt =
        e13_time (fun () ->
            for _ = 1 to reps do
              ignore (campaign ())
            done)
      in
      (* golden run + one run per injected fault, per repetition *)
      let runs = reps * (1 + t.Fault.Campaign.t_injected) in
      let runs_per_s = float_of_int runs /. (dt +. 1e-9) in
      Printf.printf
        "token %-8s: %2d faults -> %8.1f runs/s \
         (masked %d, detected %d, silent %d, truncated %d)\n"
        domain t.Fault.Campaign.t_injected runs_per_s
        t.Fault.Campaign.t_masked t.Fault.Campaign.t_detected
        t.Fault.Campaign.t_silent t.Fault.Campaign.t_truncated;
      record_f ("e15.token_runs_per_s." ^ domain) runs_per_s)
    [
      ("activity", fun () -> Fault.Campaign.run ~activity ~label:"bench" plan);
      ("petri", fun () -> Fault.Campaign.run ~net:net_spec ~label:"bench" plan);
    ]

let e15_tests () =
  let flat = e10_flat 4 in
  let spec = e15_spec flat in
  let plan = e15_plan flat 8 in
  [
    Bechamel.Test.make ~name:"e15/4ip-8-fault-campaign"
      (Bechamel.Staged.stage (fun () ->
           ignore (Fault.Campaign.run ~rtl:spec ~label:"bench" plan)));
  ]

(* ------------------------------------------------------------------ *)
(* E16: multicore scaling of fault campaigns                          *)

(* Wall clock, not [Sys.time]: domain parallelism never shows up in
   CPU seconds.  Best of three to damp scheduler noise. *)
let e16_time f =
  let best = ref infinity in
  for _ = 1 to 3 do
    let t0 = Unix.gettimeofday () in
    f ();
    let dt = Unix.gettimeofday () -. t0 in
    if dt < !best then best := dt
  done;
  !best

let e16_report () =
  sep "E16  multicore scaling (work-stealing pool, byte-identical output)";
  let flat = e10_flat 8 in
  let spec = e15_spec flat in
  let plan = e15_plan flat 24 in
  let campaign pool = Fault.Campaign.run ?pool ~rtl:spec ~label:"bench" plan in
  let campaign_text = Fault.Campaign.to_text (campaign None) in
  let t_campaign_seq = e16_time (fun () -> ignore (campaign None)) in
  record_f "e16.campaign_ms.jobs01" (1e3 *. t_campaign_seq);
  Printf.printf "jobs 1: campaign %6.1f ms (sequential baseline)\n"
    (1e3 *. t_campaign_seq);
  List.iter
    (fun jobs ->
      Exec.Pool.with_pool ~jobs (fun p ->
          let pool = Some p in
          let c_agree =
            String.equal campaign_text (Fault.Campaign.to_text (campaign pool))
          in
          let t_c = e16_time (fun () -> ignore (campaign pool)) in
          Printf.printf "jobs %d: campaign %6.1f ms (%4.2fx, agree %b)\n" jobs
            (1e3 *. t_c)
            (t_campaign_seq /. (t_c +. 1e-9))
            c_agree;
          record_f (Printf.sprintf "e16.campaign_ms.jobs%02d" jobs)
            (1e3 *. t_c);
          record_f
            (Printf.sprintf "e16.campaign_speedup.jobs%02d" jobs)
            (t_campaign_seq /. (t_c +. 1e-9));
          record_b (Printf.sprintf "e16.campaign_agree.jobs%02d" jobs) c_agree))
    [ 2; 4; 8 ]

let e16_tests () =
  (* process-lifetime pool: bechamel stages the same closure many
     times, so the pool must outlive this function *)
  let pool = Exec.Pool.create ~jobs:4 in
  let flat = e10_flat 4 in
  let spec = e15_spec flat in
  let plan = e15_plan flat 8 in
  [
    Bechamel.Test.make ~name:"e16/campaign-jobs4"
      (Bechamel.Staged.stage (fun () ->
           ignore (Fault.Campaign.run ~pool ~rtl:spec ~label:"bench" plan)));
  ]

(* ------------------------------------------------------------------ *)
(* E17: dataflow lint tier cost per model shape                        *)

(* The static-analysis tier must stay cheap enough to run on every
   lint: measure the ASL/event passes against growing generated models
   and the netlist clock/reset pass against growing SoC designs.  The
   finding counts are recorded too — healthy generated models must stay
   at zero (no spurious fires as the substrate evolves; the defect
   showcase behind @lint-demo owns the positive direction). *)
let e17_model classes =
  Uml.Ident.reset_counter ();
  let m = Workload.Gen_model.structural ~seed:17 ~classes in
  Uml.Model.add m
    (Uml.Model.E_state_machine
       (Workload.Gen_statechart.hierarchical ~seed:17 ~depth:3 ~breadth:2
          ~events:4));
  Uml.Model.add m
    (Uml.Model.E_activity
       (Workload.Gen_activity.with_decisions ~seed:17 ~size:classes
          ~max_width:3));
  m

let e17_report () =
  sep "E17  dataflow lint tier cost (ASL abstract interpretation + netlist)";
  List.iter
    (fun classes ->
      let m = e17_model classes in
      let diags = Lint.Df_pass.check_model m in
      let t = e16_time (fun () -> ignore (Lint.Df_pass.check_model m)) in
      Printf.printf "model  %3d classes: %7.2f ms, %d findings\n" classes
        (1e3 *. t) (List.length diags);
      record_f (Printf.sprintf "e17.model_ms.classes%03d" classes) (1e3 *. t);
      record_i
        (Printf.sprintf "e17.model_findings.classes%03d" classes)
        (List.length diags))
    [ 10; 20; 40 ];
  (* loops are the normal case for action bodies: 144 effects that each
     run a [for] and a [while], and a large body-less activity for the
     cross-action must-defined fixpoint *)
  List.iter
    (fun (key, label, element) ->
      Uml.Ident.reset_counter ();
      let m = Uml.Model.create "e17" in
      Uml.Model.add m element;
      let diags = Lint.Df_pass.check_model m in
      let t = e16_time (fun () -> ignore (Lint.Df_pass.check_model m)) in
      Printf.printf "%s %s: %7.2f ms, %d findings\n" key label (1e3 *. t)
        (List.length diags);
      record_f (Printf.sprintf "e17.%s_ms.%s" key label) (1e3 *. t);
      record_i
        (Printf.sprintf "e17.%s_findings.%s" key label)
        (List.length diags))
    [
      ( "asl_machine", "states12",
        Uml.Model.E_state_machine
          (Workload.Gen_statechart.asl_heavy ~seed:17 ~states:12 ~events:6) );
      ( "activity", "size1000",
        Uml.Model.E_activity
          (Workload.Gen_activity.series_parallel ~seed:17 ~size:1000
             ~max_width:3) );
    ];
  List.iter
    (fun ips ->
      let design = Iplib.Soc.design ~name:"soc" (soc_instances ips) in
      let diags = Lint.Df_pass.check_design design in
      let t = e16_time (fun () -> ignore (Lint.Df_pass.check_design design)) in
      Printf.printf "design %3d IPs:     %7.2f ms, %d findings\n" ips
        (1e3 *. t) (List.length diags);
      record_f (Printf.sprintf "e17.netlist_ms.ips%02d" ips) (1e3 *. t);
      record_i
        (Printf.sprintf "e17.netlist_findings.ips%02d" ips)
        (List.length diags))
    [ 4; 8; 16 ]

let e17_tests () =
  let m = e17_model 20 in
  let design = Iplib.Soc.design ~name:"soc" (soc_instances 8) in
  [
    Bechamel.Test.make ~name:"e17/dataflow-model-20"
      (Bechamel.Staged.stage (fun () -> ignore (Lint.Df_pass.check_model m)));
    Bechamel.Test.make ~name:"e17/dataflow-netlist-8ip"
      (Bechamel.Staged.stage (fun () ->
           ignore (Lint.Df_pass.check_design design)));
  ]

(* ------------------------------------------------------------------ *)
(* E18: binary snapshots vs XMI — the model-load tax                   *)

(* Per-call wall clock for sub-millisecond work: one call is dominated
   by timer granularity and whichever minor GC happens to land in it,
   so repeat until a batch spans ~20 ms and take the best of three
   batch averages.  Import and load go through the same harness, so
   the ratio is method-fair. *)
let e18_time f =
  ignore (Sys.opaque_identity (f ()));
  let t0 = Unix.gettimeofday () in
  ignore (Sys.opaque_identity (f ()));
  let once = Unix.gettimeofday () -. t0 in
  let reps = max 1 (min 2000 (int_of_float (0.02 /. Float.max 1e-6 once))) in
  let best = ref infinity in
  for _ = 1 to 3 do
    let t0 = Unix.gettimeofday () in
    for _ = 1 to reps do
      ignore (Sys.opaque_identity (f ()))
    done;
    let dt = (Unix.gettimeofday () -. t0) /. float_of_int reps in
    if dt < !best then best := dt
  done;
  !best

(* Words one call of [f] allocates, over [n] calls: the work column,
   which unlike the time does not move with the host's load.  [minor]
   counts the minor heap; [total] adds the blocks too large for it (over
   256 words, such as a scanned document's index arrays), which go
   straight to the major heap.  The minor count comes from
   [Gc.minor_words]: the one in [Gc.counters] moves only at minor
   collections on OCaml 5, so it varies with their timing. *)
let words_per_call n f =
  let minor0 = Gc.minor_words () and _, promoted0, major0 = Gc.counters () in
  for _ = 1 to n do
    ignore (Sys.opaque_identity (f ()))
  done;
  let minor1 = Gc.minor_words () and _, promoted1, major1 = Gc.counters () in
  let per x = x /. float_of_int n in
  let minor = per (minor1 -. minor0) in
  (minor, minor +. per (major1 -. major0 -. (promoted1 -. promoted0)))

let e18_report () =
  sep "E18  snapshot load vs XMI import";
  List.iter
    (fun classes ->
      let m = Workload.Gen_model.structural ~seed:3 ~classes in
      let xmi = Xmi.Write.to_string m in
      let snap = Snap.Write.to_string m in
      let import () = Xmi.Read.model_of_string xmi in
      let t_import = e18_time import in
      (* the import split into its two layers: XML text to offset index,
         index to model *)
      let scan () = Sxml.Index.scan xmi in
      let t_scan = e18_time scan in
      let ix = scan () in
      let decode () = Xmi.Read.of_index ix in
      let t_decode = e18_time decode in
      let load () = Snap.Read.model_of_string snap in
      let t_load = e18_time load in
      let words f = words_per_call 10 f in
      let w_import = words import and w_scan = words scan
      and w_decode = words decode and w_load = words load in
      let t_export = e18_time (fun () -> ignore (Xmi.Write.to_string m)) in
      let t_pack = e18_time (fun () -> ignore (Snap.Write.to_string m)) in
      (* speed-of-light reference: [Marshal] is an unsafe C-level loader
         of the same graph — it bounds what any decoder can reach *)
      let mar = Marshal.to_string m [] in
      let t_marshal =
        e18_time (fun () ->
            ignore (Marshal.from_string mar 0 : Uml.Model.t))
      in
      let lossless = Uml.Model.equal m (Snap.Read.model_of_string snap) in
      Printf.printf
        "%-6d classes: import %8.3f ms (scan %7.3f + decode %7.3f) -> load \
         %8.3f ms (%6.1fx, marshal floor %6.3f ms), %7d -> %6d bytes, \
         lossless: %b\n"
        classes (1e3 *. t_import) (1e3 *. t_scan) (1e3 *. t_decode)
        (1e3 *. t_load) (t_import /. t_load) (1e3 *. t_marshal)
        (String.length xmi) (String.length snap) lossless;
      Printf.printf
        "%-6d classes: kwords minor/total: import %8.1f/%8.1f (scan \
         %7.1f/%7.1f + decode %7.1f/%7.1f), load %7.1f/%7.1f\n"
        classes (fst w_import /. 1e3) (snd w_import /. 1e3)
        (fst w_scan /. 1e3) (snd w_scan /. 1e3) (fst w_decode /. 1e3)
        (snd w_decode /. 1e3) (fst w_load /. 1e3) (snd w_load /. 1e3);
      let key fmt = Printf.sprintf fmt classes in
      record_f (key "e18.xmi_import_ms.classes%04d") (1e3 *. t_import);
      record_f (key "e18.xmi_scan_ms.classes%04d") (1e3 *. t_scan);
      record_f (key "e18.xmi_decode_ms.classes%04d") (1e3 *. t_decode);
      List.iter
        (fun (layer, (minor, total)) ->
          let key what =
            Printf.sprintf "e18.%s_%s_words.classes%04d" layer what classes
          in
          record_f (key "minor") minor;
          record_f (key "alloc") total)
        [ ("xmi_import", w_import); ("xmi_scan", w_scan);
          ("xmi_decode", w_decode); ("snap_load", w_load) ];
      record_f (key "e18.snap_load_ms.classes%04d") (1e3 *. t_load);
      record_f (key "e18.load_speedup.classes%04d") (t_import /. t_load);
      record_f (key "e18.marshal_load_ms.classes%04d") (1e3 *. t_marshal);
      record_f (key "e18.export_ms.classes%04d") (1e3 *. t_export);
      record_f (key "e18.pack_ms.classes%04d") (1e3 *. t_pack);
      record_i (key "e18.xmi_bytes.classes%04d") (String.length xmi);
      record_i (key "e18.snap_bytes.classes%04d") (String.length snap);
      record_b (key "e18.roundtrip_lossless.classes%04d") lossless)
    [ 10; 100; 1000 ]

let e18_tests () =
  let m = Workload.Gen_model.structural ~seed:3 ~classes:200 in
  let snap = Snap.Write.to_string m in
  [
    Bechamel.Test.make ~name:"e18/pack-200-classes"
      (Bechamel.Staged.stage (fun () -> ignore (Snap.Write.to_string m)));
    Bechamel.Test.make ~name:"e18/load-200-classes"
      (Bechamel.Staged.stage (fun () ->
           ignore (Snap.Read.model_of_string snap)));
  ]

(* ------------------------------------------------------------------ *)
(* E19: serve warm-cache requests vs cold one-shot loads               *)

(* Drive the daemon exactly as a client would — one request line in,
   one response line out — so the measured path includes JSON decode,
   cache lookup, op execution and response encode. *)
let e19_request daemon line =
  match Serve.Daemon.handle_line daemon line with
  | Some _, _ -> ()
  | None, _ -> failwith "e19: request produced no response"

(* Fresh daemon per call: every request pays the full model-load tax. *)
let e19_cold line =
  e18_time (fun () -> e19_request (Serve.Daemon.create ()) line)

(* One daemon, primed once: every timed request hits the artifact
   cache. *)
let e19_warm line =
  let daemon = Serve.Daemon.create () in
  e19_request daemon line;
  e18_time (fun () -> e19_request daemon line)

(* Words one request allocates on a primed daemon (see
   [words_per_call]; a whole generated answer is a major-heap block). *)
let e19_words line =
  let daemon = Serve.Daemon.create () in
  e19_request daemon line;
  e19_request daemon line;
  words_per_call 50 (fun () -> e19_request daemon line)

(* Sleep until every file's mtime and ctime predate the serve cache's
   racy window, so the next verification of their bytes makes the stat
   memo trusted. *)
let e19_settle paths =
  let newest =
    List.fold_left
      (fun acc p ->
        let st = Unix.stat p in
        Float.max acc (Float.max st.Unix.st_mtime st.Unix.st_ctime))
      0. paths
  in
  let wait =
    newest +. Serve.Cache.racy_window_s +. 0.1 -. Unix.gettimeofday ()
  in
  if wait > 0. then Unix.sleepf wait

let e19_model ~classes =
  let m = Workload.Gen_model.structural ~seed:7 ~classes in
  Uml.Model.add m
    (Uml.Model.E_state_machine
       (Workload.Gen_statechart.flat ~seed:7 ~states:48 ~events:8));
  let xmi = Filename.temp_file "socuml_e19" ".xmi" in
  let snap = Filename.temp_file "socuml_e19" ".sumb" in
  Xmi.Write.write_file m xmi;
  Snap.Write.write_file m snap;
  (xmi, snap)

let e19_report () =
  sep "E19  serve: warm-cache requests vs cold model loads";
  let big = e19_model ~classes:1000 and small = e19_model ~classes:300 in
  let events =
    String.concat ","
      (Workload.Gen_statechart.event_sequence ~seed:11 ~length:32 8)
  in
  let lint_line path = Printf.sprintf {|{"op":"lint","model":"%s"}|} path in
  let sim_line path =
    Printf.sprintf
      {|{"op":"simulate","model":"%s","rtl":true,"events":"%s"}|} path events
  in
  let gen_line path =
    Printf.sprintf {|{"op":"gen","model":"%s","lang":"vhdl"}|} path
  in
  let info_line path = Printf.sprintf {|{"op":"info","model":"%s"}|} path in
  let shapes =
    [
      ("lint-1000c", big, lint_line);
      ("simulate-rtl", big, sim_line);
      ("gen-300c", small, gen_line);
      ("info-1000c", big, info_line);
    ]
  in
  (* warm: timed right after the files were written, inside the racy
     window, so every request re-reads and re-hashes the model *)
  List.iter
    (fun (shape, (xmi, snap), line_of) ->
      let t_cold_xmi = e19_cold (line_of xmi) in
      let t_cold_snap = e19_cold (line_of snap) in
      let t_warm = e19_warm (line_of xmi) in
      Printf.printf
        "%-14s cold xmi %8.3f ms, cold sumb %7.3f ms -> warm %7.3f ms \
         (%6.1fx vs xmi, %8.0f req/s)\n"
        shape (1e3 *. t_cold_xmi) (1e3 *. t_cold_snap) (1e3 *. t_warm)
        (t_cold_xmi /. t_warm) (1. /. t_warm);
      let key fmt = Printf.sprintf fmt shape in
      record_f (key "e19.cold_xmi_ms.%s") (1e3 *. t_cold_xmi);
      record_f (key "e19.cold_snap_ms.%s") (1e3 *. t_cold_snap);
      record_f (key "e19.warm_ms.%s") (1e3 *. t_warm);
      record_f (key "e19.warm_speedup.%s") (t_cold_xmi /. t_warm);
      record_f (key "e19.warm_rps.%s") (1. /. t_warm))
    shapes;
  (* settled: the files have been quiet past the window, so warm hits
     are answered from the stat memo without opening the file *)
  let files = [ fst big; snd big; fst small; snd small ] in
  e19_settle files;
  List.iter
    (fun (shape, (xmi, _snap), line_of) ->
      let t_settled = e19_warm (line_of xmi) in
      let minor, total = e19_words (line_of xmi) in
      Printf.printf
        "%-14s settled warm %7.3f ms (%8.0f req/s), words %7.0f minor, %7.0f \
         total\n"
        shape (1e3 *. t_settled) (1. /. t_settled) minor total;
      let key fmt = Printf.sprintf fmt shape in
      record_f (key "e19.warm_settled_ms.%s") (1e3 *. t_settled);
      record_f (key "e19.settled_minor_words.%s") minor;
      record_f (key "e19.settled_alloc_words.%s") total)
    shapes;
  List.iter Sys.remove files

let e19_tests () =
  let xmi, _snap = e19_model ~classes:200 in
  let daemon = Serve.Daemon.create () in
  let line = Printf.sprintf {|{"op":"lint","model":"%s"}|} xmi in
  e19_request daemon line;
  [
    Bechamel.Test.make ~name:"e19/warm-lint-200-classes"
      (Bechamel.Staged.stage (fun () -> e19_request daemon line));
  ]

(* ------------------------------------------------------------------ *)
(* E20: the cost of resilience — deadline checkpoints and hostile mix  *)

(* The deadline machinery is polled at every engine checkpoint, so its
   overhead must be measured on the exact E19 shapes it guards: a
   never-expiring budget pays the full polling tax (fuel: one atomic
   decrement per checkpoint; deadline: the decrement plus a
   gettimeofday every 64th checkpoint) without ever cancelling. *)
let e20_report () =
  sep "E20  serve resilience: budget-check overhead, hostile-mix throughput";
  let xmi, snap = e19_model ~classes:1000 in
  let events =
    String.concat ","
      (Workload.Gen_statechart.event_sequence ~seed:11 ~length:32 8)
  in
  let sim_line extra =
    Printf.sprintf
      {|{"op":"simulate","model":"%s","rtl":true,"events":"%s"%s}|} snap
      events extra
  in
  let warm line =
    let daemon = Serve.Daemon.create () in
    e19_request daemon line;
    e18_time (fun () -> e19_request daemon line)
  in
  let t_plain = warm (sim_line "") in
  let t_fuel = warm (sim_line {|,"fuel":1000000000|}) in
  let t_deadline = warm (sim_line {|,"deadline_ms":3600000|}) in
  let pct t = 100. *. ((t /. t_plain) -. 1.) in
  Printf.printf
    "simulate-rtl warm: unbudgeted %7.3f ms, fuel %7.3f ms (%+5.1f%%), \
     deadline %7.3f ms (%+5.1f%%)\n"
    (1e3 *. t_plain) (1e3 *. t_fuel) (pct t_fuel) (1e3 *. t_deadline)
    (pct t_deadline);
  record_f "e20.warm_ms.unbudgeted" (1e3 *. t_plain);
  record_f "e20.warm_ms.fuel" (1e3 *. t_fuel);
  record_f "e20.warm_ms.deadline" (1e3 *. t_deadline);
  record_f "e20.overhead_pct.fuel" (pct t_fuel);
  record_f "e20.overhead_pct.deadline" (pct t_deadline);
  (* a daemon absorbing abuse must not slow down for everyone: compare
     warm throughput on a pure valid stream against a 10%-hostile mix
     (garbage lines, unknown ops, oversized payloads) *)
  let valid = Printf.sprintf {|{"op":"lint","model":"%s"}|} snap in
  let hostile =
    [|
      "garbage that is not json";
      {|{"op":"frobnicate"}|};
      Printf.sprintf {|{"op":"info","model":"%s"}|}
        (String.make (Serve.Daemon.max_line_bytes + 1) 'x');
    |]
  in
  let mix_time ~hostile_every =
    let daemon = Serve.Daemon.create () in
    e19_request daemon valid;
    let i = ref 0 in
    let batch = 10 in
    let t =
      e18_time (fun () ->
          for k = 1 to batch do
            incr i;
            if hostile_every > 0 && k mod hostile_every = 0 then
              e19_request daemon
                hostile.(!i mod Array.length hostile)
            else e19_request daemon valid
          done)
    in
    t /. float_of_int batch
  in
  let t_pure = mix_time ~hostile_every:0 in
  let t_mixed = mix_time ~hostile_every:10 in
  Printf.printf
    "lint warm stream: pure %8.0f req/s, 10%% hostile %8.0f req/s \
     (%+5.1f%% per-request)\n"
    (1. /. t_pure) (1. /. t_mixed)
    (100. *. ((t_mixed /. t_pure) -. 1.));
  record_f "e20.pure_rps" (1. /. t_pure);
  record_f "e20.hostile_mix_rps" (1. /. t_mixed);
  record_f "e20.hostile_mix_cost_pct" (100. *. ((t_mixed /. t_pure) -. 1.));
  Sys.remove xmi;
  Sys.remove snap

let e20_tests () =
  let xmi, _snap = e19_model ~classes:200 in
  let daemon = Serve.Daemon.create () in
  let line =
    Printf.sprintf {|{"op":"analyze","model":"%s","fuel":1000000000}|} xmi
  in
  e19_request daemon line;
  [
    Bechamel.Test.make ~name:"e20/warm-analyze-budgeted"
      (Bechamel.Staged.stage (fun () -> e19_request daemon line));
  ]

(* ------------------------------------------------------------------ *)
(* Bechamel driver                                                     *)

let run_bechamel tests =
  let open Bechamel in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = [ Toolkit.Instance.monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:1000 ~quota:(Time.second 0.25) ~stabilize:false ()
  in
  let raw =
    Benchmark.all cfg instances
      (Test.make_grouped ~name:"socuml" tests)
  in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  let rows = Hashtbl.fold (fun name ols acc -> (name, ols) :: acc) results [] in
  let rows = List.sort (fun (a, _) (b, _) -> String.compare a b) rows in
  sep "Bechamel timings (monotonic clock, ns/run)";
  List.iter
    (fun (name, ols) ->
      match Analyze.OLS.estimates ols with
      | Some [ est ] -> Printf.printf "%-28s %12.0f ns/run\n" name est
      | Some _ | None -> Printf.printf "%-28s (no estimate)\n" name)
    rows

let json_target () =
  let out = ref None in
  Array.iteri
    (fun i a -> if a = "--json" && i + 1 < Array.length Sys.argv then
        out := Some Sys.argv.(i + 1))
    Sys.argv;
  !out

let () =
  let quick = Array.exists (fun a -> a = "quick") Sys.argv in
  e1_report ();
  e2_report ();
  e3_report ();
  e4_report ();
  e5_report ();
  e6_report ();
  e7_report ();
  e8_report ();
  e9_report ();
  e10_report ();
  e11_report ();
  e12_report ();
  e13_report ();
  e14_report ();
  e15_report ();
  e15_token_report ();
  e16_report ();
  e17_report ();
  e18_report ();
  e19_report ();
  e20_report ();
  if not quick then begin
    let tests =
      e1_tests () @ e2_tests () @ e2_xuml_test () @ e3_tests () @ e4_tests ()
      @ e5_tests () @ e6_tests () @ e7_tests () @ e8_tests () @ e9_tests ()
      @ e10_tests () @ e11_tests () @ e12_tests () @ e13_tests ()
      @ e14_tests () @ e15_tests () @ e16_tests () @ e17_tests ()
      @ e18_tests () @ e19_tests () @ e20_tests ()
    in
    run_bechamel tests
  end;
  (match json_target () with
  | Some path -> write_json path
  | None -> ());
  print_newline ()
