(* Benchmark and experiment harness.

   The paper ("UML 2.0 - Overview and Perspectives in SoC Design", DATE
   2005) has no tables or figures; DESIGN.md maps its five claims to the
   experiment suite E1..E20.  For every experiment this program prints
   the measured report rows recorded in EXPERIMENTS.md.  Every timed row
   goes through [Harness.measure], which gives it a time and a work
   column: the words one call allocates.

   Run: dune exec bench/main.exe
        dune exec bench/main.exe -- --json out.json
                                   (+ machine-readable results) *)

let sep title =
  Printf.printf "\n==== %s ====\n%!" title

(* ------------------------------------------------------------------ *)
(* Machine-readable results (--json <file>)

   Every report records its headline numbers under a stable
   "eN.metric.variant" key; the file is emitted with keys sorted
   lexicographically, so the key set and order are byte-deterministic
   across runs (values of timing metrics naturally vary; words do not). *)

let json_entries : (string * Sjson.Json.t) list ref = ref []
let record key value = json_entries := (key, value) :: !json_entries
let record_i key i = record key (Sjson.Json.Int i)
let record_b key b = record key (Sjson.Json.Bool b)

let record_f key v =
  record key (Sjson.Json.Float (float_of_string (Printf.sprintf "%.6g" v)))

(* A timed row's work column, named the way E18's keys are:
   "<stem>_minor_words<suffix>" and "<stem>_alloc_words<suffix>", where
   [stem] is "eN.<what>" and [suffix] is ".<variant>" or empty.  Words
   keep every digit, so a change of one word shows. *)
let record_words stem suffix (s : Harness.sample) =
  record (stem ^ "_minor_words" ^ suffix) (Sjson.Json.Float s.minor_words);
  record (stem ^ "_alloc_words" ^ suffix) (Sjson.Json.Float s.alloc_words)

let ms (s : Harness.sample) = 1e3 *. s.seconds

(* Rows whose one call runs for tens of milliseconds or more (E6's
   partitioners, E8, E13, E14) count words over one call: ten would add
   seconds to the run. *)
let measure_long f = Harness.measure ~word_calls:1 f

(* Times [f], records its milliseconds under "<stem>_ms<suffix>" and its
   words beside them, and prints one line. *)
let timed_row ?word_calls label stem suffix f =
  let _, s = Harness.measure ?word_calls f in
  Printf.printf "%-34s %9.3f ms, %10.0f minor words, %10.0f total\n" label
    (ms s) s.minor_words s.alloc_words;
  record_f (stem ^ "_ms" ^ suffix) (ms s);
  record_words stem suffix s

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

(* One reset pulse on an RTL engine, either the compiled one or the
   reference interpreter. *)
let reset set_input clock_edge sim =
  set_input sim "rst" 1;
  clock_edge sim "clk";
  set_input sim "rst" 0;
  sim

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
    [ 2; 4; 8; 16; 32 ];
  let design = Iplib.Soc.design ~name:"soc" (soc_instances 8) in
  timed_row "VHDL of the 8-IP SoC" "e1.vhdl" ".ips08" (fun () ->
      Codegen.Vhdl.of_design design)

(* ------------------------------------------------------------------ *)
(* E2: executable models — engine vs flat vs RTL equivalence + speed   *)

let e2_machine seed = Workload.Gen_statechart.flat ~seed ~states:10 ~events:4

(* The generated RTL driven through [events] from reset, one strobe per
   event: the state after each. *)
let e2_rtl_trace hmod events =
  let sim =
    reset Oracles.Sim.set_input Oracles.Sim.clock_edge (Oracles.Sim.create hmod)
  in
  List.map
    (fun ev ->
      let port = Codegen.Fsm_compile.event_input ev in
      Oracles.Sim.set_input sim port 1;
      Oracles.Sim.clock_edge sim "clk";
      Oracles.Sim.set_input sim port 0;
      Oracles.Sim.get_enum sim "state")
    events

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
    | Ok hmod -> e2_rtl_trace hmod events = flat_trace)

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

let e2_report () =
  sep "E2  in-model execution vs generated RTL (trace equivalence)";
  let seeds = [ 1; 2; 3; 4; 5; 6; 7; 8; 9; 10 ] in
  let agree = List.length (List.filter e2_equivalent seeds) in
  Printf.printf "engine = flat = RTL on %d/%d random machines x 200 events\n"
    agree (List.length seeds);
  record_i "e2.trace_agreement.machines" agree;
  record_i "e2.trace_agreement.total" (List.length seeds);
  (* the cost of each execution path on one machine *)
  let sm = e2_machine 1 in
  let events = Workload.Gen_statechart.event_sequence ~seed:9 ~length:100 4 in
  let ok = function Ok x -> x | Error m -> failwith m in
  let hmod = ok (Codegen.Fsm_compile.compile (ok (Statechart.Flatten.flatten sm))) in
  timed_row "engine, 100 events" "e2.engine" ".events100" (fun () ->
      let engine = Statechart.Engine.create sm in
      Statechart.Engine.start engine;
      List.iter
        (fun name ->
          Statechart.Engine.dispatch engine (Statechart.Event.make name))
        events);
  timed_row "generated RTL, 100 cycles" "e2.rtl" ".cycles100" (fun () ->
      e2_rtl_trace hmod events);
  let m = relay_model () in
  timed_row "xUML relay, 100 routed signals" "e2.xuml" ".signals100"
    (fun () ->
      let sys = Xuml.System.create m in
      let recv = Xuml.System.instantiate sys "Receiver" in
      let send = Xuml.System.instantiate sys "Sender" in
      ignore
        (Asl.Store.set_attr (Xuml.System.store sys) send "peer"
           (Asl.Value.V_obj recv));
      Xuml.System.send sys ~to_:send "go";
      ignore (Xuml.System.run sys))


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
    [ 2; 4; 8 ];
  let act = pipeline_activity () in
  let net, m0 = Activity.Translate.to_petri act in
  timed_row "token engine run, pipeline" "e3.token_run" ".pipeline" (fun () ->
      Activity.Exec.run ~seed:3 (Activity.Exec.create act));
  timed_row "Petri replay, pipeline" "e3.petri_replay" ".pipeline" (fun () ->
      Oracles.Petri_ref.random_occurrence_sequence ~seed:3 ~max_steps:200 net
        m0)

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
  record_b "e4.behavior_agreement" agree;
  timed_row "schedule on both sides" "e4.schedule" ".both_sides" (fun () ->
      ( Hwsw.Schedule.run g (Hwsw.Schedule.all_sw g),
        Hwsw.Schedule.run g (Hwsw.Schedule.all_hw g) ))

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
    [ 10; 100; 1000 ];
  let pim = Workload.Gen_model.structural ~seed:7 ~classes:300 in
  timed_row "PIM to hardware PSM, 300 classes" "e5.to_psm" ".classes0300"
    (fun () -> Mda.Mapping.to_psm Mda.Platform.asic_vhdl pim)

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
    [ 8; 10; 12; 14 ];
  let g12 = Workload.Gen_taskgraph.layered ~seed:5 ~tasks:12 ~layers:4 in
  let g50 = Workload.Gen_taskgraph.layered ~seed:5 ~tasks:50 ~layers:6 in
  timed_row ~word_calls:1 "exhaustive, 12 tasks" "e6.exhaustive" ".tasks12"
    (fun () -> Hwsw.Partition.exhaustive ~budget:600 g12);
  timed_row ~word_calls:1 "greedy, 50 tasks" "e6.greedy" ".tasks50"
    (fun () -> Hwsw.Partition.greedy ~budget:2000 g50)

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

(* ------------------------------------------------------------------ *)
(* E8: statechart engine scaling with hierarchy depth                  *)

let e8_report () =
  sep "E8  run-to-completion throughput vs hierarchy depth";
  let events = Workload.Gen_statechart.event_sequence ~seed:8 ~length:2000 4 in
  List.iter
    (fun depth ->
      let sm =
        Workload.Gen_statechart.hierarchical ~seed:8 ~depth ~breadth:2 ~events:4
      in
      (* engine creation and start stay outside the timed region: each
         call dispatches the 2000 events from wherever the last left it *)
      let engine = Statechart.Engine.create sm in
      Statechart.Engine.start engine;
      let _, s =
        measure_long (fun () ->
            List.iter
              (fun name ->
                Statechart.Engine.dispatch engine (Statechart.Event.make name))
              events)
      in
      let rate = float_of_int (List.length events) /. s.seconds in
      Printf.printf
        "depth %d: %7.0f events/s (%d vertices), %8.0f minor words per run\n"
        depth rate
        (List.length (Uml.Smachine.all_vertices sm))
        s.minor_words;
      record_f (Printf.sprintf "e8.events_per_s.depth%d" depth) rate;
      record_words "e8.dispatch" (Printf.sprintf ".depth%d" depth) s)
    [ 1; 2; 3; 4; 5 ];
  (* the same loop over a flat machine whose every event runs two
     guards and one looping effect: the ASL tier's share of dispatch *)
  let sm = Workload.Gen_statechart.asl_heavy ~seed:17 ~states:12 ~events:6 in
  let events = Workload.Gen_statechart.event_sequence ~seed:8 ~length:2000 6 in
  let engine = Statechart.Engine.create sm in
  Statechart.Engine.start engine;
  let _, s =
    measure_long (fun () ->
        List.iter
          (fun name ->
            Statechart.Engine.dispatch engine (Statechart.Event.make name))
          events)
  in
  let rate = float_of_int (List.length events) /. s.seconds in
  Printf.printf "asl 12x6: %7.0f events/s (%d transitions), %8.0f minor words per run\n"
    rate
    (List.length (Uml.Smachine.all_transitions sm))
    s.minor_words;
  record_f "e8.events_per_s.asl12" rate;
  record_words "e8.dispatch" ".asl12" s

(* ------------------------------------------------------------------ *)
(* E9: code generation throughput and determinism                      *)

let e9_report () =
  sep "E9  code generation throughput and determinism";
  let design = Iplib.Soc.design ~name:"soc" (soc_instances 16) in
  let emit name f =
    let text, s = Harness.measure (fun () -> f design) in
    let deterministic = f design = text in
    let mb_s = float_of_int (String.length text) /. s.seconds /. 1_048_576. in
    Printf.printf
      "%-10s %7d lines, %8.2f MB/s, deterministic: %b, %8.0f minor words\n"
      name (Mda.Generate.loc text) mb_s deterministic s.minor_words;
    record_f (Printf.sprintf "e9.throughput_mb_s.%s" name) mb_s;
    record_words "e9.emit" ("." ^ name) s;
    record_b (Printf.sprintf "e9.deterministic.%s" name) deterministic
  in
  emit "vhdl" Codegen.Vhdl.of_design;
  emit "verilog" Codegen.Verilog.of_design;
  emit "systemc" Codegen.Systemc.of_design

(* ------------------------------------------------------------------ *)
(* E10: discrete-event simulation performance                          *)

let e10_flat n =
  Hdl.Elaborate.flatten (Iplib.Soc.design ~name:"soc" (soc_instances n))

let e10_report () =
  sep "E10  simulator throughput vs design size (compiled engine)";
  List.iter
    (fun n ->
      let flat = e10_flat n in
      let sim =
        reset Dsim.Fast.set_input Dsim.Fast.clock_edge (Dsim.Fast.create flat)
      in
      let cycles = 2000 in
      (* the counters are read after exactly one run; the timed calls
         then keep clocking the same reset engine *)
      Dsim.Fast.run sim ~clock:"clk" ~cycles;
      let events = Dsim.Fast.events sim
      and deltas = Dsim.Fast.delta_cycles sim
      and skipped = Dsim.Fast.skipped_evals sim in
      let _, s = Harness.measure (fun () -> Dsim.Fast.run sim ~clock:"clk" ~cycles) in
      let rate = float_of_int cycles /. s.seconds in
      Printf.printf
        "%2d IPs (%3d processes): %8.0f cycles/s, %9d events, %d deltas, \
         %d evals skipped\n"
        n
        (List.length flat.Hdl.Module_.mod_processes)
        rate events deltas skipped;
      record_f (Printf.sprintf "e10.cycles_per_s.ips%02d" n) rate;
      record_words "e10.run" (Printf.sprintf ".ips%02d" n) s)
    [ 4; 8; 16; 32 ]

(* ------------------------------------------------------------------ *)
(* E11: telemetry instrumentation overhead                             *)

let e11_report () =
  sep "E11  telemetry overhead on statechart dispatch (2000 events)";
  let events = Workload.Gen_statechart.event_sequence ~seed:3 ~length:2000 4 in
  (* one call: a fresh registry and machine, engine creation and 2000
     dispatches *)
  let dispatch make_reg =
    snd
      (Harness.measure (fun () ->
           let engine =
             Statechart.Engine.create ~metrics:(make_reg ()) (e2_machine 1)
           in
           Statechart.Engine.start engine;
           List.iter
             (fun name ->
               Statechart.Engine.dispatch engine (Statechart.Event.make name))
             events))
  in
  let off = dispatch (fun () -> Telemetry.Metrics.null) in
  let row key label (s : Harness.sample) =
    Printf.printf
      "%-24s %8.3f us/event  (%+5.1f%% vs off), %8.0f minor words per run\n"
      label
      (1e6 *. s.seconds /. 2000.)
      (100. *. (s.seconds -. off.seconds) /. off.seconds)
      s.minor_words;
    record_f (Printf.sprintf "e11.us_per_event.%s" key)
      (1e6 *. s.seconds /. 2000.);
    record_words "e11.dispatch" ("." ^ key) s
  in
  row "off" "telemetry off (null)" off;
  row "ring0" "live, ring cap 0"
    (dispatch (fun () -> Telemetry.Metrics.create ~event_capacity:0 ()));
  row "ring4096" "live, ring cap 4096"
    (dispatch (fun () -> Telemetry.Metrics.create ()))

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

(* `validate`'s three checks on structural models, bare and with SoC/RT
   stereotypes on every feature (Workload.Gen_model.stereotyped) *)
let e12_validate_report () =
  Printf.printf "\nvalidate checks (ms):\n";
  Printf.printf "%-12s %-8s %-8s %10s %10s %10s %10s\n" "model" "classes"
    "apps" "wfr" "soc" "rt" "total";
  List.iter
    (fun (kind, gen) ->
      List.iter
        (fun classes ->
          Uml.Ident.reset_counter ();
          let m = gen ~seed:7 ~classes in
          let checks =
            List.map
              (fun check -> snd (Harness.measure (fun () -> check m)))
              [ Uml.Wfr.check; Profiles.Soc_profile.check;
                Profiles.Rt_profile.check ]
          in
          (* the row is the sum of the three checks, words as time *)
          let sum field = List.fold_left (fun acc s -> acc +. field s) 0. checks in
          let total =
            { Harness.seconds = sum (fun s -> s.Harness.seconds);
              minor_words = sum (fun s -> s.minor_words);
              alloc_words = sum (fun s -> s.alloc_words) }
          in
          Printf.printf "%-12s %-8d %-8d %10.2f %10.2f %10.2f %10.2f\n" kind
            classes
            (List.length (Uml.Model.applications m))
            (ms (List.nth checks 0)) (ms (List.nth checks 1))
            (ms (List.nth checks 2)) (ms total);
          let suffix = Printf.sprintf ".%s.classes%03d" kind classes in
          record_f ("e12.validate_ms" ^ suffix) (ms total);
          record_words "e12.validate" suffix total)
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
      let diags, s = Harness.measure (fun () -> Lint.Check.check_model m) in
      Printf.printf "%-8d %-10d %-12d %10.2f %14.1f\n" classes elements
        (List.length diags) (ms s)
        (1e6 *. s.seconds /. float_of_int elements);
      let suffix = Printf.sprintf ".classes%03d" classes in
      record_f ("e12.lint_ms" ^ suffix) (ms s);
      record_words "e12.lint" suffix s;
      record_i ("e12.diagnostics" ^ suffix) (List.length diags))
    [ 10; 50; 200; 500 ];
  e12_validate_report ()

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

(* Times the two paths [a] and [b] of one comparison and records each
   under "e13.<what>_ms.<name><variant>" ([scale] calls' worth) with its
   words, and whether their outputs agree under
   "e13.<what>_agree<variant>".  Returns each path's output and
   sample. *)
let e13_versus ?(scale = 1.) what variant (a_name, a) (b_name, b) =
  let ra, ta = measure_long a in
  let rb, tb = measure_long b in
  List.iter
    (fun (name, s) ->
      record_f (Printf.sprintf "e13.%s_ms.%s%s" what name variant) (scale *. ms s);
      record_words ("e13." ^ what) ("." ^ name ^ variant) s)
    [ (a_name, ta); (b_name, tb) ];
  record_b ("e13." ^ what ^ "_agree" ^ variant) (ra = rb);
  ((ra, ta), (rb, tb))

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
      ignore
        (Asl.Interp.eval_guard_compiled ~params:(params i) interp
           (Asl.Compiled.guard guard_src))
    done
  in
  let _, base = measure_long baseline in
  let _, memo = measure_long memoized in
  let evals_per_s (s : Harness.sample) = float_of_int iters /. s.seconds in
  let guard_speedup = base.seconds /. memo.seconds in
  Printf.printf
    "guard eval, %d iters:  parse-per-eval %7.1f ms (%8.0f evals/s)\n" iters
    (ms base) (evals_per_s base);
  Printf.printf
    "                       memoized       %7.1f ms (%8.0f evals/s)  %5.1fx\n"
    (ms memo) (evals_per_s memo) guard_speedup;
  record_f "e13.guard_evals_per_s.baseline" (evals_per_s base);
  record_f "e13.guard_evals_per_s.memoized" (evals_per_s memo);
  record_words "e13.guard" ".baseline" base;
  record_words "e13.guard" ".memoized" memo;
  record_f "e13.speedup.guard_eval" guard_speedup;
  (* (b) the E12 lint ACT workload shape: per-activity analysis of the
     standard decision-heavy activity.  One call analyses one activity;
     the ms rows give 25 activities' worth *)
  let act = Workload.Gen_activity.with_decisions ~seed:7 ~size:14 ~max_width:3 in
  let net, m0 = Activity.Translate.to_petri act in
  let (r_ref, lref), (r_cmp, lcmp) =
    e13_versus ~scale:25. "lint_shape" ""
      ("reference", fun () -> e13_lint_reference net m0)
      ("compiled", fun () -> e13_lint_compiled net m0)
  in
  let lint_speedup = lref.seconds /. lcmp.seconds in
  Printf.printf
    "lint ACT shape x25:    reference      %7.1f ms   compiled %7.1f ms  \
     %5.1fx  (agree: %b)\n"
    (25. *. ms lref) (25. *. ms lcmp) lint_speedup (r_ref = r_cmp);
  record_f "e13.speedup.lint_shape" lint_speedup;
  (* (b') the analyze request shape: four explorations vs one *)
  List.iter
    (fun (label, key, act) ->
      let net, m0 = Activity.Translate.to_petri act in
      let (r_four, four), (r_one, one) =
        e13_versus "analyze_shape" ("." ^ key)
          ("four", fun () -> e13_analyze_four net m0)
          ("one", fun () -> e13_analyze_one net m0)
      in
      Printf.printf
        "analyze shape, %-9s four explorations %7.1f ms   one %7.1f ms  \
         %5.1fx  (agree: %b)\n"
        label (ms four) (ms one) (four.seconds /. one.seconds) (r_four = r_one);
      let (r_before, before), (r_now, now) =
        e13_versus "act_shape" ("." ^ key)
          ("before", fun () -> e13_act_before net m0)
          ("now", fun () -> e13_act_now net m0)
      in
      Printf.printf
        "lint ACT,      %-9s to 4096 + KM      %7.1f ms   now %7.1f ms  \
         %5.2fx  (agree: %b)\n"
        label (ms before) (ms now)
        (before.seconds /. now.seconds)
        (r_before = r_now))
    [
      ("fork 4x8", "fork_4x8", e13_fork_activity ~branches:4 ~length:8);
      ("pump", "pump", e13_pump_activity ());
    ];
  (* (c) a 10k-state reachability exploration *)
  let tnet, tm0 = e13_toggle_net 14 in
  let limit = 10_000 in
  let (r_ref, t_ref), (r_cmp, t_cmp) =
    e13_versus "reach_10k" ""
      ( "reference",
        fun () -> (Oracles.Petri_ref.reachable ~limit tnet tm0).state_count )
      ("compiled", fun () -> (Petri.Analysis.reachable ~limit tnet tm0).state_count)
  in
  let reach_speedup = t_ref.seconds /. t_cmp.seconds in
  Printf.printf
    "reachability %5d st: reference      %7.1f ms   compiled %7.1f ms  \
     %5.1fx  (agree: %b)\n"
    r_ref (ms t_ref) (ms t_cmp) reach_speedup (r_ref = r_cmp);
  record_i "e13.reach_10k.state_count" r_cmp;
  record_f "e13.speedup.reachability_10k" reach_speedup

(* ------------------------------------------------------------------ *)
(* E14: compiled netlist engine vs reference interpreter               *)

let e14_report () =
  sep "E14  compiled netlist engine vs reference interpreter";
  List.iter
    (fun n ->
      let flat = e10_flat n in
      let cycles = 2000 in
      (* both engines run [cycles] cycles from reset and are compared; the
         timed calls then keep clocking them, so creation and reset stay
         outside the timed region *)
      let sim_ref =
        reset Oracles.Sim.set_input Oracles.Sim.clock_edge (Oracles.Sim.create flat)
      and sim_fast =
        reset Dsim.Fast.set_input Dsim.Fast.clock_edge (Dsim.Fast.create flat)
      in
      Oracles.Sim.run sim_ref ~clock:"clk" ~cycles;
      Dsim.Fast.run sim_fast ~clock:"clk" ~cycles;
      let agree = Oracles.Sim.snapshot sim_ref = Dsim.Fast.snapshot sim_fast in
      let _, t_ref =
        measure_long (fun () -> Oracles.Sim.run sim_ref ~clock:"clk" ~cycles)
      in
      let _, t_fast =
        measure_long (fun () -> Dsim.Fast.run sim_fast ~clock:"clk" ~cycles)
      in
      let rate_ref = float_of_int cycles /. t_ref.seconds in
      let rate_fast = float_of_int cycles /. t_fast.seconds in
      let speedup = rate_fast /. rate_ref in
      Printf.printf
        "%2d IPs: reference %8.0f cycles/s, compiled %8.0f cycles/s \
         (%.1fx), snapshots agree: %b\n"
        n rate_ref rate_fast speedup agree;
      record_f (Printf.sprintf "e14.cycles_per_s.reference%02d" n) rate_ref;
      record_f (Printf.sprintf "e14.cycles_per_s.compiled%02d" n) rate_fast;
      record_words "e14.run" (Printf.sprintf ".reference%02d" n) t_ref;
      record_words "e14.run" (Printf.sprintf ".compiled%02d" n) t_fast;
      record_f (Printf.sprintf "e14.speedup.ips%02d" n) speedup;
      record_b (Printf.sprintf "e14.agree.ips%02d" n) agree)
    [ 4; 8; 16; 32 ]

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
      let report, s =
        Harness.measure (fun () ->
            Fault.Campaign.run ~rtl:spec ~label:"bench" plan)
      in
      let t = Fault.Campaign.totals report in
      (* golden run + one run per injected fault *)
      let runs = 1 + t.Fault.Campaign.t_injected in
      let runs_per_s = float_of_int runs /. s.seconds in
      let faults_per_s = float_of_int t.Fault.Campaign.t_injected /. s.seconds in
      Printf.printf
        "%2d IPs: %2d faults -> %6.1f runs/s, %6.1f faults/s \
         (masked %d, detected %d, silent %d, truncated %d)\n"
        n t.Fault.Campaign.t_injected runs_per_s faults_per_s
        t.Fault.Campaign.t_masked t.Fault.Campaign.t_detected
        t.Fault.Campaign.t_silent t.Fault.Campaign.t_truncated;
      record_f (Printf.sprintf "e15.runs_per_s.ips%02d" n) runs_per_s;
      record_f (Printf.sprintf "e15.faults_per_s.ips%02d" n) faults_per_s;
      record_words "e15.campaign" (Printf.sprintf ".ips%02d" n) s;
      List.iter
        (fun (what, count) ->
          record_i (Printf.sprintf "e15.%s.ips%02d" what n) count)
        [ ("masked", t.t_masked); ("detected", t.t_detected);
          ("silent", t.t_silent); ("truncated", t.t_truncated) ];
      record_f (Printf.sprintf "e15.coverage.ips%02d" n)
        (Fault.Campaign.coverage t))
    [ 4; 8; 16 ]

(* The token domains on the 4x8 fork activity perfbench's [verify]
   injects into: one 12-token-fault campaign per backend and call. *)
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
      let report, s = Harness.measure campaign in
      let t = Fault.Campaign.totals report in
      (* golden run + one run per injected fault *)
      let runs = 1 + t.Fault.Campaign.t_injected in
      let runs_per_s = float_of_int runs /. s.seconds in
      Printf.printf
        "token %-8s: %2d faults -> %8.1f runs/s \
         (masked %d, detected %d, silent %d, truncated %d)\n"
        domain t.Fault.Campaign.t_injected runs_per_s
        t.Fault.Campaign.t_masked t.Fault.Campaign.t_detected
        t.Fault.Campaign.t_silent t.Fault.Campaign.t_truncated;
      record_f ("e15.token_runs_per_s." ^ domain) runs_per_s;
      record_words "e15.token_campaign" ("." ^ domain) s)
    [
      ("activity", fun () -> Fault.Campaign.run ~activity ~label:"bench" plan);
      ("petri", fun () -> Fault.Campaign.run ~net:net_spec ~label:"bench" plan);
    ]

(* ------------------------------------------------------------------ *)
(* E16: multicore scaling of fault campaigns                          *)

let e16_report () =
  sep "E16  multicore scaling (shared-cursor pool, byte-identical output)";
  let flat = e10_flat 8 in
  let spec = e15_spec flat in
  let plan = e15_plan flat 24 in
  let campaign pool () =
    Fault.Campaign.run ?pool ~rtl:spec ~label:"bench" plan
  in
  let report, seq = Harness.measure (campaign None) in
  let campaign_text = Fault.Campaign.to_text report in
  record_f "e16.campaign_ms.jobs01" (ms seq);
  record_words "e16.campaign" ".jobs01" seq;
  Printf.printf "jobs 1: campaign %6.1f ms (sequential baseline)\n" (ms seq);
  List.iter
    (fun jobs ->
      Exec.Pool.with_pool ~jobs (fun p ->
          (* no words: the runtime's minor-words count covers only this
             domain (and finished ones), so how much of the workers'
             allocation it sees varies with how the shared cursor split
             the faults *)
          let report, par = Harness.measure (campaign (Some p)) in
          let c_agree =
            String.equal campaign_text (Fault.Campaign.to_text report)
          in
          Printf.printf "jobs %d: campaign %6.1f ms (%4.2fx, agree %b)\n" jobs
            (ms par) (seq.seconds /. par.seconds) c_agree;
          record_f (Printf.sprintf "e16.campaign_ms.jobs%02d" jobs) (ms par);
          record_f
            (Printf.sprintf "e16.campaign_speedup.jobs%02d" jobs)
            (seq.seconds /. par.seconds);
          record_b (Printf.sprintf "e16.campaign_agree.jobs%02d" jobs) c_agree))
    [ 2; 4; 8 ]

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
      let diags, s = Harness.measure (fun () -> Lint.Df_pass.check_model m) in
      Printf.printf "model  %3d classes: %7.2f ms, %d findings\n" classes
        (ms s) (List.length diags);
      let suffix = Printf.sprintf ".classes%03d" classes in
      record_f ("e17.model_ms" ^ suffix) (ms s);
      record_words "e17.model" suffix s;
      record_i ("e17.model_findings" ^ suffix) (List.length diags))
    [ 10; 20; 40 ];
  (* loops are the normal case for action bodies: 144 effects that each
     run a [for] and a [while], and a large body-less activity for the
     cross-action must-defined fixpoint *)
  List.iter
    (fun (key, label, element) ->
      Uml.Ident.reset_counter ();
      let m = Uml.Model.create "e17" in
      Uml.Model.add m element;
      let diags, s = Harness.measure (fun () -> Lint.Df_pass.check_model m) in
      Printf.printf "%s %s: %7.2f ms, %d findings\n" key label (ms s)
        (List.length diags);
      record_f (Printf.sprintf "e17.%s_ms.%s" key label) (ms s);
      record_words ("e17." ^ key) ("." ^ label) s;
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
      let diags, s =
        Harness.measure (fun () -> Lint.Df_pass.check_design design)
      in
      Printf.printf "design %3d IPs:     %7.2f ms, %d findings\n" ips (ms s)
        (List.length diags);
      let suffix = Printf.sprintf ".ips%02d" ips in
      record_f ("e17.netlist_ms" ^ suffix) (ms s);
      record_words "e17.netlist" suffix s;
      record_i ("e17.netlist_findings" ^ suffix) (List.length diags))
    [ 4; 8; 16 ]

(* ------------------------------------------------------------------ *)
(* E18: binary snapshots vs XMI — the model-load tax                   *)

let e18_report () =
  sep "E18  snapshot load vs XMI import";
  List.iter
    (fun classes ->
      let m = Workload.Gen_model.structural ~seed:3 ~classes in
      let xmi = Xmi.Write.to_string m in
      let snap = Snap.Write.to_string m in
      let _, import = Harness.measure (fun () -> Xmi.Read.model_of_string xmi) in
      (* the import split into its two layers: XML text to offset index,
         index to model *)
      let ix, scan = Harness.measure (fun () -> Sxml.Index.scan xmi) in
      let _, decode = Harness.measure (fun () -> Xmi.Read.of_index ix) in
      let loaded, load =
        Harness.measure (fun () -> Snap.Read.model_of_string snap)
      in
      let _, export = Harness.measure (fun () -> Xmi.Write.to_string m) in
      let _, pack = Harness.measure (fun () -> Snap.Write.to_string m) in
      (* speed-of-light reference: [Marshal] is an unsafe C-level loader
         of the same graph — it bounds what any decoder can reach *)
      let mar = Marshal.to_string m [] in
      let _, marshal =
        Harness.measure (fun () -> (Marshal.from_string mar 0 : Uml.Model.t))
      in
      let lossless = Uml.Model.equal m loaded in
      Printf.printf
        "%-6d classes: import %8.3f ms (scan %7.3f + decode %7.3f) -> load \
         %8.3f ms (%6.1fx, marshal floor %6.3f ms), %7d -> %6d bytes, \
         lossless: %b\n"
        classes (ms import) (ms scan) (ms decode) (ms load)
        (import.seconds /. load.seconds)
        (ms marshal) (String.length xmi) (String.length snap) lossless;
      let suffix = Printf.sprintf ".classes%04d" classes in
      Printf.printf "%-6d classes: kwords minor/total:" classes;
      List.iter
        (fun (what, (s : Harness.sample)) ->
          Printf.printf " %s %.1f/%.1f" what (s.minor_words /. 1e3)
            (s.alloc_words /. 1e3);
          record_f ("e18." ^ what ^ "_ms" ^ suffix) (ms s);
          record_words ("e18." ^ what) suffix s)
        [ ("xmi_import", import); ("xmi_scan", scan); ("xmi_decode", decode);
          ("snap_load", load); ("export", export); ("pack", pack);
          ("marshal_load", marshal) ];
      print_newline ();
      record_f ("e18.load_speedup" ^ suffix) (import.seconds /. load.seconds);
      record_i ("e18.xmi_bytes" ^ suffix) (String.length xmi);
      record_i ("e18.snap_bytes" ^ suffix) (String.length snap);
      record_b ("e18.roundtrip_lossless" ^ suffix) lossless)
    [ 10; 100; 1000 ]

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
  snd (Harness.measure (fun () -> e19_request (Serve.Daemon.create ()) line))

(* One daemon, primed once: every timed request hits the artifact
   cache. *)
let e19_warm line =
  let daemon = Serve.Daemon.create () in
  e19_request daemon line;
  snd (Harness.measure (fun () -> e19_request daemon line))

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
  (* warm: timed first, right after the files were written, inside the
     racy window, so every request re-reads and re-hashes the model *)
  let warm = List.map (fun (_, (xmi, _), line_of) -> e19_warm (line_of xmi)) shapes in
  List.iter2
    (fun (shape, (xmi, snap), line_of) (warm : Harness.sample) ->
      let cold_xmi = e19_cold (line_of xmi) in
      let cold_snap = e19_cold (line_of snap) in
      Printf.printf
        "%-14s cold xmi %8.3f ms, cold sumb %7.3f ms -> warm %7.3f ms \
         (%6.1fx vs xmi, %8.0f req/s)\n"
        shape (ms cold_xmi) (ms cold_snap) (ms warm)
        (cold_xmi.seconds /. warm.seconds)
        (1. /. warm.seconds);
      let suffix = "." ^ shape in
      record_f ("e19.cold_xmi_ms" ^ suffix) (ms cold_xmi);
      record_f ("e19.cold_snap_ms" ^ suffix) (ms cold_snap);
      record_words "e19.cold_xmi" suffix cold_xmi;
      record_words "e19.cold_snap" suffix cold_snap;
      (* no words for warm: until the racy window has passed, whether a
         request re-reads and re-hashes the file depends on the wall
         time, and so does what it allocates *)
      record_f ("e19.warm_ms" ^ suffix) (ms warm);
      record_f ("e19.warm_speedup" ^ suffix) (cold_xmi.seconds /. warm.seconds);
      record_f ("e19.warm_rps" ^ suffix) (1. /. warm.seconds))
    shapes warm;
  (* settled: the files have been quiet past the window, so warm hits
     are answered from the stat memo without opening the file *)
  let files = [ fst big; snd big; fst small; snd small ] in
  e19_settle files;
  List.iter
    (fun (shape, (xmi, _snap), line_of) ->
      let settled = e19_warm (line_of xmi) in
      Printf.printf
        "%-14s settled warm %7.3f ms (%8.0f req/s), words %7.0f minor, %7.0f \
         total\n"
        shape (ms settled) (1. /. settled.seconds) settled.minor_words
        settled.alloc_words;
      record_f ("e19.warm_settled_ms." ^ shape) (ms settled);
      record_words "e19.settled" ("." ^ shape) settled)
    shapes;
  List.iter Sys.remove files

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
  (* the files are new, so every request here re-reads and re-hashes the
     snapshot: the rows finish well inside the racy window *)
  let plain = e19_warm (sim_line "") in
  let fuel = e19_warm (sim_line {|,"fuel":1000000000|}) in
  let deadline = e19_warm (sim_line {|,"deadline_ms":3600000|}) in
  let pct (s : Harness.sample) = 100. *. ((s.seconds /. plain.seconds) -. 1.) in
  Printf.printf
    "simulate-rtl warm: unbudgeted %7.3f ms, fuel %7.3f ms (%+5.1f%%), \
     deadline %7.3f ms (%+5.1f%%)\n"
    (ms plain) (ms fuel) (pct fuel) (ms deadline) (pct deadline);
  record_f "e20.warm_ms.unbudgeted" (ms plain);
  record_f "e20.warm_ms.fuel" (ms fuel);
  record_f "e20.warm_ms.deadline" (ms deadline);
  (* the deadline budget reads the clock every 64th checkpoint, a count
     no timing decides, so its words are as stable as the others *)
  record_words "e20.warm" ".unbudgeted" plain;
  record_words "e20.warm" ".fuel" fuel;
  record_words "e20.warm" ".deadline" deadline;
  record_f "e20.overhead_pct.fuel" (pct fuel);
  record_f "e20.overhead_pct.deadline" (pct deadline);
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
  (* one call is a stream of 10 requests; time and words are per
     request *)
  let mix ~hostile_every =
    let daemon = Serve.Daemon.create () in
    e19_request daemon valid;
    let i = ref 0 in
    let batch = 10 in
    let _, s =
      Harness.measure (fun () ->
          for k = 1 to batch do
            incr i;
            if hostile_every > 0 && k mod hostile_every = 0 then
              e19_request daemon
                hostile.(!i mod Array.length hostile)
            else e19_request daemon valid
          done)
    in
    let per x = x /. float_of_int batch in
    { Harness.seconds = per s.seconds; minor_words = per s.minor_words;
      alloc_words = per s.alloc_words }
  in
  let pure = mix ~hostile_every:0 in
  let mixed = mix ~hostile_every:10 in
  let cost_pct = 100. *. ((mixed.seconds /. pure.seconds) -. 1.) in
  Printf.printf
    "lint warm stream: pure %8.0f req/s, 10%% hostile %8.0f req/s \
     (%+5.1f%% per-request)\n"
    (1. /. pure.seconds) (1. /. mixed.seconds) cost_pct;
  record_f "e20.pure_rps" (1. /. pure.seconds);
  record_f "e20.hostile_mix_rps" (1. /. mixed.seconds);
  record_words "e20.pure" "" pure;
  record_words "e20.hostile_mix" "" mixed;
  record_f "e20.hostile_mix_cost_pct" cost_pct;
  Sys.remove xmi;
  Sys.remove snap

(* every other argument is ignored *)
let rec json_target = function
  | "--json" :: path :: _ -> Some path
  | _ :: rest -> json_target rest
  | [] -> None

let () =
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
  (match json_target (Array.to_list Sys.argv) with
  | Some path -> write_json path
  | None -> ());
  print_newline ()
