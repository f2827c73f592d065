type outcome =
  | Masked
  | Detected of string
  | Silent
  | Truncated of string
[@@deriving eq, show]

(* --- RTL -------------------------------------------------------------- *)

type rtl_spec = {
  rs_module : Hdl.Module_.t;
  rs_clock : string;
  rs_reset : string option;
  rs_stimulus : (int * (string * int) list) list;
  rs_cycles : int;
  rs_settle_budget : int;
}

type rtl_run = {
  rr_final : (string * int) list;
  rr_error : string option;
}

(* Force-based injection: a bit flip XORs the current value once after
   the target edge; a stuck-at fault re-forces its value after every
   edge from its start cycle, so downstream logic always reads the
   faulty level at the observation points. *)
let inject_rtl sim cycle faults =
  List.iter
    (fun f ->
      match f with
      | Plan.Bit_flip { fb_signal; fb_cycle; fb_bit } ->
        if fb_cycle = cycle then
          Dsim.Fast.force sim fb_signal
            (Dsim.Fast.get sim fb_signal lxor (1 lsl fb_bit))
      | Plan.Stuck_at { sa_signal; sa_value; sa_from } ->
        if sa_from <= cycle then
          Dsim.Fast.force sim sa_signal (if sa_value = 0 then 0 else -1))
    faults

(* The module lowered once, or the diagnostic that every run reports. *)
let lower spec =
  match Dsim.Netlist.compile spec.rs_module with
  | nl -> Ok nl
  | exception Dsim.Netlist.Simulation_error msg -> Error msg

let rtl_exec ~metrics ~budget spec netlist faults =
  let final = ref [] in
  let error =
    match netlist with
    | Error msg -> Some msg
    | Ok nl -> (
      try
        let sim =
          Dsim.Fast.of_netlist ~metrics ~settle_budget:spec.rs_settle_budget
            ~budget nl
        in
        (match spec.rs_reset with
         | Some r ->
           Dsim.Fast.set_input sim r 1;
           Dsim.Fast.clock_edge sim spec.rs_clock;
           Dsim.Fast.set_input sim r 0
         | None -> ());
        for cycle = 0 to spec.rs_cycles - 1 do
          Exec.Budget.check budget;
          (match List.assoc_opt cycle spec.rs_stimulus with
           | Some inputs ->
             List.iter (fun (n, v) -> Dsim.Fast.set_input sim n v) inputs
           | None -> ());
          Dsim.Fast.clock_edge sim spec.rs_clock;
          inject_rtl sim cycle faults;
          final := Dsim.Fast.snapshot sim
        done;
        None
      with Dsim.Netlist.Simulation_error msg -> Some msg)
  in
  { rr_final = !final; rr_error = error }

let rtl_run ?(metrics = Telemetry.Metrics.null)
    ?(budget = Exec.Budget.unlimited) spec faults =
  rtl_exec ~metrics ~budget spec (lower spec) faults

let classify_rtl ~golden injected =
  match injected.rr_error with
  | Some msg -> Detected msg
  | None -> if golden.rr_final = injected.rr_final then Masked else Silent

(* --- statechart ------------------------------------------------------- *)

type sc_spec = {
  ss_machine : Uml.Smachine.t;
  ss_events : string list;
  ss_budget : int;
}

type sc_run = {
  sc_final : string;
  sc_status : string;
  sc_error : string option;
  sc_truncated : bool;
}

(* Faults index the original stimulus: position i may be dropped,
   delivered twice, or preceded by a spurious event; spurious indices
   past the end append.  Out-of-range drop/dup indices are no-ops. *)
let perturb_events faults events =
  let n = List.length events in
  let drops, dups, spurious =
    List.fold_left
      (fun (dr, du, sp) f ->
        match f with
        | Plan.Drop_event { de_index } -> (de_index :: dr, du, sp)
        | Plan.Dup_event { du_index } -> (dr, du_index :: du, sp)
        | Plan.Spurious_event { sp_index; sp_event } ->
          (dr, du, (sp_index, sp_event) :: sp))
      ([], [], []) faults
  in
  let spurious_at i =
    List.filter_map
      (fun (idx, ev) -> if idx = i then Some ev else None)
      (List.rev spurious)
  in
  List.concat
    (List.mapi
       (fun i e ->
         let self =
           if List.mem i drops then []
           else if List.mem i dups then [ e; e ]
           else [ e ]
         in
         spurious_at i @ self)
       events)
  @ List.filter_map
      (fun (idx, ev) -> if idx >= n then Some ev else None)
      (List.rev spurious)

let status_string engine =
  match Statechart.Engine.status engine with
  | Statechart.Engine.Running -> "running"
  | Statechart.Engine.Finished -> "finished"
  | Statechart.Engine.Terminated -> "terminated"

let sc_run ?(metrics = Telemetry.Metrics.null)
    ?(budget = Exec.Budget.unlimited) spec faults =
  let events = perturb_events faults spec.ss_events in
  let engine = Statechart.Engine.create ~metrics spec.ss_machine in
  let final = ref "" in
  let truncated = ref false in
  let error = ref None in
  (try
     Statechart.Engine.start engine;
     let rec deliver = function
       | [] -> ()
       | ev :: rest ->
         Exec.Budget.check budget;
         Statechart.Engine.send engine (Statechart.Event.make ev);
         (match Statechart.Engine.run_bounded engine ~budget:spec.ss_budget with
          | `Quiescent _n -> ()
          | `Exhausted -> truncated := true);
         final := Statechart.Engine.signature engine;
         if not !truncated then deliver rest
     in
     deliver events
   with Statechart.Engine.Model_error msg -> error := Some msg);
  {
    sc_final = !final;
    sc_status = status_string engine;
    sc_error = !error;
    sc_truncated = !truncated;
  }

let classify_sc ~golden injected =
  match injected.sc_error with
  | Some msg -> Detected (Printf.sprintf "model error: %s" msg)
  | None ->
    if injected.sc_truncated then Truncated "dispatch budget exhausted"
    else if golden.sc_status <> injected.sc_status then
      Detected
        (Printf.sprintf "status diverged: golden %s, injected %s"
           golden.sc_status injected.sc_status)
    else if golden.sc_final = injected.sc_final then Masked
    else Silent

(* --- token: activity engine ------------------------------------------- *)

type act_spec = {
  ac_activity : Uml.Activityg.t;
  ac_choice_seed : int;
  ac_max_steps : int;
}

type act_run = {
  ar_tokens : (string * int) list;
  ar_stop : string;
}

let inject_tokens adjust step faults =
  List.iter
    (fun f ->
      match f with
      | Plan.Lose_token { lt_place; lt_step } ->
        if lt_step = step then adjust lt_place (-1)
      | Plan.Dup_token { dt_place; dt_step } ->
        if dt_step = step then adjust dt_place 1)
    faults

let act_run ?(metrics = Telemetry.Metrics.null)
    ?(budget = Exec.Budget.unlimited) spec faults =
  let exec = Activity.Exec.create ~metrics spec.ac_activity in
  let rng = Workload.Prng.create spec.ac_choice_seed in
  let rec loop step =
    Exec.Budget.check budget;
    inject_tokens (Activity.Exec.adjust_tokens exec) step faults;
    if step >= spec.ac_max_steps then "exhausted"
    else
      match Activity.Exec.enabled_firings exec with
      | [] -> if Activity.Exec.finished exec then "completed" else "stuck"
      | labels -> (
        match Activity.Exec.fire exec (Workload.Prng.pick rng labels) with
        | Ok () -> loop (step + 1)
        | Error msg ->
          (* unreachable: the label was just enabled; surface it rather
             than loop *)
          Printf.sprintf "internal: %s" msg)
  in
  let stop = loop 0 in
  { ar_tokens = Activity.Exec.tokens exec; ar_stop = stop }

let classify_act ~golden injected =
  if injected.ar_stop = "exhausted" then Truncated "step budget exhausted"
  else if golden.ar_stop = "completed" && injected.ar_stop = "stuck" then
    Detected "deadlock surfaced"
  else if
    golden.ar_tokens = injected.ar_tokens && golden.ar_stop = injected.ar_stop
  then Masked
  else Silent

(* --- token: Petri net ------------------------------------------------- *)

type net_spec = {
  np_net : Petri.Net.t;
  np_marking : Petri.Marking.t;
  np_choice_seed : int;
  np_max_steps : int;
}

type net_run = {
  nr_final : (string * int) list;
  nr_deadlocked : bool;
  nr_truncated : bool;
}

(* A net spec compiled once per campaign and shared read-only by every
   run, on any domain: the compiled net, and the initial marking split
   into slots and a residue of places the net does not know. *)
type net_ctx = {
  nx_spec : net_spec;
  nx_compiled : Petri.Compiled.t;
  nx_m0 : Petri.Compiled.marking;
  nx_residue : Petri.Marking.t;
}

let net_ctx spec =
  let c = Petri.Compiled.of_net spec.np_net in
  let m0, residue = Petri.Compiled.split c spec.np_marking in
  {
    nx_spec = spec;
    nx_compiled = c;
    nx_m0 = m0;
    nx_residue = Petri.Marking.of_list residue;
  }

let net_run_ctx ~metrics ~budget ctx faults =
  let spec = ctx.nx_spec and c = ctx.nx_compiled in
  let fired_counter = Telemetry.Metrics.counter metrics "petri.fired" in
  let rng = Workload.Prng.create spec.np_choice_seed in
  let marking = ref ctx.nx_m0 in
  let residue = ref ctx.nx_residue in
  (* a lost token is a no-op on an empty place *)
  let adjust place delta =
    match Petri.Compiled.place_index c place with
    | Some p ->
      if delta > 0 || Petri.Compiled.tokens !marking p > 0 then
        marking := Petri.Compiled.add_tokens !marking p delta
    | None ->
      if delta > 0 || Petri.Marking.tokens !residue place > 0 then
        residue := Petri.Marking.add !residue place delta
  in
  let nt = Petri.Compiled.transition_count c in
  (* [(deadlocked, truncated)] *)
  let rec loop step =
    Exec.Budget.check budget;
    inject_tokens adjust step faults;
    if step >= spec.np_max_steps then (false, true)
    else
      (* enabled transitions in net order, so [pick] chooses as it did
         over [Marking.enabled_transitions] *)
      let enabled = ref [] in
      for ti = nt - 1 downto 0 do
        if Petri.Compiled.enabled c !marking ti then enabled := ti :: !enabled
      done;
      match !enabled with
      | [] -> (true, false)
      | enabled -> (
        let ti = Workload.Prng.pick rng enabled in
        match Petri.Compiled.fire c !marking ti with
        | None -> (true, false)
        | Some m' ->
          Telemetry.Metrics.incr fired_counter;
          marking := m';
          loop (step + 1))
  in
  let deadlocked, truncated = loop 0 in
  {
    nr_final =
      Petri.Marking.to_list
        (Petri.Compiled.export c (Petri.Marking.to_list !residue) !marking);
    nr_deadlocked = deadlocked;
    nr_truncated = truncated;
  }

let net_run ?(metrics = Telemetry.Metrics.null)
    ?(budget = Exec.Budget.unlimited) spec faults =
  net_run_ctx ~metrics ~budget (net_ctx spec) faults

let classify_net_with invariants ~golden injected =
  if injected.nr_truncated then Truncated "step budget exhausted"
  else if golden.nr_final = injected.nr_final then Masked
  else begin
    let g = Petri.Marking.of_list golden.nr_final in
    let i = Petri.Marking.of_list injected.nr_final in
    if
      List.exists
        (fun inv ->
          Petri.Invariant.invariant_value inv g
          <> Petri.Invariant.invariant_value inv i)
        invariants
    then Detected "p-invariant violated"
    else if injected.nr_deadlocked && not golden.nr_deadlocked then
      Detected "deadlock surfaced"
    else Silent
  end

let classify_net spec ~golden injected =
  classify_net_with (Petri.Invariant.p_invariants spec.np_net) ~golden injected

(* --- orchestration ---------------------------------------------------- *)

type run = {
  run_index : int;
  run_domain : string;
  run_fault : Plan.fault;
  run_outcome : outcome;
}

type report = {
  rp_label : string;
  rp_plan : Plan.t;
  rp_runs : run list;
  rp_skipped : (Plan.fault * string) list;
}

type totals = {
  t_injected : int;
  t_masked : int;
  t_detected : int;
  t_silent : int;
  t_truncated : int;
}

let outcome_counter_suffix = function
  | Masked -> "masked"
  | Detected _ -> "detected"
  | Silent -> "silent"
  | Truncated _ -> "truncated"

(* One planned fault's worth of work: the runs it produced (domain and
   outcome, execution order) or the reason it was skipped.  Everything a
   task touches — engines, PRNGs, the metrics registry it is handed — is
   task-local, so faults can execute on any domain in any order. *)
type fault_result =
  | FR_runs of (string * outcome) list
  | FR_skipped of string

let exec_fault ~metrics ~budget ~golden_rtl ~golden_sc ~golden_act ~golden_net
    fault =
  Exec.Budget.check budget;
  let m_injected = Telemetry.Metrics.counter metrics "fault.injected" in
  let note domain outcome acc =
    Telemetry.Metrics.incr m_injected;
    Telemetry.Metrics.incr
      (Telemetry.Metrics.counter metrics
         ("fault." ^ outcome_counter_suffix outcome));
    if Telemetry.Metrics.live metrics then
      Telemetry.Metrics.event metrics ~scope:"fault" "injected"
        [
          ("domain", Telemetry.Metrics.F_str domain);
          ("fault", Telemetry.Metrics.F_str (Plan.fault_to_string fault));
          ( "outcome",
            Telemetry.Metrics.F_str (outcome_counter_suffix outcome) );
        ];
    (domain, outcome) :: acc
  in
  match fault with
  | Plan.F_rtl f -> (
    match golden_rtl with
    | None -> FR_skipped "no rtl domain in this campaign"
    | Some (spec, netlist, golden) ->
      let outcome =
        Telemetry.Metrics.span metrics "fault/run" (fun () ->
            classify_rtl ~golden
              (rtl_exec ~metrics ~budget spec netlist [ f ]))
      in
      FR_runs (List.rev (note "rtl" outcome [])))
  | Plan.F_statechart f -> (
    match golden_sc with
    | None -> FR_skipped "no statechart domain in this campaign"
    | Some (spec, golden) ->
      let outcome =
        Telemetry.Metrics.span metrics "fault/run" (fun () ->
            classify_sc ~golden (sc_run ~metrics ~budget spec [ f ]))
      in
      FR_runs (List.rev (note "statechart" outcome [])))
  | Plan.F_token f ->
    let acc = ref [] in
    (match golden_act with
     | None -> ()
     | Some (spec, golden) ->
       let outcome =
         Telemetry.Metrics.span metrics "fault/run" (fun () ->
             classify_act ~golden (act_run ~metrics ~budget spec [ f ]))
       in
       acc := note "activity" outcome !acc);
    (match golden_net with
     | None -> ()
     | Some (ctx, invariants, golden) ->
       let outcome =
         Telemetry.Metrics.span metrics "fault/run" (fun () ->
             classify_net_with invariants ~golden
               (net_run_ctx ~metrics ~budget ctx [ f ]))
       in
       acc := note "petri" outcome !acc);
    if !acc = [] then FR_skipped "no token domain in this campaign"
    else FR_runs (List.rev !acc)

let run ?(metrics = Telemetry.Metrics.null)
    ?(budget = Exec.Budget.unlimited) ?pool ?rtl ?statechart ?activity ?net
    ~label plan =
  (* registered up front so it reports 0 even for an empty campaign *)
  let (_ : Telemetry.Metrics.counter) =
    Telemetry.Metrics.counter metrics "fault.injected"
  in
  (* golden runs: once per supplied spec, before any injection, always
     on the caller's domain and registry; the module is lowered here,
     once, and every run starts from that netlist *)
  let golden_rtl =
    Option.map
      (fun s ->
        let netlist = lower s in
        (s, netlist, rtl_exec ~metrics ~budget s netlist []))
      rtl
  in
  let golden_sc =
    Option.map (fun s -> (s, sc_run ~metrics ~budget s [])) statechart
  in
  let golden_act =
    Option.map (fun s -> (s, act_run ~metrics ~budget s [])) activity
  in
  let faults = Array.of_list plan.Plan.faults in
  (* the net compiled and its P-invariants computed once, here on the
     caller's domain, before any sharding *)
  let golden_net =
    Option.map
      (fun s ->
        let ctx = net_ctx s in
        ( ctx,
          Petri.Invariant.p_invariants s.np_net,
          net_run_ctx ~metrics ~budget ctx [] ))
      net
  in
  let n = Array.length faults in
  let results = Array.make n (FR_skipped "") in
  (match pool with
   | Some p when Exec.Pool.jobs p > 1 && n > 0 ->
     (* one metrics fork per fault, merged back in plan order, so the
        merged registry reports byte-for-byte what the sequential branch
        below would have recorded *)
     let forks = Array.init n (fun _ -> Telemetry.Metrics.fork metrics) in
     Exec.Pool.parallel_for p ~n (fun i ->
         results.(i) <-
           exec_fault ~metrics:forks.(i) ~budget ~golden_rtl ~golden_sc
             ~golden_act ~golden_net faults.(i));
     Array.iter
       (fun child -> Telemetry.Metrics.merge_into ~into:metrics child)
       forks
   | Some _ | None ->
     for i = 0 to n - 1 do
       results.(i) <-
         exec_fault ~metrics ~budget ~golden_rtl ~golden_sc ~golden_act
           ~golden_net faults.(i)
     done);
  let runs = ref [] in
  let skipped = ref [] in
  Array.iteri
    (fun index result ->
      match result with
      | FR_skipped reason -> skipped := (faults.(index), reason) :: !skipped
      | FR_runs domain_outcomes ->
        List.iter
          (fun (domain, outcome) ->
            runs :=
              { run_index = index; run_domain = domain;
                run_fault = faults.(index); run_outcome = outcome }
              :: !runs)
          domain_outcomes)
    results;
  {
    rp_label = label;
    rp_plan = plan;
    rp_runs = List.rev !runs;
    rp_skipped = List.rev !skipped;
  }

let totals report =
  List.fold_left
    (fun t r ->
      let t = { t with t_injected = t.t_injected + 1 } in
      match r.run_outcome with
      | Masked -> { t with t_masked = t.t_masked + 1 }
      | Detected _ -> { t with t_detected = t.t_detected + 1 }
      | Silent -> { t with t_silent = t.t_silent + 1 }
      | Truncated _ -> { t with t_truncated = t.t_truncated + 1 })
    { t_injected = 0; t_masked = 0; t_detected = 0; t_silent = 0;
      t_truncated = 0 }
    report.rp_runs

let coverage t =
  let unmasked = t.t_injected - t.t_masked in
  if unmasked <= 0 then 1.0 else float_of_int t.t_detected /. float_of_int unmasked

let outcome_to_string = function
  | Masked -> "masked"
  | Detected what -> Printf.sprintf "detected (%s)" what
  | Silent -> "silent"
  | Truncated what -> Printf.sprintf "truncated (%s)" what

let to_text report =
  let b = Buffer.create 1024 in
  let t = totals report in
  Printf.bprintf b "fault campaign: %s (seed %d, %d faults planned)\n"
    report.rp_label report.rp_plan.Plan.seed
    (List.length report.rp_plan.Plan.faults);
  List.iter
    (fun r ->
      Printf.bprintf b "  run %02d %-10s %s -> %s\n" r.run_index r.run_domain
        (Plan.fault_to_string r.run_fault)
        (outcome_to_string r.run_outcome))
    report.rp_runs;
  List.iter
    (fun (f, reason) ->
      Printf.bprintf b "  skip   %s (%s)\n" (Plan.fault_to_string f) reason)
    report.rp_skipped;
  Printf.bprintf b
    "summary: injected=%d masked=%d detected=%d silent=%d truncated=%d\n"
    t.t_injected t.t_masked t.t_detected t.t_silent t.t_truncated;
  Printf.bprintf b "coverage: %.1f%% of non-masked faults detected\n"
    (100. *. coverage t);
  Buffer.contents b

let to_json report =
  let t = totals report in
  let open Sjson.Json in
  let fault f = Str (Plan.fault_to_string f) in
  let run r =
    let detail =
      match r.run_outcome with
      | Detected what | Truncated what -> what
      | Masked | Silent -> ""
    in
    Obj
      [
        ("index", Int r.run_index); ("domain", Str r.run_domain);
        ("fault", fault r.run_fault);
        ("outcome", Str (outcome_counter_suffix r.run_outcome));
        ("detail", Str detail);
      ]
  in
  let skip (f, reason) = Obj [ ("fault", fault f); ("reason", Str reason) ] in
  let coverage = float_of_string (Printf.sprintf "%.6g" (coverage t)) in
  to_report
    [
      ("label", Str report.rp_label); ("seed", Int report.rp_plan.Plan.seed);
      ("runs", List (List.map run report.rp_runs));
      ("skipped", List (List.map skip report.rp_skipped));
      ( "summary",
        Obj
          [
            ("injected", Int t.t_injected); ("masked", Int t.t_masked);
            ("detected", Int t.t_detected); ("silent", Int t.t_silent);
            ("truncated", Int t.t_truncated); ("coverage", Float coverage);
          ] );
    ]
