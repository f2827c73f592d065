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

let rtl_exec spec netlist ~metrics ~budget faults =
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
  rtl_exec spec (lower spec) ~metrics ~budget faults

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

(* The net compiled once per campaign, and its initial marking split
   into slots and a residue of places the net does not know: read-only,
   shared by every run on any domain. *)
let compile_net spec =
  let c = Petri.Compiled.of_net spec.np_net in
  let m0, residue = Petri.Compiled.split c spec.np_marking in
  (c, m0, Petri.Marking.of_list residue)

let net_exec spec (c, m0, residue) ~metrics ~budget faults =
  let fired_counter = Telemetry.Metrics.counter metrics "petri.fired" in
  let rng = Workload.Prng.create spec.np_choice_seed in
  let marking = ref m0 in
  let residue = ref residue in
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
  net_exec spec (compile_net spec) ~metrics ~budget faults

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

(* One engine family of a campaign, built once by [run] on the caller's
   domain: the golden run already done and the read-only context (the
   lowered netlist, or the compiled net with its split marking and
   P-invariants) are bound in [dm_take], which answers a fault of the
   family's kind with the run that classifies it, any other with
   [None]. *)
type domain = {
  dm_name : string;
  dm_take :
    Plan.fault ->
    (metrics:Telemetry.Metrics.t -> budget:Exec.Budget.t -> outcome) option;
}

(* [select] picks the family's faults; [exec] runs the engine over the
   bound context, [[]] being the golden run. *)
let domain ~metrics ~budget name select exec classify =
  let golden = exec ~metrics ~budget [] in
  let take fault =
    Option.map
      (fun f ~metrics ~budget -> classify ~golden (exec ~metrics ~budget [ f ]))
      (select fault)
  in
  { dm_name = name; dm_take = take }

let rtl_fault = function
  | Plan.F_rtl f -> Some f
  | Plan.F_statechart _ | Plan.F_token _ -> None

let sc_fault = function
  | Plan.F_statechart f -> Some f
  | Plan.F_rtl _ | Plan.F_token _ -> None

let token_fault = function
  | Plan.F_token f -> Some f
  | Plan.F_rtl _ | Plan.F_statechart _ -> None

let skip_reason = function
  | Plan.F_rtl _ -> "no rtl domain in this campaign"
  | Plan.F_statechart _ -> "no statechart domain in this campaign"
  | Plan.F_token _ -> "no token domain in this campaign"

(* One planned fault's worth of work: its runs in table order, [[]]
   when no domain takes it.  Everything a task touches — engines, PRNGs,
   the metrics registry it is handed — is task-local, so faults can
   execute on any domain in any order. *)
let exec_fault ~metrics ~budget domains index fault =
  Exec.Budget.check budget;
  let m_injected = Telemetry.Metrics.counter metrics "fault.injected" in
  let note d outcome =
    Telemetry.Metrics.incr m_injected;
    Telemetry.Metrics.incr
      (Telemetry.Metrics.counter metrics
         ("fault." ^ outcome_counter_suffix outcome));
    if Telemetry.Metrics.live metrics then
      Telemetry.Metrics.event metrics ~scope:"fault" "injected"
        [
          ("domain", Telemetry.Metrics.F_str d.dm_name);
          ("fault", Telemetry.Metrics.F_str (Plan.fault_to_string fault));
          ( "outcome",
            Telemetry.Metrics.F_str (outcome_counter_suffix outcome) );
        ];
    { run_index = index; run_domain = d.dm_name; run_fault = fault;
      run_outcome = outcome }
  in
  List.filter_map
    (fun d ->
      Option.map
        (fun exec ->
          note d
            (Telemetry.Metrics.span metrics "fault/run" (fun () ->
                 exec ~metrics ~budget)))
        (d.dm_take fault))
    domains

let run ?(metrics = Telemetry.Metrics.null)
    ?(budget = Exec.Budget.unlimited) ?pool ?rtl ?statechart ?activity ?net
    ~label plan =
  (* registered up front so it reports 0 even for an empty campaign *)
  let (_ : Telemetry.Metrics.counter) =
    Telemetry.Metrics.counter metrics "fault.injected"
  in
  (* the domain table: each family compiles and runs its golden once,
     before any injection, on the caller's domain and registry; bound
     one by one, so the goldens run in table order *)
  let domain name = domain ~metrics ~budget name in
  let rtl =
    Option.map
      (fun spec ->
        domain "rtl" rtl_fault (rtl_exec spec (lower spec)) classify_rtl)
      rtl
  in
  let statechart =
    Option.map
      (fun spec ->
        domain "statechart" sc_fault
          (fun ~metrics ~budget -> sc_run ~metrics ~budget spec)
          classify_sc)
      statechart
  in
  let activity =
    Option.map
      (fun spec ->
        domain "activity" token_fault
          (fun ~metrics ~budget -> act_run ~metrics ~budget spec)
          classify_act)
      activity
  in
  let net =
    Option.map
      (fun spec ->
        domain "petri" token_fault
          (net_exec spec (compile_net spec))
          (classify_net_with (Petri.Invariant.p_invariants spec.np_net)))
      net
  in
  let domains = List.filter_map Fun.id [ rtl; statechart; activity; net ] in
  let faults = Array.of_list plan.Plan.faults in
  let n = Array.length faults in
  let results = Array.make n [] in
  (match pool with
   | Some p when Exec.Pool.jobs p > 1 && n > 0 ->
     (* one metrics fork per fault, merged back in plan order, so the
        merged registry reports byte-for-byte what the sequential branch
        below would have recorded *)
     let forks = Array.init n (fun _ -> Telemetry.Metrics.fork metrics) in
     Exec.Pool.parallel_for p ~n (fun i ->
         results.(i) <-
           exec_fault ~metrics:forks.(i) ~budget domains i faults.(i));
     Array.iter
       (fun child -> Telemetry.Metrics.merge_into ~into:metrics child)
       forks
   | Some _ | None ->
     for i = 0 to n - 1 do
       results.(i) <- exec_fault ~metrics ~budget domains i faults.(i)
     done);
  {
    rp_label = label;
    rp_plan = plan;
    rp_runs = List.concat (Array.to_list results);
    rp_skipped =
      List.filteri (fun i _ -> results.(i) = []) plan.Plan.faults
      |> List.map (fun f -> (f, skip_reason f));
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
