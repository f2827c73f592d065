(* Reference oracle for the RTL and statechart campaign runs: the
   recording loops as they ran before the campaign kept only what its
   classifiers read, kept verbatim (bar module paths and their own
   record types).  Each run records its whole trace — every per-cycle
   snapshot and the rendered VCD, every per-event signature — so the
   differentials in [test_fault] can check that a production run
   equals this trace's projection (last element, error, status and
   flags), and the snapshot and VCD assertions still have a path that
   records. *)

open Fault.Campaign

type rtl_run = {
  rr_snapshots : (string * int) list list;
      (** full snapshot after each clocked edge, cycle order *)
  rr_vcd : string;  (** rendered waveform over the run *)
  rr_error : string option;
}

let inject_rtl sim cycle faults =
  List.iter
    (fun f ->
      match f with
      | Fault.Plan.Bit_flip { fb_signal; fb_cycle; fb_bit } ->
        if fb_cycle = cycle then
          Dsim.Fast.force sim fb_signal
            (Dsim.Fast.get sim fb_signal lxor (1 lsl fb_bit))
      | Fault.Plan.Stuck_at { sa_signal; sa_value; sa_from } ->
        if sa_from <= cycle then
          Dsim.Fast.force sim sa_signal (if sa_value = 0 then 0 else -1))
    faults

let rtl_run ?(metrics = Telemetry.Metrics.null)
    ?(budget = Exec.Budget.unlimited) spec faults =
  match
    Dsim.Fast.create ~metrics ~settle_budget:spec.rs_settle_budget ~budget
      spec.rs_module
  with
  | exception Dsim.Netlist.Simulation_error msg ->
    { rr_snapshots = []; rr_vcd = ""; rr_error = Some msg }
  | sim ->
    let vcd = Dsim.Vcd.create sim in
    let snapshots = ref [] in
    let error = ref None in
    (try
       (match spec.rs_reset with
        | Some r ->
          Dsim.Fast.set_input sim r 1;
          Dsim.Fast.clock_edge sim spec.rs_clock;
          Dsim.Fast.set_input sim r 0
        | None -> ());
       let c = ref 0 in
       while !c < spec.rs_cycles && !error = None do
         Exec.Budget.check budget;
         let cycle = !c in
         (match List.assoc_opt cycle spec.rs_stimulus with
          | Some inputs ->
            List.iter (fun (n, v) -> Dsim.Fast.set_input sim n v) inputs
          | None -> ());
         Dsim.Fast.clock_edge sim spec.rs_clock;
         inject_rtl sim cycle faults;
         snapshots := Dsim.Fast.snapshot sim :: !snapshots;
         Dsim.Vcd.sample vcd ~time:cycle;
         incr c
       done
     with Dsim.Netlist.Simulation_error msg -> error := Some msg);
    {
      rr_snapshots = List.rev !snapshots;
      rr_vcd = Dsim.Vcd.render vcd;
      rr_error = !error;
    }

let final_snapshot r =
  match List.rev r.rr_snapshots with
  | last :: _earlier -> last
  | [] -> []

let classify_rtl ~golden injected =
  match injected.rr_error with
  | Some msg -> Detected msg
  | None ->
    if final_snapshot golden = final_snapshot injected then Masked else Silent

type sc_run = {
  sc_signatures : string list;
      (** {!Statechart.Engine.signature} after each delivered event *)
  sc_status : string;
  sc_error : string option;
  sc_truncated : bool;
}

let status_string engine =
  match Statechart.Engine.status engine with
  | Statechart.Engine.Running -> "running"
  | Statechart.Engine.Finished -> "finished"
  | Statechart.Engine.Terminated -> "terminated"

let sc_run ?(metrics = Telemetry.Metrics.null)
    ?(budget = Exec.Budget.unlimited) spec faults =
  let events = perturb_events faults spec.ss_events in
  let engine = Statechart.Engine.create ~metrics spec.ss_machine in
  let signatures = ref [] in
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
         signatures := Statechart.Engine.signature engine :: !signatures;
         if not !truncated then deliver rest
     in
     deliver events
   with Statechart.Engine.Model_error msg -> error := Some msg);
  {
    sc_signatures = List.rev !signatures;
    sc_status = status_string engine;
    sc_error = !error;
    sc_truncated = !truncated;
  }

let final_signature r =
  match List.rev r.sc_signatures with
  | last :: _earlier -> last
  | [] -> ""

let classify_sc ~golden injected =
  match injected.sc_error with
  | Some msg -> Detected (Printf.sprintf "model error: %s" msg)
  | None ->
    if injected.sc_truncated then Truncated "dispatch budget exhausted"
    else if golden.sc_status <> injected.sc_status then
      Detected
        (Printf.sprintf "status diverged: golden %s, injected %s"
           golden.sc_status injected.sc_status)
    else if final_signature golden = final_signature injected then Masked
    else Silent
