(* Reference oracle for the [net_run] differential property in
   [test_compiled]: the campaign's Petri-net step loop as it ran on the
   string-keyed [Petri.Marking], and [classify_net] recomputing the
   P-invariants per call, kept verbatim (bar module paths), so any
   drift in choices, markings, fault handling or outcomes shows up as
   a counterexample.  The run keeps its own full trace (fired ids and
   the marking after every step); the production run keeps only the
   final marking and the stop flags, and the differential compares it
   with this record's projection. *)

open Fault.Campaign

type net_run = {
  nr_fired : string list;  (** transition ids, firing order *)
  nr_markings : (string * int) list list;  (** marking after each step *)
  nr_final : (string * int) list;
  nr_deadlocked : bool;
  nr_truncated : bool;
}

let inject_tokens adjust step faults =
  List.iter
    (fun f ->
      match f with
      | Fault.Plan.Lose_token { lt_place; lt_step } ->
        if lt_step = step then adjust lt_place (-1)
      | Fault.Plan.Dup_token { dt_place; dt_step } ->
        if dt_step = step then adjust dt_place 1)
    faults

let net_run ?(metrics = Telemetry.Metrics.null)
    ?(budget = Exec.Budget.unlimited) spec faults =
  let fired_counter = Telemetry.Metrics.counter metrics "petri.fired" in
  let rng = Workload.Prng.create spec.np_choice_seed in
  let marking = ref spec.np_marking in
  let inject step =
    inject_tokens
      (fun place delta ->
        if delta > 0 || Petri.Marking.tokens !marking place > 0 then
          marking := Petri.Marking.add !marking place delta)
      step faults
  in
  let rec loop step fired markings =
    Exec.Budget.check budget;
    inject step;
    if step >= spec.np_max_steps then (List.rev fired, List.rev markings, false, true)
    else
      match Petri.Marking.enabled_transitions spec.np_net !marking with
      | [] -> (List.rev fired, List.rev markings, true, false)
      | enabled -> (
        let tn = Workload.Prng.pick rng enabled in
        match Petri.Marking.fire spec.np_net !marking tn.Petri.Net.tn_id with
        | None -> (List.rev fired, List.rev markings, true, false)
        | Some m' ->
          Telemetry.Metrics.incr fired_counter;
          marking := m';
          loop (step + 1)
            (tn.Petri.Net.tn_id :: fired)
            (Petri.Marking.to_list m' :: markings))
  in
  let fired, markings, deadlocked, truncated = loop 0 [] [] in
  {
    nr_fired = fired;
    nr_markings = markings;
    nr_final = Petri.Marking.to_list !marking;
    nr_deadlocked = deadlocked;
    nr_truncated = truncated;
  }

let classify_net spec ~golden injected =
  if injected.nr_truncated then Truncated "step budget exhausted"
  else if golden.nr_final = injected.nr_final then Masked
  else begin
    let invariants = Petri.Invariant.p_invariants spec.np_net in
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

