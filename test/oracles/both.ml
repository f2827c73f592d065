(* The two RTL engines in lockstep: the production [Dsim.Fast] and the
   reference interpreter [Sim], driven by the same calls.  A call that
   raises [Dsim.Netlist.Simulation_error] must raise it on both engines
   (the production message is re-raised); every read first checks that
   the two full snapshots agree, and reads answer with the production
   value.  Disagreement raises [Failure]. *)

type t = {
  fast : Dsim.Fast.t;
  sim : Sim.t;
}

let show snapshot =
  String.concat " "
    (List.map (fun (n, v) -> Printf.sprintf "%s=%d" n v) snapshot)

let both what f g =
  let attempt h =
    match h () with
    | v -> Ok v
    | exception Dsim.Netlist.Simulation_error msg -> Error msg
  in
  let a = attempt f in
  let b = attempt g in
  match (a, b) with
  | Ok a, Ok b -> (a, b)
  | Error msg, Error _ -> raise (Dsim.Netlist.Simulation_error msg)
  | Ok _, Error msg ->
    failwith
      (Printf.sprintf "%s: only the reference engine raised: %s" what msg)
  | Error msg, Ok _ ->
    failwith (Printf.sprintf "%s: only Dsim.Fast raised: %s" what msg)

let create m =
  let fast, sim =
    both "create" (fun () -> Dsim.Fast.create m) (fun () -> Sim.create m)
  in
  { fast; sim }

let agree t =
  let a = Dsim.Fast.snapshot t.fast and b = Sim.snapshot t.sim in
  if a <> b then
    failwith
      (Printf.sprintf "engines disagree: fast [%s], reference [%s]" (show a)
         (show b))

let read what f g =
  let a, b = both what f g in
  if a <> b then
    failwith (Printf.sprintf "%s: engines read different values" what);
  a

let step what f g =
  let (), () = both what f g in
  ()

let set_input t name v =
  step "set_input"
    (fun () -> Dsim.Fast.set_input t.fast name v)
    (fun () -> Sim.set_input t.sim name v)

let clock_edge t clock =
  step "clock_edge"
    (fun () -> Dsim.Fast.clock_edge t.fast clock)
    (fun () -> Sim.clock_edge t.sim clock)

let cycle ?inputs t clock =
  step "cycle"
    (fun () -> Dsim.Fast.cycle ?inputs t.fast clock)
    (fun () -> Sim.cycle ?inputs t.sim clock)

let run t ~clock ~cycles =
  step "run"
    (fun () -> Dsim.Fast.run t.fast ~clock ~cycles)
    (fun () -> Sim.run t.sim ~clock ~cycles)

let get t name =
  agree t;
  read ("get " ^ name)
    (fun () -> Dsim.Fast.get t.fast name)
    (fun () -> Sim.get t.sim name)

let get_enum t name =
  agree t;
  read ("get_enum " ^ name)
    (fun () -> Dsim.Fast.get_enum t.fast name)
    (fun () -> Sim.get_enum t.sim name)

(* Counters differ between the engines by design (the production engine
   skips evaluations); each is returned as [(fast, reference)]. *)
let events t = (Dsim.Fast.events t.fast, Sim.events t.sim)
let delta_cycles t = (Dsim.Fast.delta_cycles t.fast, Sim.delta_cycles t.sim)

(* A probe over both engines, for the VCD and timing renderers: every
   read goes through [get]'s checks. *)
let probe t =
  let fast = Dsim.Fast.probe t.fast and reference = Sim.probe t.sim in
  if fast.Dsim.Probe.pr_signals <> reference.Dsim.Probe.pr_signals then
    failwith "probe: engines list different signals";
  {
    fast with
    Dsim.Probe.pr_get =
      (fun name ->
        agree t;
        read ("probe " ^ name)
          (fun () -> fast.Dsim.Probe.pr_get name)
          (fun () -> reference.Dsim.Probe.pr_get name));
  }
