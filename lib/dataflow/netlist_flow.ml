module SSet = Set.Make (String)
module M = Hdl.Module_
module N = Dsim.Netlist

(* Exactly one flop: [t := s]. *)
let flop_shape (sp : M.seq_process) =
  match sp.M.sp_body with
  | [ Hdl.Stmt.Assign (t, Hdl.Expr.Ref s) ] -> Some (t, s)
  | [ Hdl.Stmt.Assign (_, _) ]
  | [ Hdl.Stmt.If (_, _, _) ]
  | [ Hdl.Stmt.Case (_, _, _) ]
  | [ Hdl.Stmt.Null ]
  | []
  | _ :: _ :: _ ->
    None

let run (nl : N.t) =
  let flat = nl.N.nl_module in
  let names = nl.N.nl_names in
  let n = Array.length names in
  let seq_srcs =
    Array.of_list
      (List.filter_map
         (fun p ->
           match p with
           | M.Seq sp -> Some sp
           | M.Comb _ -> None)
         flat.M.mod_processes)
  in
  (* clock domains: seeded at sequential writes, closed over comb *)
  let dom = Array.make n SSet.empty in
  Array.iter
    (fun (q : N.seq) ->
      Array.iter
        (fun w -> dom.(w) <- SSet.add q.N.q_clock dom.(w))
        q.N.q_writes)
    nl.N.nl_seq;
  let changed = ref true in
  while !changed do
    changed := false;
    Array.iter
      (fun (c : N.comb) ->
        let u =
          Array.fold_left
            (fun acc r -> SSet.union acc dom.(r))
            SSet.empty c.N.c_reads
        in
        Array.iter
          (fun w ->
            let d = SSet.union dom.(w) u in
            if not (SSet.equal d dom.(w)) then begin
              dom.(w) <- d;
              changed := true
            end)
          c.N.c_writes)
      nl.N.nl_comb
  done;
  let outputs =
    List.filter_map
      (fun (p : M.port) ->
        if p.M.port_dir = M.Output then
          match N.index nl p.M.port_name with
          | Some i -> Some (p.M.port_name, i)
          | None -> None
        else None)
      flat.M.mod_ports
  in
  let is_output name = List.exists (fun (o, _) -> String.equal o name) outputs in
  let seq_clock_readers si =
    Array.fold_left
      (fun acc (q : N.seq) ->
        if Array.exists (fun r -> r = si) q.N.q_reads then
          q.N.q_clock :: acc
        else acc)
      [] nl.N.nl_seq
  in
  let findings = ref [] in
  (* HDL-12: cross-domain reads in clocked processes *)
  Array.iteri
    (fun i (q : N.seq) ->
      let sp = seq_srcs.(i) in
      let c = q.N.q_clock in
      Array.iter
        (fun r ->
          let d = dom.(r) in
          if (not (SSet.is_empty d)) && not (SSet.equal d (SSet.singleton c))
          then begin
            let rname = names.(r) in
            let exempt =
              match flop_shape sp with
              | Some (t, s) when String.equal s rname && not (is_output t)
                -> (
                match N.index nl t with
                | Some ti ->
                  Array.length nl.N.nl_fanout.(ti) = 0
                  &&
                  let readers = seq_clock_readers ti in
                  readers <> [] && List.for_all (String.equal c) readers
                | None -> false)
              | Some _ | None -> false
            in
            if not exempt then
              findings :=
                Finding.make ~code:"HDL-12"
                  (Printf.sprintf
                     "process %s (clock %s) reads %s from clock domain %s \
                      without a 2-FF synchronizer"
                     q.N.q_name c rname
                     (String.concat "," (SSet.elements (SSet.remove c d))))
                :: !findings
          end)
        q.N.q_reads)
    nl.N.nl_seq;
  (* HDL-13: unreset, uninitialized registers that drive outputs *)
  Array.iter
    (fun (q : N.seq) ->
      match q.N.q_reset with
      | Some _ -> ()
      | None ->
        Array.iter
          (fun w ->
            let wname = names.(w) in
            let has_init =
              match M.find_signal flat wname with
              | Some s -> s.M.sig_init <> None
              | None -> false
            in
            if not has_init then begin
              let reached = Array.make n false in
              reached.(w) <- true;
              let grew = ref true in
              while !grew do
                grew := false;
                Array.iter
                  (fun (cb : N.comb) ->
                    if
                      Array.exists (fun r -> reached.(r)) cb.N.c_reads
                      && Array.exists (fun x -> not reached.(x)) cb.N.c_writes
                    then begin
                      Array.iter (fun x -> reached.(x) <- true) cb.N.c_writes;
                      grew := true
                    end)
                  nl.N.nl_comb
              done;
              match List.find_opt (fun (_, oi) -> reached.(oi)) outputs with
              | None -> ()
              | Some (oname, _) ->
                findings :=
                  Finding.make ~code:"HDL-13"
                    (Printf.sprintf
                       "register %s (process %s) has no reset and drives \
                        output %s before the first clock edge"
                       wname q.N.q_name oname)
                  :: !findings
            end)
          q.N.q_writes)
    nl.N.nl_seq;
  Finding.dedup !findings

let check ?(metrics = Telemetry.Metrics.null) design =
  match Hdl.Check.errors (Hdl.Check.check_design design) with
  | _ :: _ -> [] (* the HDL pass owns broken designs *)
  | [] -> (
    match Hdl.Elaborate.flatten design with
    | exception Hdl.Elaborate.Elaboration_error _ -> []
    | flat -> (
      match N.compile flat with
      | exception Dsim.Netlist.Simulation_error _ -> []
      | nl ->
        Telemetry.Metrics.incr
          ~by:(Array.length nl.N.nl_seq)
          (Telemetry.Metrics.counter metrics "dataflow.netlist.seq_processes");
        let out = run nl in
        Telemetry.Metrics.incr
          ~by:(List.length out)
          (Telemetry.Metrics.counter metrics "dataflow.netlist.findings");
        out))
