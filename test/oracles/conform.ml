type report = {
  steps : int;
  conforms : bool;
  mismatch : string option;
}

(* Replays run on the compiled net: labels are interned once and each
   firing is array arithmetic instead of arc-list scans. *)
let check_trace act labels =
  let net, m0 = Activity.Translate.to_petri act in
  let c = Petri.Compiled.of_net net in
  let cm0, _residue = Petri.Compiled.split c m0 in
  let rec replay m n = function
    | [] -> (n, Ok m)
    | label :: rest -> (
      match Petri.Compiled.fire_by_id c m label with
      | Some m' -> replay m' (n + 1) rest
      | None -> (n, Error label))
  in
  match replay cm0 0 labels with
  | n, Ok _m -> { steps = n; conforms = true; mismatch = None }
  | n, Error label ->
    {
      steps = n;
      conforms = false;
      mismatch =
        Some (Printf.sprintf "label %s not enabled in net after %d steps" label n);
    }

let run_and_check ?seed ?max_steps act =
  let engine = Activity.Exec.create act in
  let labels = Activity.Exec.run ?seed ?max_steps engine in
  let net, m0 = Activity.Translate.to_petri act in
  let c = Petri.Compiled.of_net net in
  let cm0, residue = Petri.Compiled.split c m0 in
  let rec replay m = function
    | [] -> Ok m
    | label :: rest -> (
      match Petri.Compiled.fire_by_id c m label with
      | Some m' -> replay m' rest
      | None -> Error label)
  in
  match replay cm0 labels with
  | Error label ->
    {
      steps = List.length labels;
      conforms = false;
      mismatch = Some (Printf.sprintf "label %s not enabled in net" label);
    }
  | Ok final_compiled_marking ->
    let net_marking =
      Petri.Marking.to_list
        (Petri.Compiled.export c residue final_compiled_marking)
    in
    let engine_marking = Activity.Exec.tokens engine in
    if net_marking = engine_marking then
      { steps = List.length labels; conforms = true; mismatch = None }
    else
      {
        steps = List.length labels;
        conforms = false;
        mismatch =
          Some
            (Printf.sprintf "final markings differ: net %s vs engine %s"
               (String.concat ","
                  (List.map (fun (p, n) -> Printf.sprintf "%s:%d" p n) net_marking))
               (String.concat ","
                  (List.map
                     (fun (p, n) -> Printf.sprintf "%s:%d" p n)
                     engine_marking)));
      }
