type reach_result = {
  markings : Marking.t list;
  state_count : int;
  truncated : bool;
  deadlocks : Marking.t list;
}

type summary = {
  sum_reach : reach_result;
  sum_bound : int option;
  sum_deadlock_free : bool option;
  sum_dead_transitions : string list;
}

module MSet = Set.Make (struct
  type t = Marking.t

  let compare = Marking.compare
end)

let reachable_reference ?(limit = 10_000) ?(metrics = Telemetry.Metrics.null)
    net m0 =
  let m_explored = Telemetry.Metrics.counter metrics "petri.markings_explored" in
  let queue = Queue.create () in
  Queue.push m0 queue;
  (* [seen] is marked at enqueue time, so the frontier never holds
     duplicates; [visited] counts popped markings against [limit]. *)
  let rec loop seen visited order deadlocks =
    if Queue.is_empty queue then (order, deadlocks, false)
    else if visited >= limit then (order, deadlocks, true)
    else begin
      let m = Queue.pop queue in
      Telemetry.Metrics.incr m_explored;
      let successors =
        List.filter_map
          (fun tn -> Marking.fire net m tn.Net.tn_id)
          net.Net.transitions
      in
      let deadlocks = if successors = [] then m :: deadlocks else deadlocks in
      let seen =
        List.fold_left
          (fun seen m' ->
            if MSet.mem m' seen then seen
            else begin
              Queue.push m' queue;
              MSet.add m' seen
            end)
          seen successors
      in
      loop seen (visited + 1) (m :: order) deadlocks
    end
  in
  let order, deadlocks, truncated = loop (MSet.singleton m0) 0 [] [] in
  let markings = List.rev order in
  {
    markings;
    state_count = List.length markings;
    truncated;
    deadlocks = List.rev deadlocks;
  }

let explore ?limit ?metrics ?budget ?compiled net m0 =
  let c =
    match compiled with
    | Some c -> c
    | None -> Compiled.of_net net
  in
  let cm0, residue = Compiled.split c m0 in
  let r = Compiled.reachable ?limit ?metrics ?budget c cm0 in
  let export = Compiled.export c residue in
  let reach =
    {
      markings = List.map export r.Compiled.r_order;
      state_count = r.Compiled.r_state_count;
      truncated = r.Compiled.r_truncated;
      deadlocks = List.map export r.Compiled.r_deadlocks;
    }
  in
  (* Residue places never change, so they contribute a constant to the
     per-place bound of every visited marking. *)
  let residue_max =
    List.fold_left (fun acc (_, n) -> max acc n) 0 residue
  in
  let dead =
    List.filter_map
      (fun tn ->
        match Compiled.transition_index c tn.Net.tn_id with
        | Some ti when not r.Compiled.r_fired.(ti) -> Some tn.Net.tn_id
        | Some _ | None -> None)
      net.Net.transitions
  in
  {
    sum_reach = reach;
    sum_bound =
      (if reach.truncated then None
       else Some (max r.Compiled.r_max_tokens residue_max));
    sum_deadlock_free =
      (if reach.truncated && reach.deadlocks = [] then None
       else Some (reach.deadlocks = []));
    sum_dead_transitions = dead;
  }

let reachable ?limit ?metrics ?budget ?pool:_ ?compiled net m0 =
  (explore ?limit ?metrics ?budget ?compiled net m0).sum_reach

let is_deadlock_free ?limit net m0 = (explore ?limit net m0).sum_deadlock_free
let bound ?limit net m0 = (explore ?limit net m0).sum_bound

let is_k_bounded ?limit k net m0 =
  match bound ?limit net m0 with
  | Some b -> Some (b <= k)
  | None -> None

(* Deterministic linear-congruential choice, so differential tests can
   replay the same sequence on both engines. *)
let random_occurrence_sequence ~seed ~max_steps net m0 =
  let state = ref (seed land 0x3FFFFFFF) in
  let next_choice bound =
    state := ((!state * 1103515245) + 12345) land 0x3FFFFFFF;
    !state mod bound
  in
  let rec loop m steps acc =
    if steps >= max_steps then List.rev acc
    else
      match Marking.enabled_transitions net m with
      | [] -> List.rev acc
      | enabled ->
        let pick = List.nth enabled (next_choice (List.length enabled)) in
        (match Marking.fire net m pick.Net.tn_id with
         | Some m' -> loop m' (steps + 1) (pick.Net.tn_id :: acc)
         | None -> List.rev acc)
  in
  loop m0 0 []

let dead_transitions ?limit ?budget ?compiled net m0 =
  (explore ?limit ?budget ?compiled net m0).sum_dead_transitions
