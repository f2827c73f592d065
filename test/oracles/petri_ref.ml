(* Reference oracle for the reachability differentials in
   [test_compiled] and bench E2/E13: the original map/set-based BFS
   over string-keyed markings that [Petri.Analysis.reachable] (on
   [Petri.Compiled]) replaced.  It agrees with [reachable] exactly:
   same markings, same BFS order, same deadlocks and truncation
   verdict.  [random_occurrence_sequence] drives the differential
   against the activity engine. *)

open Petri

module MSet = Set.Make (struct
  type t = Marking.t

  let compare = Marking.compare
end)

let reachable ?(limit = 10_000) ?(metrics = Telemetry.Metrics.null) net m0 =
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
    Analysis.markings;
    state_count = List.length markings;
    truncated;
    deadlocks = List.rev deadlocks;
  }

(* A deterministic pseudo-random firing sequence: repeatedly fires the
   [seed]-selected enabled transition until none is enabled or
   [max_steps] were taken.  The linear-congruential choice lets a test
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
