type reach_result = {
  markings : Marking.t list;
  state_count : int;
  truncated : bool;
  deadlocks : Marking.t list;
}

type summary = {
  sum_state_count : int;
  sum_truncated : bool;
  sum_deadlocks : Marking.t list;
  sum_bound : int option;
  sum_deadlock_free : bool option;
  sum_dead_transitions : string list;
}

type exploration = {
  ex_compiled : Compiled.t;
  ex_m0 : Marking.t;
  ex_residue : (string * int) list;
  ex_limit : int;
  ex_reach : Compiled.reach;
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

(* The exploration and, apart, its visited markings: an exploration may
   be held for a whole request (analyze keeps one per activity for the
   lint pass), and summaries read visit indices only. *)
let explore_markings ?(limit = 10_000) ?metered ?metrics ?budget ?compiled
    net m0 =
  let c =
    match compiled with
    | Some c -> c
    | None -> Compiled.of_net net
  in
  let cm0, residue = Compiled.split c m0 in
  let r = Compiled.reachable ~limit ?metered ?metrics ?budget c cm0 in
  ( {
      ex_compiled = c;
      ex_m0 = m0;
      ex_residue = residue;
      ex_limit = limit;
      ex_reach = { r with Compiled.r_queue = [||] };
    },
    r.Compiled.r_queue )

let exploration ?limit ?metered ?metrics ?budget ?compiled net m0 =
  fst (explore_markings ?limit ?metered ?metrics ?budget ?compiled net m0)

(* The exploration at [limit] visited the first [limit] markings of this
   one, in the same order: every answer below is read off visit
   indices. *)
let summary ?limit ex =
  let limit =
    match limit with
    | None -> ex.ex_limit
    | Some l when l <= ex.ex_limit -> l
    | Some l ->
      invalid_arg
        (Printf.sprintf "Analysis.summary: limit %d exceeds the exploration's %d"
           l ex.ex_limit)
  in
  let r = ex.ex_reach in
  let visited = max 0 (min r.Compiled.r_state_count limit) in
  let truncated = r.Compiled.r_truncated || r.Compiled.r_state_count > limit in
  let export = Compiled.export ex.ex_compiled ex.ex_residue in
  let deadlocks =
    List.filter_map
      (fun (i, m) -> if i < visited then Some (export m) else None)
      r.Compiled.r_deadlocks
  in
  (* Residue places never change, so they contribute a constant to the
     per-place bound of every visited marking. *)
  let residue_max =
    List.fold_left (fun acc (_, n) -> max acc n) 0 ex.ex_residue
  in
  let c = ex.ex_compiled in
  let dead =
    List.filter_map
      (fun tn ->
        match Compiled.transition_index c tn.Net.tn_id with
        | Some ti when r.Compiled.r_first_enabled.(ti) >= visited ->
          Some tn.Net.tn_id
        | Some _ | None -> None)
      (Compiled.net c).Net.transitions
  in
  {
    sum_state_count = visited;
    sum_truncated = truncated;
    sum_deadlocks = deadlocks;
    sum_bound =
      (if truncated then None
       else Some (max r.Compiled.r_max_tokens residue_max));
    sum_deadlock_free =
      (if truncated && deadlocks = [] then None else Some (deadlocks = []));
    sum_dead_transitions = dead;
  }

let coverability ?(limit = 10_000) ex =
  let r = ex.ex_reach in
  let n = r.Compiled.r_state_count in
  if r.Compiled.r_truncated || n = limit then
    Coverability.analyse ~limit (Compiled.net ex.ex_compiled) ex.ex_m0
  else
    (* A complete exploration proves the net bounded, and Karp–Miller
       never accelerates on a bounded net (a marking strictly covering
       an ancestor repeats its path forever).  So it builds exactly the
       [n] reachable markings, stopping at [limit] of them.  Only when
       [n = limit] does its verdict hang on whether its depth-first walk
       tries one more edge after the last node, hence the call above. *)
    {
      Coverability.nodes = max 0 (min n limit);
      unbounded_places = [];
      truncated = n > limit;
    }

let explore ?limit ?metrics ?budget ?compiled net m0 =
  summary (exploration ?limit ?metrics ?budget ?compiled net m0)

let reachable ?limit ?metrics ?budget ?pool:_ ?compiled net m0 =
  let ex, queue = explore_markings ?limit ?metrics ?budget ?compiled net m0 in
  let s = summary ex in
  {
    markings =
      List.init s.sum_state_count (fun i ->
          Compiled.export ex.ex_compiled ex.ex_residue queue.(i));
    state_count = s.sum_state_count;
    truncated = s.sum_truncated;
    deadlocks = s.sum_deadlocks;
  }

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
