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
