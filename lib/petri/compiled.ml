type t = {
  source : Net.t;
  place_ids : string array;
  transition_ids : string array;
  place_idx : (string, int) Hashtbl.t;
  transition_idx : (string, int) Hashtbl.t;
  pre : (int * int) array array;  (** transition -> (place, weight) *)
  post : (int * int) array array;
}

type marking = {
  slots : int array;  (** never mutated after construction *)
  hash : int;
}

let hash_slots slots =
  Array.fold_left (fun h n -> (h * 31) + n + 1) (Array.length slots) slots
  land max_int

let make_marking slots = { slots; hash = hash_slots slots }

let index_of ids =
  let table = Hashtbl.create (Array.length ids * 2) in
  Array.iteri (fun i id -> Hashtbl.replace table id i) ids;
  table

let of_net (net : Net.t) =
  let place_ids =
    Array.of_list (List.map (fun p -> p.Net.pl_id) net.Net.places)
  in
  let transition_ids =
    Array.of_list (List.map (fun tn -> tn.Net.tn_id) net.Net.transitions)
  in
  let place_idx = index_of place_ids in
  let transition_idx = index_of transition_ids in
  let nt = Array.length transition_ids in
  let pre_acc = Array.make nt [] in
  let post_acc = Array.make nt [] in
  List.iter
    (fun arc ->
      match arc with
      | Net.P_to_t (p, tn, w) ->
        let ti = Hashtbl.find transition_idx tn in
        pre_acc.(ti) <- (Hashtbl.find place_idx p, w) :: pre_acc.(ti)
      | Net.T_to_p (tn, p, w) ->
        let ti = Hashtbl.find transition_idx tn in
        post_acc.(ti) <- (Hashtbl.find place_idx p, w) :: post_acc.(ti))
    net.Net.arcs;
  (* [Net.pre]/[Net.post] return arcs in net order; the accumulators
     are reversed, so restore it for identical iteration order. *)
  let finalize acc = Array.map (fun l -> Array.of_list (List.rev l)) acc in
  {
    source = net;
    place_ids;
    transition_ids;
    place_idx;
    transition_idx;
    pre = finalize pre_acc;
    post = finalize post_acc;
  }

let net c = c.source
let place_count c = Array.length c.place_ids
let transition_count c = Array.length c.transition_ids
let transition_id c i = c.transition_ids.(i)
let transition_index c id = Hashtbl.find_opt c.transition_idx id
let place_id c i = c.place_ids.(i)
let pre_arcs c ti = c.pre.(ti)
let post_arcs c ti = c.post.(ti)

let split c m =
  let slots = Array.make (Array.length c.place_ids) 0 in
  let residue =
    List.filter
      (fun (p, n) ->
        match Hashtbl.find_opt c.place_idx p with
        | Some i ->
          slots.(i) <- n;
          false
        | None -> n <> 0)
      (Marking.to_list m)
  in
  (make_marking slots, residue)

let export c residue m =
  let base =
    Array.to_list (Array.mapi (fun i n -> (c.place_ids.(i), n)) m.slots)
  in
  Marking.of_list (base @ residue)

let tokens m i = m.slots.(i)
let marking_equal m1 m2 = m1.hash = m2.hash && m1.slots = m2.slots
let marking_hash m = m.hash

let enabled c m ti =
  ti >= 0
  && ti < Array.length c.transition_ids
  && Array.for_all (fun (p, w) -> m.slots.(p) >= w) c.pre.(ti)

(* Firing an already-checked transition: copy, subtract, add. *)
let fire_enabled c m ti =
  let slots = Array.copy m.slots in
  Array.iter (fun (p, w) -> slots.(p) <- slots.(p) - w) c.pre.(ti);
  Array.iter (fun (p, w) -> slots.(p) <- slots.(p) + w) c.post.(ti);
  make_marking slots

let fire c m ti = if enabled c m ti then Some (fire_enabled c m ti) else None

let fire_by_id c m id =
  match transition_index c id with
  | Some ti -> fire c m ti
  | None -> None

type reach = {
  r_order : marking list;
  r_state_count : int;
  r_truncated : bool;
  r_deadlocks : (int * marking) list;
  r_first_enabled : int array;
  r_max_tokens : int;
}

module H = Hashtbl.Make (struct
  type t = marking

  let equal = marking_equal
  let hash = marking_hash
end)

let reachable ?(limit = 10_000) ?metered ?(metrics = Telemetry.Metrics.null)
    ?(budget = Exec.Budget.unlimited) c m0 =
  let metered = Option.value metered ~default:limit in
  let m_explored = Telemetry.Metrics.counter metrics "petri.markings_explored" in
  let nt = Array.length c.transition_ids in
  let first_enabled = Array.make nt max_int in
  let seen = H.create 256 in
  let queue = Queue.create () in
  H.replace seen m0 ();
  Queue.push m0 queue;
  let order = ref [] in
  let deadlocks = ref [] in
  let visited = ref 0 in
  let truncated = ref false in
  let max_tokens = ref 0 in
  let continue = ref true in
  while !continue do
    if Queue.is_empty queue then continue := false
    else if !visited >= limit then begin
      truncated := true;
      continue := false
    end
    else begin
      let index = !visited in
      if index < metered then begin
        Exec.Budget.check budget;
        Telemetry.Metrics.incr m_explored
      end;
      let m = Queue.pop queue in
      incr visited;
      order := m :: !order;
      Array.iter (fun n -> if n > !max_tokens then max_tokens := n) m.slots;
      let any = ref false in
      for ti = 0 to nt - 1 do
        if Array.for_all (fun (p, w) -> m.slots.(p) >= w) c.pre.(ti) then begin
          if first_enabled.(ti) = max_int then first_enabled.(ti) <- index;
          any := true;
          let m' = fire_enabled c m ti in
          if not (H.mem seen m') then begin
            H.replace seen m' ();
            Queue.push m' queue
          end
        end
      done;
      if not !any then deadlocks := (index, m) :: !deadlocks
    end
  done;
  {
    r_order = List.rev !order;
    r_state_count = !visited;
    r_truncated = !truncated;
    r_deadlocks = List.rev !deadlocks;
    r_first_enabled = first_enabled;
    r_max_tokens = !max_tokens;
  }
