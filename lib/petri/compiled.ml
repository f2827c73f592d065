type t = {
  source : Net.t;
  place_ids : string array;
  transition_ids : string array;
  place_idx : (string, int) Hashtbl.t;
  transition_idx : (string, int) Hashtbl.t;
  pre : (int * int) array array;  (** transition -> (place, weight) *)
  post : (int * int) array array;
  place_weight : int array;
      (** [31^(places-1-p)]: what one token at [p] adds to a marking's
          hash, so firing updates the hash without rescanning *)
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
    place_weight =
      (let np = Array.length place_ids in
       let w = Array.make np 1 in
       for p = np - 2 downto 0 do
         w.(p) <- w.(p + 1) * 31
       done;
       w);
  }

let net c = c.source
let place_count c = Array.length c.place_ids
let transition_count c = Array.length c.transition_ids
let transition_index c id = Hashtbl.find_opt c.transition_idx id
let place_id c i = c.place_ids.(i)
let place_index c id = Hashtbl.find_opt c.place_idx id
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

let add_tokens m i delta =
  let slots = Array.copy m.slots in
  slots.(i) <- slots.(i) + delta;
  make_marking slots

let marking_equal m1 m2 = m1.hash = m2.hash && m1.slots = m2.slots

(* A plain loop over the input arcs: no closure per transition. *)
let pre_enabled pre slots =
  let rec go i =
    i < 0
    ||
    let p, w = pre.(i) in
    slots.(p) >= w && go (i - 1)
  in
  go (Array.length pre - 1)

let enabled c m ti =
  ti >= 0
  && ti < Array.length c.transition_ids
  && pre_enabled c.pre.(ti) m.slots

(* Firing an already-checked transition: copy, subtract, add.  The
   hash is polynomial in the slots, so each arc moves it by its weight
   times the place's coefficient (all modulo [max_int + 1]). *)
let fire_enabled c m ti =
  let slots = Array.copy m.slots in
  let pre = c.pre.(ti) and post = c.post.(ti) in
  let h = ref m.hash in
  for i = 0 to Array.length pre - 1 do
    let p, w = pre.(i) in
    slots.(p) <- slots.(p) - w;
    h := !h - (w * c.place_weight.(p))
  done;
  for i = 0 to Array.length post - 1 do
    let p, w = post.(i) in
    slots.(p) <- slots.(p) + w;
    h := !h + (w * c.place_weight.(p))
  done;
  { slots; hash = !h land max_int }

let fire c m ti = if enabled c m ti then Some (fire_enabled c m ti) else None

let fire_by_id c m id =
  match transition_index c id with
  | Some ti -> fire c m ti
  | None -> None

type reach = {
  r_queue : marking array;
  r_state_count : int;
  r_truncated : bool;
  r_deadlocks : (int * marking) list;
  r_first_enabled : int array;
  r_max_tokens : int;
}

(* The visited set: open addressing with linear probing, so a successor
   is looked up and, when new, inserted in one probe sequence.  Starts
   small and doubles at half load. *)
module Seen = struct
  type t = {
    mutable keys : marking array;
    mutable count : int;
  }

  let vacant = { slots = [||]; hash = -1 }
  let create () = { keys = Array.make 256 vacant; count = 0 }

  (* Multiply, then fold the high bits down: hashes of neighbouring
     markings differ in their low bits only, which linear probing would
     turn into long runs. *)
  let home keys m =
    let h = m.hash * 0x1E3779B97F4A7C15 in
    (h lxor (h lsr 32)) land (Array.length keys - 1)

  let insert keys m =
    let mask = Array.length keys - 1 in
    let rec probe i =
      let k = keys.(i) in
      if k == vacant then begin
        keys.(i) <- m;
        true
      end
      else if marking_equal k m then false
      else probe ((i + 1) land mask)
    in
    probe (home keys m)

  let add_new s m =
    insert s.keys m
    && begin
      s.count <- s.count + 1;
      if 2 * s.count > Array.length s.keys then begin
        let old = s.keys in
        s.keys <- Array.make (2 * Array.length old) vacant;
        Array.iter (fun k -> if k != vacant then ignore (insert s.keys k)) old
      end;
      true
    end
end

(* The BFS queue is an array that only grows: everything pushed stays,
   so its first [visited] entries are the visit order, at no cost to
   callers that do not read it. *)
let reachable ?(limit = 10_000) ?metered ?(metrics = Telemetry.Metrics.null)
    ?(budget = Exec.Budget.unlimited) c m0 =
  let metered = Option.value metered ~default:limit in
  let m_explored = Telemetry.Metrics.counter metrics "petri.markings_explored" in
  let nt = Array.length c.transition_ids in
  let first_enabled = Array.make nt max_int in
  let seen = Seen.create () in
  let queue = ref (Array.make 256 m0) in
  let tail = ref 1 in
  let push m =
    if !tail = Array.length !queue then begin
      let bigger = Array.make (2 * !tail) m0 in
      Array.blit !queue 0 bigger 0 !tail;
      queue := bigger
    end;
    !queue.(!tail) <- m;
    incr tail
  in
  ignore (Seen.add_new seen m0);
  let deadlocks = ref [] in
  let visited = ref 0 in
  let truncated = ref false in
  let max_tokens = ref 0 in
  let continue = ref true in
  while !continue do
    if !visited = !tail then continue := false
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
      let m = !queue.(index) in
      incr visited;
      let slots = m.slots in
      for p = 0 to Array.length slots - 1 do
        if slots.(p) > !max_tokens then max_tokens := slots.(p)
      done;
      let any = ref false in
      for ti = 0 to nt - 1 do
        if pre_enabled c.pre.(ti) slots then begin
          if first_enabled.(ti) = max_int then first_enabled.(ti) <- index;
          any := true;
          let m' = fire_enabled c m ti in
          if Seen.add_new seen m' then push m'
        end
      done;
      if not !any then deadlocks := (index, m) :: !deadlocks
    end
  done;
  {
    r_queue = !queue;
    r_state_count = !visited;
    r_truncated = !truncated;
    r_deadlocks = List.rev !deadlocks;
    r_first_enabled = first_enabled;
    r_max_tokens = !max_tokens;
  }
