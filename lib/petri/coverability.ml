type count =
  | Fin of int
  | Omega

type omega_marking = (string * count) list

type result = {
  nodes : int;
  unbounded_places : string list;
  truncated : bool;
}

(* Internal representation: ω-markings as int arrays over the compiled
   net's dense place indices, with [omega] as the ω sentinel.  Token
   counts never approach [max_int] — acceleration pushes any strictly
   growing place to ω long before — so the sentinel is unambiguous. *)
let omega = max_int

let hash_om om =
  Array.fold_left (fun h n -> (h * 31) + n + 1) (Array.length om) om
  land max_int

module H = Hashtbl.Make (struct
  type t = int array

  let equal (a : int array) b = a = b
  let hash = hash_om
end)

let enabled c om ti =
  Array.for_all
    (fun (p, w) -> om.(p) = omega || om.(p) >= w)
    (Compiled.pre_arcs c ti)

let fire c om ti =
  let next = Array.copy om in
  Array.iter
    (fun (p, w) -> if next.(p) <> omega then next.(p) <- next.(p) - w)
    (Compiled.pre_arcs c ti);
  Array.iter
    (fun (p, w) -> if next.(p) <> omega then next.(p) <- next.(p) + w)
    (Compiled.post_arcs c ti);
  next

(* partial order: om1 <= om2 *)
let leq om1 om2 =
  let n = Array.length om1 in
  let rec check i =
    i >= n
    || (om2.(i) = omega || (om1.(i) <> omega && om1.(i) <= om2.(i)))
       && check (i + 1)
  in
  check 0

(* acceleration: any ancestor strictly below the new marking pushes the
   strictly larger places to omega.  [om] is fresh (from {!fire} or an
   earlier copy here), so in-place mutation keeps the reference
   engine's fold-over-ancestors sequencing. *)
let accelerate ancestors om =
  List.fold_left
    (fun om ancestor ->
      if leq ancestor om && om <> ancestor then begin
        Array.iteri
          (fun p a ->
            if a <> omega && om.(p) <> omega && om.(p) > a then
              om.(p) <- omega)
          ancestor;
        om
      end
      else om)
    om ancestors

let analyse ?(limit = 10_000) net m0 =
  let c = Compiled.of_net net in
  let np = Compiled.place_count c in
  let nt = Compiled.transition_count c in
  (* Places unknown to the net are inert under firing and can never
     reach ω; dropping them reproduces the reference verdicts. *)
  let cm0, _residue = Compiled.split c m0 in
  let om0 = Array.init np (Compiled.tokens cm0) in
  let seen = H.create 256 in
  let omega_seen = Array.make np false in
  let truncated = ref false in
  let node_count = ref 0 in
  let note_omegas om =
    Array.iteri (fun p n -> if n = omega then omega_seen.(p) <- true) om
  in
  let rec explore ancestors om =
    if !node_count >= limit then truncated := true
    else if H.mem seen om then ()
    else begin
      incr node_count;
      H.replace seen om ();
      note_omegas om;
      for ti = 0 to nt - 1 do
        if enabled c om ti then begin
          let next = accelerate (om :: ancestors) (fire c om ti) in
          explore (om :: ancestors) next
        end
      done
    end
  in
  explore [] om0;
  let unbounded = ref [] in
  for p = np - 1 downto 0 do
    if omega_seen.(p) then unbounded := Compiled.place_id c p :: !unbounded
  done;
  {
    nodes = !node_count;
    unbounded_places = List.sort String.compare !unbounded;
    truncated = !truncated;
  }

let verdict r =
  if r.unbounded_places <> [] then Some false
  else if r.truncated then None
  else Some true

let is_bounded ?limit net m0 = verdict (analyse ?limit net m0)

let covers (om : omega_marking) m =
  let covers_entry p n =
    match List.assoc_opt p om with
    | Some Omega -> true
    | Some (Fin k) -> k >= n
    | None -> n = 0
  in
  List.for_all (fun (p, n) -> covers_entry p n) (Marking.to_list m)
