type place = {
  pl_id : string;
  pl_name : string;
}
[@@deriving eq, ord, show]

type transition = {
  tn_id : string;
  tn_name : string;
}
[@@deriving eq, ord, show]

type arc =
  | P_to_t of string * string * int
  | T_to_p of string * string * int
[@@deriving eq, ord, show]

type t = {
  places : place list;
  transitions : transition list;
  arcs : arc list;
}
[@@deriving eq, show]

let place ?name pl_id =
  let pl_name =
    match name with
    | Some n -> n
    | None -> pl_id
  in
  { pl_id; pl_name }

let transition ?name tn_id =
  let tn_name =
    match name with
    | Some n -> n
    | None -> tn_id
  in
  { tn_id; tn_name }

let make places transitions arcs =
  let module S = Set.Make (String) in
  let add_unique what s id =
    if S.mem id s then
      invalid_arg (Printf.sprintf "Net.make: duplicate %s %s" what id)
    else S.add id s
  in
  let place_ids =
    List.fold_left
      (fun s p -> add_unique "place" s p.pl_id)
      S.empty places
  in
  let transition_ids =
    List.fold_left
      (fun s tn -> add_unique "transition" s tn.tn_id)
      S.empty transitions
  in
  let check_arc = function
    | P_to_t (p, tn, w) | T_to_p (tn, p, w) ->
      if w <= 0 then invalid_arg "Net.make: arc weight must be positive";
      if not (S.mem p place_ids) then
        invalid_arg (Printf.sprintf "Net.make: unknown place %s" p);
      if not (S.mem tn transition_ids) then
        invalid_arg (Printf.sprintf "Net.make: unknown transition %s" tn)
  in
  List.iter check_arc arcs;
  { places; transitions; arcs }

let pre net tn =
  List.filter_map
    (function
      | P_to_t (p, tn', w) when tn' = tn -> Some (p, w)
      | P_to_t _ | T_to_p _ -> None)
    net.arcs

let post net tn =
  List.filter_map
    (function
      | T_to_p (tn', p, w) when tn' = tn -> Some (p, w)
      | T_to_p _ | P_to_t _ -> None)
    net.arcs

let find_transition net id =
  List.find_opt (fun tn -> tn.tn_id = id) net.transitions

let place_count net = List.length net.places
let transition_count net = List.length net.transitions
