open Uml

type t = {
  tm : Smachine.t;
  vertices : (Ident.t, Smachine.vertex) Hashtbl.t;
  region_of_vertex_tbl : (Ident.t, Ident.t) Hashtbl.t;
  state_of_region_tbl : (Ident.t, Ident.t option) Hashtbl.t;
  regions : (Ident.t, Smachine.region) Hashtbl.t;
  outgoing_tbl : (Ident.t, Smachine.transition list) Hashtbl.t;
  incoming_tbl : (Ident.t, Smachine.transition list) Hashtbl.t;
}

(* Lists are built newest first and put in model order once [build]
   has pushed everything. *)
let push tbl key v =
  let current =
    match Hashtbl.find_opt tbl key with
    | Some l -> l
    | None -> []
  in
  Hashtbl.replace tbl key (v :: current)

let build tm =
  let t =
    {
      tm;
      vertices = Hashtbl.create 64;
      region_of_vertex_tbl = Hashtbl.create 64;
      state_of_region_tbl = Hashtbl.create 16;
      regions = Hashtbl.create 16;
      outgoing_tbl = Hashtbl.create 64;
      incoming_tbl = Hashtbl.create 64;
    }
  in
  let rec scan_region owner (r : Smachine.region) =
    Hashtbl.replace t.regions r.Smachine.rg_id r;
    Hashtbl.replace t.state_of_region_tbl r.Smachine.rg_id owner;
    List.iter
      (fun tr ->
        push t.outgoing_tbl tr.Smachine.tr_source tr;
        push t.incoming_tbl tr.Smachine.tr_target tr)
      r.Smachine.rg_transitions;
    List.iter
      (fun v ->
        let id = Smachine.vertex_id v in
        Hashtbl.replace t.vertices id v;
        Hashtbl.replace t.region_of_vertex_tbl id r.Smachine.rg_id;
        match v with
        | Smachine.State s ->
          List.iter (scan_region (Some s.Smachine.st_id)) s.Smachine.st_regions
        | Smachine.Pseudo _ | Smachine.Final _ -> ())
      r.Smachine.rg_vertices
  in
  List.iter (scan_region None) tm.Smachine.sm_regions;
  Hashtbl.filter_map_inplace (fun _ l -> Some (List.rev l)) t.outgoing_tbl;
  Hashtbl.filter_map_inplace (fun _ l -> Some (List.rev l)) t.incoming_tbl;
  t

let machine t = t.tm
let vertex t id = Hashtbl.find t.vertices id
let vertex_opt t id = Hashtbl.find_opt t.vertices id
let fold_vertices f t acc = Hashtbl.fold f t.vertices acc
let region_of_vertex t id = Hashtbl.find t.region_of_vertex_tbl id
let state_of_region t id = Hashtbl.find t.state_of_region_tbl id
let region t id = Hashtbl.find t.regions id

let outgoing t id =
  match Hashtbl.find_opt t.outgoing_tbl id with
  | Some l -> l
  | None -> []

let incoming t id =
  match Hashtbl.find_opt t.incoming_tbl id with
  | Some l -> l
  | None -> []

let region_chain t id =
  let rec up acc region_id =
    let acc = region_id :: acc in
    match state_of_region t region_id with
    | None -> acc
    | Some st -> up acc (region_of_vertex t st)
  in
  up [] (region_of_vertex t id)

let ancestor_states t id =
  let rec up acc region_id =
    match state_of_region t region_id with
    | None -> acc
    | Some st -> up (st :: acc) (region_of_vertex t st)
  in
  up [] (region_of_vertex t id)

let depth t id = List.length (region_chain t id)

let lca_region t id1 id2 =
  let c1 = region_chain t id1 in
  let c2 = region_chain t id2 in
  let rec common last l1 l2 =
    match l1, l2 with
    | r1 :: tl1, r2 :: tl2 when Ident.equal r1 r2 -> common (Some r1) tl1 tl2
    | _l1, _l2 -> last
  in
  common None c1 c2

let initial_of_region (r : Smachine.region) =
  List.find_map
    (fun v ->
      match v with
      | Smachine.Pseudo p when p.Smachine.ps_kind = Smachine.Initial -> Some p
      | Smachine.Pseudo _ | Smachine.State _ | Smachine.Final _ -> None)
    r.Smachine.rg_vertices

let history_of_region (r : Smachine.region) =
  List.find_map
    (fun v ->
      match v with
      | Smachine.Pseudo p
        when p.Smachine.ps_kind = Smachine.Deep_history
             || p.Smachine.ps_kind = Smachine.Shallow_history ->
        Some p
      | Smachine.Pseudo _ | Smachine.State _ | Smachine.Final _ -> None)
    r.Smachine.rg_vertices

let is_within t ~ancestor id =
  List.exists (Ident.equal ancestor) (ancestor_states t id)
