open Uml

module Topology = Statechart.Topology

(* Enclosing composite state of a vertex; [None] at top level and for
   identifiers foreign to the machine. *)
let parent_state topo id =
  match Topology.vertex_opt topo id with
  | None -> None
  | Some _ -> Topology.state_of_region topo (Topology.region_of_vertex topo id)

let region_initials (r : Smachine.region) =
  List.filter_map
    (fun v ->
      match v with
      | Smachine.Pseudo p when p.Smachine.ps_kind = Smachine.Initial ->
        Some p.Smachine.ps_id
      | Smachine.Pseudo _ | Smachine.State _ | Smachine.Final _ -> None)
    r.Smachine.rg_vertices

(* --- SC-01: reachability --------------------------------------------- *)

let check_reachability topo (sm : Smachine.t) acc =
  let seeds = List.concat_map region_initials sm.Smachine.sm_regions in
  if seeds = [] then acc (* entry is external; nothing to anchor on *)
  else begin
    let marked = Hashtbl.create 64 in
    let rec mark id =
      if not (Hashtbl.mem marked id) then begin
        Hashtbl.replace marked id ();
        (* a marked vertex implies its enclosing states are active *)
        (match parent_state topo id with
         | Some p -> mark p
         | None -> ());
        (* default entry of a composite state enters its region initials *)
        (match Topology.vertex_opt topo id with
         | Some (Smachine.State st) ->
           List.iter
             (fun r -> List.iter mark (region_initials r))
             st.Smachine.st_regions
         | Some (Smachine.Pseudo _) | Some (Smachine.Final _) | None -> ());
        List.iter
          (fun (t : Smachine.transition) -> mark t.Smachine.tr_target)
          (Topology.outgoing topo id)
      end
    in
    List.iter mark seeds;
    (* audited: this fold emits diagnostics in hash order, but every
       caller goes through [Check.apply], whose [Model_info.sort] is a
       total order on (rule, element, message) — table internals never
       reach user-visible ordering *)
    Topology.fold_vertices
      (fun id v acc ->
        match v with
        | Smachine.State st when not (Hashtbl.mem marked id) ->
          Model_info.diagf ~code:"SC-01" ~element:id
            "state %s is unreachable from the initial configuration of %s"
            st.Smachine.st_name sm.Smachine.sm_name
          :: acc
        | Smachine.State _ | Smachine.Pseudo _ | Smachine.Final _ -> acc)
      topo acc
  end

(* --- SC-02: transient pseudostates must reach a stable vertex -------- *)

let check_stabilization topo (sm : Smachine.t) acc =
  (* Memoized: can this vertex, crossing only pseudostates, reach a
     state or final?  History restores a state and terminate halts the
     machine; both count as settled. *)
  let memo = Hashtbl.create 16 in
  let rec stabilizes visited id =
    match Hashtbl.find_opt memo id with
    | Some b -> b
    | None ->
      if Ident.Set.mem id visited then false
      else
        let visited = Ident.Set.add id visited in
        let b =
          match Topology.vertex_opt topo id with
          | Some (Smachine.State _) | Some (Smachine.Final _) | None -> true
          | Some (Smachine.Pseudo p) -> (
            match p.Smachine.ps_kind with
            | Smachine.Deep_history | Smachine.Shallow_history
            | Smachine.Terminate ->
              true
            | Smachine.Initial | Smachine.Join | Smachine.Fork
            | Smachine.Junction | Smachine.Choice | Smachine.Entry_point
            | Smachine.Exit_point ->
              List.exists
                (fun (t : Smachine.transition) ->
                  stabilizes visited t.Smachine.tr_target)
                (Topology.outgoing topo id))
        in
        Hashtbl.replace memo id b;
        b
  in
  (* audited: hash-order fold, neutralized by [Model_info.sort] in
     [Check.apply] (see the SC-01 pass) *)
  Topology.fold_vertices
    (fun id v acc ->
      match v with
      | Smachine.Pseudo p
        when Topology.outgoing topo id <> []
             && not (stabilizes Ident.Set.empty id) ->
        Model_info.diagf ~code:"SC-02" ~element:id
          "pseudostate %s of %s cannot reach a stable state (paths stay \
           inside pseudostates)"
          (if p.Smachine.ps_name = "" then Ident.to_string id
           else p.Smachine.ps_name)
          sm.Smachine.sm_name
        :: acc
      | Smachine.Pseudo _ | Smachine.State _ | Smachine.Final _ -> acc)
    topo acc

(* --- SC-03: nondeterministic transitions ------------------------------ *)

let effective_triggers (t : Smachine.transition) =
  match t.Smachine.tr_triggers with
  | [] -> [ Smachine.Completion ]
  | l -> l

let triggers_overlap a b =
  Smachine.equal_trigger a b
  ||
  match a, b with
  | Smachine.Any_trigger, Smachine.Signal_trigger _
  | Smachine.Signal_trigger _, Smachine.Any_trigger ->
    true
  | ( ( Smachine.Signal_trigger _ | Smachine.Time_trigger _
      | Smachine.Any_trigger | Smachine.Completion ),
      ( Smachine.Signal_trigger _ | Smachine.Time_trigger _
      | Smachine.Any_trigger | Smachine.Completion ) ) ->
    false

(* Conservative: distinct guard texts are assumed disjoint (they usually
   partition a value); a missing guard overlaps everything. *)
let guards_overlap g1 g2 =
  match g1, g2 with
  | None, _ | _, None -> true
  | Some a, Some b -> String.equal a b

let trigger_name = function
  | Smachine.Signal_trigger s -> s
  | Smachine.Time_trigger n -> Printf.sprintf "after(%d)" n
  | Smachine.Any_trigger -> "any"
  | Smachine.Completion -> "completion"

let check_nondeterminism topo acc =
  (* audited: hash-order fold, neutralized by [Model_info.sort] in
     [Check.apply] (see the SC-01 pass) *)
  Topology.fold_vertices
    (fun id v acc ->
      match v with
      | Smachine.Pseudo _ | Smachine.Final _ -> acc
      | Smachine.State st ->
        let ts = Topology.outgoing topo id in
        let rec pairs acc = function
          | [] -> acc
          | (t1 : Smachine.transition) :: rest ->
            let acc =
              List.fold_left
                (fun acc (t2 : Smachine.transition) ->
                  let shared =
                    List.find_opt
                      (fun a ->
                        List.exists (triggers_overlap a)
                          (effective_triggers t2))
                      (effective_triggers t1)
                  in
                  match shared with
                  | Some trig
                    when guards_overlap t1.Smachine.tr_guard
                           t2.Smachine.tr_guard ->
                    Model_info.diagf ~code:"SC-03" ~element:id
                      "transitions %s and %s from state %s overlap on \
                       trigger %s with non-exclusive guards"
                      t1.Smachine.tr_id t2.Smachine.tr_id st.Smachine.st_name
                      (trigger_name trig)
                    :: acc
                  | Some _ | None -> acc)
                acc rest
            in
            pairs acc rest
        in
        pairs acc ts)
    topo acc

(* --- SC-04: regions with states but no initial ------------------------ *)

let check_region_initials (sm : Smachine.t) acc =
  List.fold_left
    (fun acc (r : Smachine.region) ->
      let has_state =
        List.exists
          (fun v ->
            match v with
            | Smachine.State _ -> true
            | Smachine.Pseudo _ | Smachine.Final _ -> false)
          r.Smachine.rg_vertices
      in
      if has_state && region_initials r = [] then
        Model_info.diagf ~code:"SC-04" ~element:r.Smachine.rg_id
          "region %s of %s has states but no initial pseudostate; default \
           entry is undefined"
          r.Smachine.rg_name sm.Smachine.sm_name
        :: acc
      else acc)
    acc
    (Smachine.all_regions sm)

let check m =
  List.fold_left
    (fun acc sm ->
      let topo = Topology.build sm in
      check_reachability topo sm acc
      |> (fun acc -> check_stabilization topo sm acc)
      |> check_nondeterminism topo
      |> check_region_initials sm)
    []
    (Model.state_machines m)
