open Uml

let state_limit = 4096

let resolves (ac : Activityg.t) =
  List.for_all
    (fun (e : Activityg.edge) ->
      Activityg.find_node ac e.Activityg.ed_source <> None
      && Activityg.find_node ac e.Activityg.ed_target <> None)
    ac.Activityg.ac_edges

(* The net transitions realizing one activity node (see the naming
   scheme in Activity.Translate). *)
let transitions_of_node (ac : Activityg.t) node =
  let id = Activityg.node_id node in
  match node with
  | Activityg.Decision_node _ ->
    List.map
      (fun (e : Activityg.edge) ->
        Activity.Translate.decision_branch id e.Activityg.ed_id)
      (Activityg.outgoing ac id)
  | Activityg.Merge_node _ ->
    List.map
      (fun (e : Activityg.edge) ->
        Activity.Translate.merge_branch id e.Activityg.ed_id)
      (Activityg.incoming ac id)
  | Activityg.Action _ | Activityg.Call_behavior _ | Activityg.Send_signal _
  | Activityg.Accept_event _ | Activityg.Object_node _
  | Activityg.Initial_node _ | Activityg.Activity_final _
  | Activityg.Flow_final _ | Activityg.Fork_node _ | Activityg.Join_node _ ->
    [ Activity.Translate.transition_of_node id ]

(* The ACT rules' own exploration of an activity, to the Karp–Miller
   default limit so that bounded activities of up to 10 000 markings
   need no coverability tree for ACT-02. *)
let explore ac =
  let net, m0 = Activity.Translate.to_petri ac in
  Petri.Analysis.exploration net m0

let check_activity (ac : Activityg.t) ex acc =
  let element = ac.Activityg.ac_id in
  (* one state-space exploration per activity: ACT-01 (deadlocks) and
     ACT-03 (dead transitions) both read off the same summary *)
  let s = Petri.Analysis.summary ~limit:state_limit ex in
  let acc =
    if s.Petri.Analysis.sum_truncated then acc
    else
      let stuck =
        List.filter
          (fun mk ->
            Petri.Marking.total mk > 0
            && Petri.Marking.tokens mk Activity.Translate.done_place = 0)
          s.Petri.Analysis.sum_deadlocks
      in
      if stuck = [] then acc
      else
        Model_info.diagf ~code:"ACT-01" ~element
          "activity %s can deadlock: %d reachable marking%s leave%s \
           tokens stuck without reaching a final node"
          ac.Activityg.ac_name (List.length stuck)
          (if List.length stuck = 1 then "" else "s")
          (if List.length stuck = 1 then "s" else "")
        :: acc
  in
  let acc =
    match
      Petri.Coverability.verdict
        (Petri.Analysis.coverability ~limit:state_limit ex)
    with
    | Some false ->
      Model_info.diagf ~code:"ACT-02" ~element
        "activity %s has unbounded token flow (tokens can accumulate \
         without limit)"
        ac.Activityg.ac_name
      :: acc
    | Some true | None -> acc
  in
  if s.Petri.Analysis.sum_truncated then acc
  else
    let dead = s.Petri.Analysis.sum_dead_transitions in
    List.fold_left
      (fun acc node ->
        let tns = transitions_of_node ac node in
        if tns <> [] && List.for_all (fun tn -> List.mem tn dead) tns then
          Model_info.diagf ~code:"ACT-03"
            ~element:(Activityg.node_id node)
            "node %s of activity %s can never fire"
            (Activityg.node_name node) ac.Activityg.ac_name
          :: acc
        else acc)
      acc ac.Activityg.ac_nodes

let check ?(explore = explore) m =
  List.fold_left
    (fun acc ac ->
      if not (resolves ac) then acc
      else
        match explore ac with
        | exception Invalid_argument _ ->
          (* structurally broken beyond edge resolution; Wfr territory *)
          acc
        | ex -> check_activity ac ex acc)
    []
    (Model.activities m)
