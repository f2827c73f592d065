open Uml
module SSet = Set.Make (String)

let parse_program src = Asl.Compiled.program_result (Asl.Compiled.program src)
let parse_guard src = Asl.Compiled.guard_result (Asl.Compiled.guard src)

type ctx = {
  c_prog : Telemetry.Metrics.counter;
  c_guard : Telemetry.Metrics.counter;
}

let report_cfg ~ctx ~assigned ~extra_defs ~liveout ~element ~what acc cfg =
  Telemetry.Metrics.incr ctx.c_prog;
  let r = Absint.analyze ~assigned ~extra_defs ~liveout cfg in
  let acc =
    List.fold_left
      (fun acc (_, x) ->
        Finding.make ~code:"DF-01" ~element
          (Printf.sprintf "%s: variable %s may be read before initialization"
             what x)
        :: acc)
      acc r.Absint.res_uninit
  in
  let acc =
    List.fold_left
      (fun acc (_, x) ->
        Finding.make ~code:"DF-02" ~element
          (Printf.sprintf "%s: value assigned to %s is never read" what x)
        :: acc)
      acc r.Absint.res_dead
  in
  List.fold_left
    (fun acc i ->
      Finding.make ~code:"DF-03" ~element
        (Printf.sprintf "%s: unreachable %s" what
           (Cfg.label cfg.Cfg.nodes.(i)))
      :: acc)
    acc r.Absint.res_unreachable

let check_program ~ctx ~assigned ~element ~what acc parsed =
  match parsed with
  | Error _ -> acc (* ASL-01 territory *)
  | Ok prog ->
    report_cfg ~ctx ~assigned ~extra_defs:[] ~liveout:Absint.Live_none
      ~element ~what acc (Cfg.of_program prog)

let check_guard ~ctx ~element ~what acc parsed =
  match parsed with
  | Error _ -> acc
  | Ok ast -> (
    Telemetry.Metrics.incr ctx.c_guard;
    match Absint.const_bool ast with
    | Some b ->
      Finding.make ~code:"DF-04" ~element
        (Printf.sprintf "%s is always %b" what b)
      :: acc
    | None -> acc)

(* --- state machines and operation bodies ------------------------------ *)

let check_site ~ctx acc (s : Asl.Sites.site) =
  let element = s.Asl.Sites.site_element and what = s.Asl.Sites.site_what in
  match s.Asl.Sites.site_body with
  | Asl.Sites.Guard parsed -> check_guard ~ctx ~element ~what acc parsed
  | Asl.Sites.Program parsed ->
    check_program ~ctx
      ~assigned:(List.map fst s.Asl.Sites.site_env)
      ~element ~what acc parsed

(* --- activities -------------------------------------------------------- *)

(* Action bodies share one interpreter store in token order, so a
   variable one action defines is initialized for another action only
   if it is definitely assigned on EVERY activity path leading there.
   The typechecker threads bindings in node-list order instead, which
   is precisely the gap this analysis closes: a model can typecheck
   and still read a store slot no upstream action has written. *)
let check_activity ~ctx (ac : Activityg.t) acc =
  let cfgs = Hashtbl.create 16 in
  let own = Hashtbl.create 16 in
  List.iter
    (fun node ->
      match node with
      | Activityg.Action a -> (
        match a.Activityg.act_body with
        | None -> ()
        | Some src -> (
          match parse_program src with
          | Error _ -> ()
          | Ok prog ->
            let id = a.Activityg.act_head.Activityg.nd_id in
            let cfg = Cfg.of_program prog in
            Hashtbl.replace cfgs id (a, cfg);
            Hashtbl.replace own id (SSet.of_list (Absint.exit_assigned cfg))))
      | Activityg.Call_behavior _ | Activityg.Send_signal _
      | Activityg.Accept_event _ | Activityg.Object_node _
      | Activityg.Initial_node _ | Activityg.Activity_final _
      | Activityg.Flow_final _ | Activityg.Fork_node _ | Activityg.Join_node _
      | Activityg.Decision_node _ | Activityg.Merge_node _ ->
        ())
    ac.Activityg.ac_nodes;
  let own_of id =
    match Hashtbl.find_opt own id with
    | Some s -> s
    | None -> SSet.empty
  in
  let universe =
    List.fold_left
      (fun u node -> SSet.union u (own_of (Activityg.node_id node)))
      SSet.empty ac.Activityg.ac_nodes
  in
  (* each node's predecessors among the activity's nodes, in edge order *)
  let known = Hashtbl.create 64 in
  List.iter
    (fun node -> Hashtbl.replace known (Activityg.node_id node) ())
    ac.Activityg.ac_nodes;
  let pred_table = Hashtbl.create 64 in
  (* added last edge first: [find_all] returns the latest binding first *)
  List.iter
    (fun (e : Activityg.edge) ->
      if Hashtbl.mem known e.Activityg.ed_source then
        Hashtbl.add pred_table e.Activityg.ed_target e.Activityg.ed_source)
    (List.rev ac.Activityg.ac_edges);
  let preds = Hashtbl.find_all pred_table in
  (* must-defined before each node: intersection over predecessors of
     (defined-before-pred ∪ pred's own definite defs), greatest
     fixpoint from the full universe. *)
  let defined = Hashtbl.create 16 in
  List.iter
    (fun node ->
      let id = Activityg.node_id node in
      Hashtbl.replace defined id
        (if preds id = [] then SSet.empty else universe))
    ac.Activityg.ac_nodes;
  let defined_of id =
    match Hashtbl.find_opt defined id with
    | Some s -> s
    | None -> SSet.empty
  in
  let avail id = SSet.union (defined_of id) (own_of id) in
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun node ->
        let id = Activityg.node_id node in
        match preds id with
        | [] -> ()
        | p :: ps ->
          let d = List.fold_left (fun s q -> SSet.inter s (avail q)) (avail p) ps in
          if not (SSet.equal d (defined_of id)) then begin
            Hashtbl.replace defined id d;
            changed := true
          end)
      ac.Activityg.ac_nodes
  done;
  let acc =
    List.fold_left
      (fun acc node ->
        let id = Activityg.node_id node in
        match Hashtbl.find_opt cfgs id with
        | None -> acc
        | Some (a, cfg) ->
          report_cfg ~ctx
            ~assigned:(SSet.elements (defined_of id))
            ~extra_defs:(SSet.elements universe) ~liveout:Absint.Live_all
            ~element:id
            ~what:
              (Printf.sprintf "body of action %s"
                 a.Activityg.act_head.Activityg.nd_name)
            acc cfg)
      acc ac.Activityg.ac_nodes
  in
  (* edge guards evaluate after their source completes *)
  List.fold_left
    (fun acc (e : Activityg.edge) ->
      match e.Activityg.ed_guard with
      | None -> acc
      | Some src -> (
        let parsed = parse_guard src in
        let acc =
          check_guard ~ctx ~element:e.Activityg.ed_id ~what:"edge guard" acc
            parsed
        in
        match parsed with
        | Error _ -> acc
        | Ok ast ->
          let av = avail e.Activityg.ed_source in
          List.fold_left
            (fun acc x ->
              if SSet.mem x universe && not (SSet.mem x av) then
                Finding.make ~code:"DF-01" ~element:e.Activityg.ed_id
                  (Printf.sprintf
                     "edge guard: variable %s may be read before \
                      initialization"
                     x)
                :: acc
              else acc)
            acc (Cfg.expr_vars ast)))
    acc ac.Activityg.ac_edges

let check ?(metrics = Telemetry.Metrics.null) m =
  let ctx =
    {
      c_prog = Telemetry.Metrics.counter metrics "dataflow.asl.programs";
      c_guard = Telemetry.Metrics.counter metrics "dataflow.asl.guards";
    }
  in
  let acc =
    List.fold_left
      (fun acc ac -> check_activity ~ctx ac acc)
      (Asl.Sites.fold (check_site ~ctx) [] m)
      (Model.activities m)
  in
  let out = Finding.dedup acc in
  Telemetry.Metrics.incr
    ~by:(List.length out)
    (Telemetry.Metrics.counter metrics "dataflow.asl.findings");
  out
