open Uml

type status =
  | Running
  | Finished
  | Terminated
[@@deriving eq, show]

type step_record = {
  sr_event : Event.t;
  sr_fired : Ident.t list;
  sr_config : string list;
}
[@@deriving eq, show]

exception Model_error of string

let model_error fmt = Printf.ksprintf (fun m -> raise (Model_error m)) fmt

(* The compiled behaviors of one transition or state, taken from the
   memo at [create]; the record they came from is kept to tell apart
   two elements that share an id. *)
type tr_code = {
  tc_tr : Smachine.transition;
  tc_guard : Asl.Compiled.guard option;
  tc_effect : Asl.Compiled.program option;
}

type st_code = {
  sc_state : Smachine.state;
  sc_entry : Asl.Compiled.program option;
  sc_exit : Asl.Compiled.program option;
  sc_do : Asl.Compiled.program option;
}

type vertex_code = {
  vc_state : st_code option;  (** [None] when the vertex has no behavior *)
  vc_out : tr_code list;  (** outgoing transitions, {!Topology.outgoing} order *)
}

type timer = {
  tm_due : int;
  tm_state : Ident.t;
  tm_code : tr_code;
}

(* A processed event as [trace] reports it, with the configuration
   kept as the set it was: names are derived only when asked for. *)
type step = {
  sp_event : Event.t;
  sp_fired : Ident.t list;
  sp_config : Ident.Set.t;
}

type t = {
  topo : Topology.t;
  codes : (Ident.t, vertex_code) Hashtbl.t;
  engine_interp : Asl.Interp.t;
  self_ : Asl.Value.t;
  mutable config : Ident.Set.t;
  mutable engine_status : status;
  pool : Event.t Queue.t;
  mutable deferred : Event.t list;  (** reverse order *)
  shallow_store : (Ident.t, Ident.t) Hashtbl.t;  (** region -> direct child *)
  deep_store : (Ident.t, Ident.t list) Hashtbl.t;  (** region -> leaves *)
  mutable clock : int;
  mutable timers : timer list;  (** sorted by due time *)
  mutable completion_sent : Ident.Set.t;
  mutable steps : step list;  (** reverse order *)
  e_metrics : Telemetry.Metrics.t;
  m_dispatched : Telemetry.Metrics.counter;
  m_fired : Telemetry.Metrics.counter;
  m_microsteps : Telemetry.Metrics.counter;
  g_queue : Telemetry.Metrics.gauge;
}

(* Every behavior string of the machine goes through the memo exactly
   once, at engine construction: dispatch then runs the compiled
   handles and never hashes a source text again.  Parse errors are
   captured, not raised — a guard that never fires must not fail at
   [create], matching the historical parse-per-dispatch semantics. *)
let tr_code (tr : Smachine.transition) =
  {
    tc_tr = tr;
    tc_guard = Option.map Asl.Compiled.guard tr.Smachine.tr_guard;
    tc_effect = Option.map Asl.Compiled.program tr.Smachine.tr_effect;
  }

let st_code (s : Smachine.state) =
  {
    sc_state = s;
    sc_entry = Option.map Asl.Compiled.program s.Smachine.st_entry;
    sc_exit = Option.map Asl.Compiled.program s.Smachine.st_exit;
    sc_do = Option.map Asl.Compiled.program s.Smachine.st_do;
  }

let rec region_behaves (r : Smachine.region) =
  List.exists
    (fun (tr : Smachine.transition) ->
      tr.Smachine.tr_guard <> None || tr.Smachine.tr_effect <> None)
    r.Smachine.rg_transitions
  || List.exists
       (function
         | Smachine.State s ->
           s.Smachine.st_entry <> None || s.Smachine.st_exit <> None
           || s.Smachine.st_do <> None
           || List.exists region_behaves s.Smachine.st_regions
         | Smachine.Pseudo _ | Smachine.Final _ -> false)
       r.Smachine.rg_vertices

let behaving_state = function
  | Smachine.State
      (( { Smachine.st_entry = Some _; _ } | { st_exit = Some _; _ }
       | { st_do = Some _; _ } ) as s) ->
    Some s
  | Smachine.State _ | Smachine.Pseudo _ | Smachine.Final _ -> None

(* Records of a vertex with no behavior need no memo entry; a machine
   with no behavior at all gets them on first visit (see [outgoing]),
   so its [create] builds no table entry. *)
let compile_behaviors topo sm =
  let vertices = Smachine.all_vertices sm in
  let codes = Hashtbl.create (List.length vertices) in
  if List.exists region_behaves sm.Smachine.sm_regions then
    List.iter
      (fun v ->
        let id = Smachine.vertex_id v in
        match behaving_state v, Topology.outgoing topo id with
        | None, [] -> ()
        | s, out ->
          Hashtbl.add codes id
            { vc_state = Option.map st_code s; vc_out = List.map tr_code out })
      vertices;
  codes

let create ?interp ?(self_ = Asl.Value.V_null)
    ?(metrics = Telemetry.Metrics.null) sm =
  let engine_interp =
    match interp with
    | Some i -> i
    | None -> Asl.Interp.create ~metrics (Asl.Store.create ())
  in
  let topo = Topology.build sm in
  {
    topo;
    codes = compile_behaviors topo sm;
    engine_interp;
    self_;
    config = Ident.Set.empty;
    engine_status = Running;
    pool = Queue.create ();
    deferred = [];
    shallow_store = Hashtbl.create 8;
    deep_store = Hashtbl.create 8;
    clock = 0;
    timers = [];
    completion_sent = Ident.Set.empty;
    steps = [];
    e_metrics = metrics;
    m_dispatched = Telemetry.Metrics.counter metrics "statechart.events_dispatched";
    m_fired = Telemetry.Metrics.counter metrics "statechart.transitions_fired";
    m_microsteps = Telemetry.Metrics.counter metrics "statechart.rtc_microsteps";
    g_queue = Telemetry.Metrics.gauge metrics "statechart.queue_depth";
  }

let interp t = t.engine_interp
let metrics t = t.e_metrics
let status t = t.engine_status
let now t = t.clock

(* --- ASL bridging -------------------------------------------------- *)

let outgoing t id =
  match Hashtbl.find_opt t.codes id with
  | Some vc -> vc.vc_out
  | None -> (
    (* a vertex [compile_behaviors] skipped has no behavior: its records
       take nothing from the memo *)
    match Topology.outgoing t.topo id with
    | [] -> []
    | out ->
      let vc_out = List.map tr_code out in
      Hashtbl.add t.codes id { vc_state = None; vc_out };
      vc_out)

(* A transition's codes sit with its source; one that is not there
   (its record was shadowed by another element with the same id) goes
   back to the memo. *)
let code_of_tr t (tr : Smachine.transition) =
  let rec find = function
    | c :: rest -> if c.tc_tr == tr then c else find rest
    | [] -> tr_code tr
  in
  find (outgoing t tr.Smachine.tr_source)

let code_of_state t (s : Smachine.state) =
  match Hashtbl.find_opt t.codes s.Smachine.st_id with
  | Some { vc_state = Some c; _ } when c.sc_state == s -> c
  | Some _ | None -> st_code s

let guard_passes t (ev : Event.t) c =
  match c.tc_tr.Smachine.tr_guard, c.tc_guard with
  | Some src, Some g -> (
    match
      Asl.Interp.eval_guard_event ~self_:t.self_ t.engine_interp g
        ~event:ev.Event.name ~args:ev.Event.args
    with
    | b -> b
    | exception Asl.Interp.Runtime_error m ->
      model_error "guard %S failed: %s" src m)
  | (Some _ | None), _ -> true

let run_code t (ev : Event.t) src prog =
  match
    Asl.Interp.run_event ~self_:t.self_ t.engine_interp prog
      ~event:ev.Event.name ~args:ev.Event.args
  with
  | _result -> ()
  | exception Asl.Interp.Runtime_error m ->
    model_error "behavior %S failed: %s" src m

let run_effect t ev c =
  match c.tc_tr.Smachine.tr_effect, c.tc_effect with
  | Some src, Some prog -> run_code t ev src prog
  | (Some _ | None), _ -> ()

(* [behavior] and [code] pick the same entry, exit or do behavior. *)
let run_state_behavior t ev (s : Smachine.state) behavior code =
  match behavior s with
  | None -> ()
  | Some src -> (
    match code (code_of_state t s) with
    | Some prog -> run_code t ev src prog
    | None -> ())

(* --- configuration queries ----------------------------------------- *)

let is_active t id = Ident.Set.mem id t.config

let descendants_in t config id =
  Ident.Set.filter
    (fun v -> List.exists (Ident.equal id) (Topology.ancestor_states t.topo v))
    config

let active_descendants t id = descendants_in t t.config id

let leaves_of t config =
  Ident.Set.filter
    (fun v -> Ident.Set.is_empty (descendants_in t config v))
    config

let active_leaves t = leaves_of t t.config

let leaf_names t config =
  let names =
    List.map
      (fun id -> Smachine.vertex_name (Topology.vertex t.topo id))
      (Ident.Set.elements (leaves_of t config))
  in
  List.sort String.compare names

let active_leaf_names t = leaf_names t t.config

let qualified_name t id =
  let ancestors = Topology.ancestor_states t.topo id in
  let parts =
    List.map
      (fun a -> Smachine.vertex_name (Topology.vertex t.topo a))
      ancestors
    @ [ Smachine.vertex_name (Topology.vertex t.topo id) ]
  in
  String.concat "." parts

let signature t =
  let leaves =
    List.sort String.compare
      (List.map (qualified_name t) (Ident.Set.elements (active_leaves t)))
  in
  String.concat "|" leaves

let is_in t name =
  Ident.Set.exists
    (fun id -> Smachine.vertex_name (Topology.vertex t.topo id) = name)
    t.config

(* Direct active child vertex of a region, if any. *)
let active_child_of_region t region_id =
  Ident.Set.fold
    (fun id acc ->
      match acc with
      | Some _ -> acc
      | None ->
        if Ident.equal (Topology.region_of_vertex t.topo id) region_id then
          Some id
        else None)
    t.config None

(* --- timers --------------------------------------------------------- *)

let schedule_timers t state_id =
  let add c =
    List.iter
      (fun trigger ->
        match trigger with
        | Smachine.Time_trigger d ->
          let timer =
            { tm_due = t.clock + d; tm_state = state_id; tm_code = c }
          in
          t.timers <-
            List.sort (fun a b -> compare a.tm_due b.tm_due) (timer :: t.timers)
        | Smachine.Signal_trigger _ | Smachine.Any_trigger
        | Smachine.Completion ->
          ())
      c.tc_tr.Smachine.tr_triggers
  in
  List.iter add (outgoing t state_id)

let cancel_timers t state_id =
  t.timers <-
    List.filter (fun tm -> not (Ident.equal tm.tm_state state_id)) t.timers

(* --- history -------------------------------------------------------- *)

(* Record history for every history-owning region inside the states
   about to be exited; must run while the configuration is intact. *)
let record_history t exit_ids =
  let record_for_state sid =
    match Topology.vertex t.topo sid with
    | Smachine.State s ->
      List.iter
        (fun (r : Smachine.region) ->
          match Topology.history_of_region r with
          | None -> ()
          | Some h ->
            let rid = r.Smachine.rg_id in
            (match active_child_of_region t rid with
             | Some child ->
               Hashtbl.replace t.shallow_store rid child;
               let leaves =
                 Ident.Set.elements
                   (Ident.Set.filter
                      (fun v ->
                        List.exists (Ident.equal rid)
                          (Topology.region_chain t.topo v)
                        && Ident.Set.is_empty (active_descendants t v))
                      t.config)
               in
               if h.Smachine.ps_kind = Smachine.Deep_history then
                 Hashtbl.replace t.deep_store rid leaves
             | None -> ()))
        s.Smachine.st_regions
    | Smachine.Pseudo _ | Smachine.Final _ -> ()
  in
  List.iter record_for_state exit_ids

(* --- exiting -------------------------------------------------------- *)

(* Exit the whole active subtree rooted at [root] (inclusive), running
   exit behaviors innermost-first. *)
let exit_subtree t ev root =
  let members =
    if is_active t root then Ident.Set.add root (active_descendants t root)
    else active_descendants t root
  in
  let ordered =
    List.sort
      (fun a b ->
        compare (Topology.depth t.topo b) (Topology.depth t.topo a))
      (Ident.Set.elements members)
  in
  record_history t ordered;
  List.iter
    (fun id ->
      (match Topology.vertex t.topo id with
       | Smachine.State s ->
         run_state_behavior t ev s
           (fun s -> s.Smachine.st_exit)
           (fun c -> c.sc_exit)
       | Smachine.Pseudo _ | Smachine.Final _ -> ());
      cancel_timers t id;
      t.config <- Ident.Set.remove id t.config;
      t.completion_sent <- Ident.Set.remove id t.completion_sent)
    ordered

(* --- entering ------------------------------------------------------- *)

(* Activate a single state vertex: config, entry behavior, timers. *)
let activate t ev id =
  if not (is_active t id) then begin
    t.config <- Ident.Set.add id t.config;
    match Topology.vertex t.topo id with
    | Smachine.State s ->
      run_state_behavior t ev s
        (fun s -> s.Smachine.st_entry)
        (fun c -> c.sc_entry);
      (* do-activities run to completion on entry (they are ASL
         programs, not processes); the state then counts as completed *)
      run_state_behavior t ev s
        (fun s -> s.Smachine.st_do)
        (fun c -> c.sc_do);
      schedule_timers t id
    | Smachine.Final _ -> ()
    | Smachine.Pseudo _ -> model_error "pseudostate activated as state"
  end

(* [planned] is the set of explicit deep targets still to be entered; a
   region containing one of them must not be default-entered. *)
let region_contains_planned t planned rid =
  Ident.Set.exists
    (fun p -> List.exists (Ident.equal rid) (Topology.region_chain t.topo p))
    planned

let rec default_enter_region t ev planned (r : Smachine.region) =
  match Topology.initial_of_region r with
  | None -> ()
  | Some init -> (
    match outgoing t init.Smachine.ps_id with
    | [] -> model_error "initial pseudostate without outgoing transition"
    | c :: _rest ->
      run_effect t ev c;
      enter_target t ev planned c.tc_tr.Smachine.tr_target)

and default_enter_state_regions t ev planned (s : Smachine.state) =
  List.iter
    (fun (r : Smachine.region) ->
      if not (region_contains_planned t planned r.Smachine.rg_id) then
        if active_child_of_region t r.Smachine.rg_id = None then
          default_enter_region t ev planned r)
    s.Smachine.st_regions

(* Enter a (possibly deep) target vertex, activating inactive ancestors
   outermost-first and default-entering sibling regions. *)
and enter_target t ev planned target_id =
  let planned = Ident.Set.remove target_id planned in
  let ancestors = Topology.ancestor_states t.topo target_id in
  let to_enter = List.filter (fun a -> not (is_active t a)) ancestors in
  List.iter (fun a -> activate t ev a) to_enter;
  (match Topology.vertex_opt t.topo target_id with
   | None -> model_error "transition target %s unknown" target_id
   | Some (Smachine.State s) ->
     activate t ev target_id;
     default_enter_state_regions t ev planned s
   | Some (Smachine.Final _) -> activate t ev target_id
   | Some (Smachine.Pseudo p) -> enter_pseudostate t ev planned p);
  (* sibling regions of the freshly entered ancestors *)
  List.iter
    (fun a ->
      match Topology.vertex t.topo a with
      | Smachine.State s ->
        let planned = Ident.Set.add target_id planned in
        List.iter
          (fun (r : Smachine.region) ->
            let rid = r.Smachine.rg_id in
            let on_path =
              List.exists (Ident.equal rid)
                (Topology.region_chain t.topo target_id)
            in
            if
              (not on_path)
              && (not (region_contains_planned t planned rid))
              && active_child_of_region t rid = None
            then default_enter_region t ev planned r)
          s.Smachine.st_regions
      | Smachine.Pseudo _ | Smachine.Final _ -> ())
    to_enter;
  check_terminate t target_id

and enter_pseudostate t ev planned (p : Smachine.pseudostate) =
  match p.Smachine.ps_kind with
  | Smachine.Terminate -> t.engine_status <- Terminated
  | Smachine.Junction | Smachine.Choice | Smachine.Entry_point
  | Smachine.Exit_point | Smachine.Initial -> (
    let branches = outgoing t p.Smachine.ps_id in
    let enabled = List.find_opt (fun c -> guard_passes t ev c) branches in
    match enabled with
    | None ->
      model_error "no enabled branch at pseudostate %s" p.Smachine.ps_name
    | Some c ->
      run_effect t ev c;
      enter_target t ev planned c.tc_tr.Smachine.tr_target)
  | Smachine.Fork ->
    let branches = outgoing t p.Smachine.ps_id in
    let targets = List.map (fun c -> c.tc_tr.Smachine.tr_target) branches in
    let planned =
      List.fold_left (fun s tgt -> Ident.Set.add tgt s) planned targets
    in
    List.iter
      (fun c ->
        let target = c.tc_tr.Smachine.tr_target in
        run_effect t ev c;
        enter_target t ev (Ident.Set.remove target planned) target)
      branches
  | Smachine.Join -> (
    match outgoing t p.Smachine.ps_id with
    | [] -> model_error "join without outgoing transition"
    | c :: _rest ->
      run_effect t ev c;
      enter_target t ev planned c.tc_tr.Smachine.tr_target)
  | Smachine.Shallow_history -> (
    let rid = Topology.region_of_vertex t.topo p.Smachine.ps_id in
    match Hashtbl.find_opt t.shallow_store rid with
    | Some child -> enter_target t ev planned child
    | None -> history_default t ev planned p rid)
  | Smachine.Deep_history -> (
    let rid = Topology.region_of_vertex t.topo p.Smachine.ps_id in
    match Hashtbl.find_opt t.deep_store rid with
    | Some leaves when leaves <> [] ->
      let planned =
        List.fold_left (fun s l -> Ident.Set.add l s) planned leaves
      in
      List.iter
        (fun l -> enter_target t ev (Ident.Set.remove l planned) l)
        leaves
    | Some _ | None -> history_default t ev planned p rid)

and history_default t ev planned (p : Smachine.pseudostate) rid =
  match outgoing t p.Smachine.ps_id with
  | c :: _rest ->
    run_effect t ev c;
    enter_target t ev planned c.tc_tr.Smachine.tr_target
  | [] -> default_enter_region t ev planned (Topology.region t.topo rid)

and check_terminate t target_id =
  (* reaching a final state of a top-level region finishes the machine
     when every top region is final *)
  match Topology.vertex_opt t.topo target_id with
  | Some (Smachine.Final _f) ->
    let top_regions = (Topology.machine t.topo).Smachine.sm_regions in
    let all_final =
      List.for_all
        (fun (r : Smachine.region) ->
          match active_child_of_region t r.Smachine.rg_id with
          | Some child -> (
            match Topology.vertex t.topo child with
            | Smachine.Final _ -> true
            | Smachine.State _ | Smachine.Pseudo _ -> false)
          | None -> false)
        top_regions
    in
    if all_final then t.engine_status <- Finished
  | Some (Smachine.State _ | Smachine.Pseudo _) | None -> ()

(* --- transition selection ------------------------------------------ *)

(* What a transition exits: a whole vertex subtree, or — for a local
   transition from a composite into itself — only the active children
   of one of the composite's regions. *)
type exit_scope =
  | Exit_nothing
  | Exit_root of Ident.t
  | Exit_region_children of Ident.t

(* Is this a local self-descent (composite source, target inside it)? *)
let local_scope_region t (tr : Smachine.transition) =
  let src = tr.Smachine.tr_source in
  let tgt = tr.Smachine.tr_target in
  if
    (match Topology.vertex_opt t.topo src with
     | Some (Smachine.State s) -> Smachine.is_composite s
     | Some (Smachine.Pseudo _ | Smachine.Final _) | None -> false)
    && Topology.is_within t.topo ~ancestor:src tgt
  then
    List.find_opt
      (fun rid ->
        match Topology.state_of_region t.topo rid with
        | Some owner -> Ident.equal owner src
        | None -> false)
      (Topology.region_chain t.topo tgt)
  else None

let main_source t (tr : Smachine.transition) =
  let src = tr.Smachine.tr_source in
  let tgt = tr.Smachine.tr_target in
  match Topology.lca_region t.topo src tgt with
  | None ->
    (* different top regions: exit the top-level ancestor of the source *)
    let chain = Topology.ancestor_states t.topo src in
    (match chain with
     | top :: _rest -> top
     | [] -> src)
  | Some scope -> (
    if Ident.equal (Topology.region_of_vertex t.topo src) scope then src
    else
      let ancestors = Topology.ancestor_states t.topo src in
      match
        List.find_opt
          (fun a -> Ident.equal (Topology.region_of_vertex t.topo a) scope)
          ancestors
      with
      | Some a -> a
      | None -> src)

let scope_of t (tr : Smachine.transition) =
  match tr.Smachine.tr_kind with
  | Smachine.Internal -> Exit_nothing
  | Smachine.Local -> (
    match local_scope_region t tr with
    | Some rid -> Exit_region_children rid
    | None -> Exit_root (main_source t tr))
  | Smachine.External -> Exit_root (main_source t tr)

let exit_set t tr =
  match scope_of t tr with
  | Exit_nothing -> Ident.Set.empty
  | Exit_root root ->
    if is_active t root then Ident.Set.add root (active_descendants t root)
    else active_descendants t root
  | Exit_region_children rid -> (
    match active_child_of_region t rid with
    | Some child -> Ident.Set.add child (active_descendants t child)
    | None -> Ident.Set.empty)

(* Join readiness: every incoming transition's source must be active. *)
let join_ready t join_id =
  List.for_all
    (fun tr -> is_active t tr.Smachine.tr_source)
    (Topology.incoming t.topo join_id)

let transition_triggered t ev c =
  let tr = c.tc_tr in
  let trigger_match =
    match ev with
    | None -> tr.Smachine.tr_triggers = []  (* completion transition *)
    | Some e -> List.exists (fun trg -> Event.matches trg e) tr.Smachine.tr_triggers
  in
  trigger_match
  &&
  let ev_for_guard =
    match ev with
    | Some e -> e
    | None -> Event.make Event.completion_name
  in
  guard_passes t ev_for_guard c
  &&
  match Topology.vertex_opt t.topo tr.Smachine.tr_target with
  | Some (Smachine.Pseudo p) when p.Smachine.ps_kind = Smachine.Join ->
    join_ready t p.Smachine.ps_id
  | Some (Smachine.Pseudo _ | Smachine.State _ | Smachine.Final _) | None ->
    true

(* Enabled transitions for an external event, inner-first. *)
let enabled_transitions t ev =
  let candidates =
    Ident.Set.fold
      (fun id acc ->
        match Topology.vertex t.topo id with
        | Smachine.State _ ->
          List.fold_left
            (fun acc c ->
              if transition_triggered t (Some ev) c then c :: acc else acc)
            acc (outgoing t id)
        | Smachine.Pseudo _ | Smachine.Final _ -> acc)
      t.config []
  in
  List.sort
    (fun a b ->
      compare
        (Topology.depth t.topo b.tc_tr.Smachine.tr_source)
        (Topology.depth t.topo a.tc_tr.Smachine.tr_source))
    candidates

(* Greedy maximal non-conflicting selection (inner priority). *)
let select_firing_set t candidates =
  let conflict_free chosen_exit tr =
    Ident.Set.is_empty (Ident.Set.inter chosen_exit (exit_set t tr))
    || Smachine.equal_transition_kind tr.Smachine.tr_kind Smachine.Internal
  in
  let pick (chosen, chosen_exit) c =
    let tr = c.tc_tr in
    let ex = exit_set t tr in
    let internal =
      Smachine.equal_transition_kind tr.Smachine.tr_kind Smachine.Internal
    in
    let source_surviving =
      (* an internal transition still conflicts if its source gets exited *)
      (not internal) || not (Ident.Set.mem tr.Smachine.tr_source chosen_exit)
    in
    if
      source_surviving
      && (internal || conflict_free chosen_exit tr)
      && (internal || not (Ident.Set.is_empty ex) || is_active t tr.Smachine.tr_source)
    then (c :: chosen, Ident.Set.union chosen_exit ex)
    else (chosen, chosen_exit)
  in
  let chosen, _ = List.fold_left pick ([], Ident.Set.empty) candidates in
  List.rev chosen

(* --- firing --------------------------------------------------------- *)

let exit_scope_now t ev tr =
  match scope_of t tr with
  | Exit_nothing -> ()
  | Exit_root root -> exit_subtree t ev root
  | Exit_region_children rid -> (
    match active_child_of_region t rid with
    | Some child -> exit_subtree t ev child
    | None -> ())

let fire_transition t ev c =
  let tr = c.tc_tr in
  Telemetry.Metrics.incr t.m_fired;
  match tr.Smachine.tr_kind with
  | Smachine.Internal -> run_effect t ev c
  | Smachine.External | Smachine.Local ->
    (* join compound: exit every source region of the join *)
    let join_sources =
      match Topology.vertex_opt t.topo tr.Smachine.tr_target with
      | Some (Smachine.Pseudo p) when p.Smachine.ps_kind = Smachine.Join ->
        List.filter_map
          (fun in_tr ->
            if Ident.equal in_tr.Smachine.tr_id tr.Smachine.tr_id then None
            else Some in_tr)
          (Topology.incoming t.topo p.Smachine.ps_id)
      | Some (Smachine.Pseudo _ | Smachine.State _ | Smachine.Final _)
      | None ->
        []
    in
    exit_scope_now t ev tr;
    List.iter
      (fun in_tr ->
        exit_scope_now t ev in_tr;
        run_effect t ev (code_of_tr t in_tr))
      join_sources;
    run_effect t ev c;
    if t.engine_status = Running then
      enter_target t ev Ident.Set.empty tr.Smachine.tr_target

(* --- completion ----------------------------------------------------- *)

let state_completed t id =
  match Topology.vertex t.topo id with
  | Smachine.State s ->
    if Smachine.is_composite s then
      List.for_all
        (fun (r : Smachine.region) ->
          match active_child_of_region t r.Smachine.rg_id with
          | Some child -> (
            match Topology.vertex t.topo child with
            | Smachine.Final _ -> true
            | Smachine.State _ | Smachine.Pseudo _ -> false)
          | None -> false)
        s.Smachine.st_regions
    else true (* a simple state's do-activity has already run on entry *)
  | Smachine.Pseudo _ | Smachine.Final _ -> false

(* One completion micro-step: find an active, completed state with an
   enabled completion transition not yet taken, fire it.  Returns the
   transition fired. *)
let completion_step t =
  let candidate =
    Ident.Set.fold
      (fun id acc ->
        match acc with
        | Some _ -> acc
        | None ->
          if Ident.Set.mem id t.completion_sent then None
          else if not (state_completed t id) then None
          else
            let trs =
              List.filter
                (fun c ->
                  c.tc_tr.Smachine.tr_triggers = []
                  || List.exists
                       (fun trg -> trg = Smachine.Completion)
                       c.tc_tr.Smachine.tr_triggers)
                (outgoing t id)
            in
            let enabled =
              List.find_opt (fun c -> transition_triggered t None c) trs
            in
            (match enabled with
             | Some tr -> Some (id, tr)
             | None -> None))
      t.config None
  in
  match candidate with
  | None -> None
  | Some (id, tr) ->
    t.completion_sent <- Ident.Set.add id t.completion_sent;
    Telemetry.Metrics.incr t.m_microsteps;
    fire_transition t (Event.make Event.completion_name) tr;
    Some tr

let rec completion_cascade t fired budget =
  if budget <= 0 then
    model_error "completion cascade did not converge (livelock?)";
  if t.engine_status <> Running then List.rev fired
  else
    match completion_step t with
    | None -> List.rev fired
    | Some c ->
      completion_cascade t (c.tc_tr.Smachine.tr_id :: fired) (budget - 1)

(* --- run-to-completion step ----------------------------------------- *)

let record_step t ev fired =
  if Telemetry.Metrics.live t.e_metrics then
    Telemetry.Metrics.event_lazy t.e_metrics ~scope:"statechart" "step"
      (fun () ->
        [
          ("event", Telemetry.Metrics.F_str ev.Event.name);
          ("fired", Telemetry.Metrics.F_int (List.length fired));
          ("status", Telemetry.Metrics.F_str (show_status t.engine_status));
        ]);
  t.steps <- { sp_event = ev; sp_fired = fired; sp_config = t.config } :: t.steps

let is_deferrable t ev =
  Ident.Set.exists
    (fun id ->
      match Topology.vertex t.topo id with
      | Smachine.State s ->
        List.exists (fun trg -> Event.matches trg ev) s.Smachine.st_deferred
      | Smachine.Pseudo _ | Smachine.Final _ -> false)
    t.config

let rtc t ev =
  Telemetry.Metrics.incr t.m_dispatched;
  let candidates = enabled_transitions t ev in
  let firing = select_firing_set t candidates in
  if firing = [] then begin
    if is_deferrable t ev then t.deferred <- ev :: t.deferred
    else record_step t ev []
  end
  else begin
    Telemetry.Metrics.incr t.m_microsteps;
    List.iter
      (fun tr -> if t.engine_status = Running then fire_transition t ev tr)
      firing;
    let completion_fired =
      if t.engine_status = Running then completion_cascade t [] 1000 else []
    in
    record_step t ev
      (List.map (fun c -> c.tc_tr.Smachine.tr_id) firing @ completion_fired);
    (* configuration changed: recall deferred events *)
    let recalled = List.rev t.deferred in
    t.deferred <- [];
    List.iter (fun e -> Queue.push e t.pool) recalled
  end

let start t =
  let ev = Event.make "__init" in
  List.iter
    (fun r -> default_enter_region t ev Ident.Set.empty r)
    (Topology.machine t.topo).Smachine.sm_regions;
  let fired = completion_cascade t [] 1000 in
  record_step t ev fired

let send t ev =
  Queue.push ev t.pool;
  Telemetry.Metrics.set_gauge t.g_queue (Queue.length t.pool)

let step t =
  if t.engine_status <> Running then false
  else if Queue.is_empty t.pool then false
  else begin
    let ev = Queue.pop t.pool in
    Telemetry.Metrics.set_gauge t.g_queue (Queue.length t.pool);
    rtc t ev;
    true
  end

let run_to_quiescence t =
  let rec loop n = if step t then loop (n + 1) else n in
  loop 0

(* Graceful resource guard for adversarial event streams: same drain
   loop, but a step budget turns a potential livelock into a structured
   verdict instead of an unbounded spin. *)
let run_bounded t ~budget =
  if budget < 0 then invalid_arg "Engine.run_bounded: negative budget";
  let rec loop n =
    if n >= budget then if Queue.is_empty t.pool then `Quiescent n else `Exhausted
    else if step t then loop (n + 1)
    else `Quiescent n
  in
  loop 0

let dispatch t ev =
  send t ev;
  let _count = run_to_quiescence t in
  ()

let advance_time t dt =
  let target = t.clock + dt in
  let rec loop () =
    match t.timers with
    | tm :: rest when tm.tm_due <= target && t.engine_status = Running ->
      t.clock <- tm.tm_due;
      t.timers <- rest;
      if
        is_active t tm.tm_state
        && guard_passes t (Event.make Event.time_name) tm.tm_code
      then begin
        fire_transition t (Event.make Event.time_name) tm.tm_code;
        let completion_fired =
          if t.engine_status = Running then completion_cascade t [] 1000
          else []
        in
        record_step t (Event.make Event.time_name)
          (tm.tm_code.tc_tr.Smachine.tr_id :: completion_fired);
        let _count = run_to_quiescence t in
        ()
      end;
      loop ()
    | _rest -> ()
  in
  loop ();
  t.clock <- target

let trace t =
  List.rev_map
    (fun sp ->
      {
        sr_event = sp.sp_event;
        sr_fired = sp.sp_fired;
        sr_config = leaf_names t sp.sp_config;
      })
    t.steps
