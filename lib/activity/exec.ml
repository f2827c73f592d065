open Uml

module SM = Map.Make (String)

(* One edge as a firing template reads it: the slot of its place. *)
type arc = {
  a_slot : int;
  a_weight : int;
  a_guard : Asl.Compiled.guard option;
}

type shape =
  | S_initial of int  (** slot of the start place *)
  | S_decision of string array  (** branch label per outgoing edge *)
  | S_merge of string array  (** branch label per incoming edge *)
  | S_final
  | S_flow_final
  | S_accept of string  (** event name *)
  | S_object of int option  (** buffer capacity *)
  | S_action of Asl.Compiled.program  (** an action with an ASL body *)
  | S_plain  (** other actions, calls, sends, forks and joins *)

(* Everything about a node that does not change while the engine runs,
   built once at [create]: its edges in activity order, their places
   interned to slots, its labels, and its guards and body compiled
   through the memo (parse errors stay captured until the behavior
   actually evaluates). *)
type template = {
  tp_node : Activityg.node;
  tp_label : string;
  tp_ins : arc array;
  tp_outs : arc array;
  tp_in_weight : int;  (** tokens consumed from all incoming edges *)
  tp_shape : shape;
}

(* A firing is a template plus, for decisions and merges, the index of
   the chosen edge. *)
type firing = {
  fr_tp : template;
  fr_branch : int;
  fr_label : string;
}

type t = {
  act : Activityg.t;
  exec_interp : Asl.Interp.t;
  self_ : Asl.Value.t;
  templates : template array;  (** node order *)
  place_names : string array;  (** slot -> place name *)
  place_slots : (string, int) Hashtbl.t;
  sorted_slots : int array;  (** slots in place-name order *)
  done_slot : int;
  slots : int array;  (** the marking over the translated net's places *)
  mutable residue : int SM.t;
      (** tokens [adjust_tokens] put on places the net does not know *)
  mutable done_ : bool;
  mutable gating : bool;
  mutable pending_events : string list;
  mutable signals : string list;  (** reverse order *)
  x_metrics : Telemetry.Metrics.t;
  m_firings : Telemetry.Metrics.counter;
  m_token_moves : Telemetry.Metrics.counter;
}

(* Places are interned by name, in the translated net's place order
   (edges, then start places, then done), so two edges whose places
   share a name share a slot, exactly as they share a map key. *)
let intern_places (act : Activityg.t) =
  let open Activityg in
  let table = Hashtbl.create 64 in
  let names = ref [] in
  let intern name =
    match Hashtbl.find_opt table name with
    | Some slot -> slot
    | None ->
      let slot = Hashtbl.length table in
      Hashtbl.add table name slot;
      names := name :: !names;
      slot
  in
  List.iter (fun e -> ignore (intern (Translate.place_of_edge e.ed_id)))
    act.ac_edges;
  List.iter
    (fun n ->
      match n with
      | Initial_node h -> ignore (intern (Translate.start_place h.nd_id))
      | Action _ | Call_behavior _ | Send_signal _ | Accept_event _
      | Object_node _ | Activity_final _ | Flow_final _ | Fork_node _
      | Join_node _ | Decision_node _ | Merge_node _ ->
        ())
    act.ac_nodes;
  ignore (intern Translate.done_place);
  (table, Array.of_list (List.rev !names))

let template_of_node (act : Activityg.t) slot_of n =
  let open Activityg in
  let id = node_id n in
  let arc e =
    {
      a_slot = slot_of (Translate.place_of_edge e.ed_id);
      a_weight = e.ed_weight;
      a_guard = Option.map Asl.Compiled.guard e.ed_guard;
    }
  in
  let ins = incoming act id in
  let outs = outgoing act id in
  let branches label edges =
    Array.of_list (List.map (fun e -> label id e.ed_id) edges)
  in
  let shape =
    match n with
    | Initial_node h -> S_initial (slot_of (Translate.start_place h.nd_id))
    | Decision_node _ -> S_decision (branches Translate.decision_branch outs)
    | Merge_node _ -> S_merge (branches Translate.merge_branch ins)
    | Activity_final _ -> S_final
    | Flow_final _ -> S_flow_final
    | Accept_event ev -> S_accept ev.ev_event
    | Object_node o -> S_object o.on_upper_bound
    | Action { act_body = Some src; _ } -> S_action (Asl.Compiled.program src)
    | Action { act_body = None; _ } | Call_behavior _ | Send_signal _ | Fork_node _ | Join_node _
      ->
      S_plain
  in
  {
    tp_node = n;
    tp_label = Translate.transition_of_node id;
    tp_ins = Array.of_list (List.map arc ins);
    tp_outs = Array.of_list (List.map arc outs);
    tp_in_weight = List.fold_left (fun acc e -> acc + e.ed_weight) 0 ins;
    tp_shape = shape;
  }

let create ?interp ?(self_ = Asl.Value.V_null)
    ?(metrics = Telemetry.Metrics.null) act =
  let exec_interp =
    match interp with
    | Some i -> i
    | None -> Asl.Interp.create ~metrics (Asl.Store.create ())
  in
  let place_slots, place_names = intern_places act in
  let slot_of = Hashtbl.find place_slots in
  let sorted_slots = Array.init (Array.length place_names) Fun.id in
  Array.stable_sort
    (fun a b -> String.compare place_names.(a) place_names.(b))
    sorted_slots;
  let templates =
    Array.of_list
      (List.map (template_of_node act slot_of) act.Activityg.ac_nodes)
  in
  let slots = Array.make (Array.length place_names) 0 in
  Array.iter
    (fun tp ->
      match tp.tp_shape with
      | S_initial sp -> slots.(sp) <- slots.(sp) + 1
      | S_decision _ | S_merge _ | S_final | S_flow_final | S_accept _
      | S_object _ | S_action _ | S_plain ->
        ())
    templates;
  {
    act;
    exec_interp;
    self_;
    templates;
    place_names;
    place_slots;
    sorted_slots;
    done_slot = slot_of Translate.done_place;
    slots;
    residue = SM.empty;
    done_ = false;
    gating = false;
    pending_events = [];
    signals = [];
    x_metrics = metrics;
    m_firings = Telemetry.Metrics.counter metrics "activity.firings";
    m_token_moves = Telemetry.Metrics.counter metrics "activity.token_moves";
  }

let activity t = t.act
let interp t = t.exec_interp
let metrics t = t.x_metrics

(* Non-zero slots in place-name order, merged with the residue. *)
let tokens t =
  let net =
    Array.fold_right
      (fun slot acc ->
        let n = t.slots.(slot) in
        if n = 0 then acc else (t.place_names.(slot), n) :: acc)
      t.sorted_slots []
  in
  List.merge
    (fun (a, _) (b, _) -> String.compare a b)
    net (SM.bindings t.residue)

let finished t = t.done_
let set_event_gating t b = t.gating <- b
let offer_event t name = t.pending_events <- t.pending_events @ [ name ]

let guard_passes t = function
  | None -> true
  | Some g -> (
    match Asl.Interp.eval_guard_compiled ~self_:t.self_ t.exec_interp g with
    | b -> b
    | exception Asl.Interp.Runtime_error _ -> false)

let offers t a = t.slots.(a.a_slot) >= a.a_weight

(* Every incoming edge offers its weight, then every incoming guard
   passes: tokens before guards, each stopping at the first failure. *)
let in_ok t tp =
  Array.for_all (offers t) tp.tp_ins
  && Array.for_all (fun a -> guard_passes t a.a_guard) tp.tp_ins

let firing tp = { fr_tp = tp; fr_branch = -1; fr_label = tp.tp_label }
let branch tp labels i = { fr_tp = tp; fr_branch = i; fr_label = labels.(i) }

(* The firings a template enables, consed onto [acc] in reverse. *)
let firings_of_template t tp acc =
  let has_ins = Array.length tp.tp_ins > 0 in
  match tp.tp_shape with
  | S_initial sp ->
    if t.slots.(sp) >= 1 then firing tp :: acc else acc
  | S_decision labels ->
    if (not has_ins) || not (in_ok t tp) then acc
    else begin
      let acc = ref acc in
      Array.iteri
        (fun i a ->
          if guard_passes t a.a_guard then
            acc := branch tp labels i :: !acc)
        tp.tp_outs;
      !acc
    end
  | S_merge labels ->
    let acc = ref acc in
    Array.iteri
      (fun i a ->
        if offers t a && guard_passes t a.a_guard then
          acc := branch tp labels i :: !acc)
      tp.tp_ins;
    !acc
  | S_accept event ->
    let event_ready = (not t.gating) || List.mem event t.pending_events in
    if has_ins && in_ok t tp && event_ready then firing tp :: acc
    else acc
  | S_object bound ->
    let capacity_ok =
      match bound with
      | None -> true
      | Some b ->
        (* tokens buffered downstream of this node *)
        Array.fold_left (fun n a -> n + t.slots.(a.a_slot)) 0 tp.tp_outs < b
    in
    if has_ins && in_ok t tp && capacity_ok then firing tp :: acc
    else acc
  | S_final | S_flow_final | S_action _ | S_plain ->
    if has_ins && in_ok t tp then firing tp :: acc else acc

let all_firings t =
  if t.done_ then []
  else
    List.rev
      (Array.fold_left (fun acc tp -> firings_of_template t tp acc) []
         t.templates)

let enabled_firings t = List.map (fun f -> f.fr_label) (all_firings t)
let stuck t = (not t.done_) && all_firings t = []

let run_action t prog =
  match Asl.Interp.run_compiled ~self_:t.self_ t.exec_interp prog with
  | _result ->
    let sent = Asl.Interp.drain_signals t.exec_interp in
    List.iter (fun s -> t.signals <- s.Asl.Interp.sig_name :: t.signals) sent
  | exception Asl.Interp.Runtime_error _ -> ()

let run_node_behavior t tp =
  let open Activityg in
  match tp.tp_shape, tp.tp_node with
  | S_action prog, _node -> run_action t prog
  | ( ( S_initial _ | S_decision _ | S_merge _ | S_final | S_flow_final
      | S_accept _ | S_object _ | S_plain ),
      node ) -> (
    match node with
    | Send_signal ev -> t.signals <- ev.ev_event :: t.signals
  | Accept_event ev ->
    if t.gating then begin
      (* consume one pending instance *)
      let rec remove = function
        | [] -> []
        | e :: rest when e = ev.ev_event -> rest
        | e :: rest -> e :: remove rest
      in
      t.pending_events <- remove t.pending_events
    end
  | Action _ | Call_behavior _ | Object_node _ | Initial_node _
  | Activity_final _ | Flow_final _ | Fork_node _ | Join_node _
  | Decision_node _ | Merge_node _ ->
    ())

let apply_firing t f =
  let tp = f.fr_tp in
  let fan_out = Array.length tp.tp_outs in
  let consumed, produced =
    match tp.tp_shape with
    | S_initial _ -> (1, fan_out)
    | S_decision _ | S_final -> (tp.tp_in_weight, 1)
    | S_merge _ -> (tp.tp_ins.(f.fr_branch).a_weight, fan_out)
    | S_flow_final -> (tp.tp_in_weight, 0)
    | S_accept _ | S_object _ | S_action _ | S_plain ->
      (tp.tp_in_weight, fan_out)
  in
  Telemetry.Metrics.incr t.m_firings;
  Telemetry.Metrics.incr ~by:(consumed + produced) t.m_token_moves;
  if Telemetry.Metrics.live t.x_metrics then
    Telemetry.Metrics.event t.x_metrics ~scope:"activity" "fire"
      [
        ("label", Telemetry.Metrics.F_str f.fr_label);
        ("consumed", Telemetry.Metrics.F_int consumed);
        ("produced", Telemetry.Metrics.F_int produced);
      ];
  let take a = t.slots.(a.a_slot) <- t.slots.(a.a_slot) - a.a_weight in
  let put slot = t.slots.(slot) <- t.slots.(slot) + 1 in
  (match tp.tp_shape with
   | S_initial sp -> t.slots.(sp) <- t.slots.(sp) - 1
   | S_merge _ -> take tp.tp_ins.(f.fr_branch)
   | S_decision _ | S_final | S_flow_final | S_accept _ | S_object _
   | S_action _ | S_plain ->
     Array.iter take tp.tp_ins);
  run_node_behavior t tp;
  match tp.tp_shape with
  | S_decision _ -> put tp.tp_outs.(f.fr_branch).a_slot
  | S_final ->
    put t.done_slot;
    t.done_ <- true
  | S_flow_final -> ()
  | S_initial _ | S_merge _ | S_accept _ | S_object _ | S_action _
  | S_plain ->
    Array.iter (fun a -> put a.a_slot) tp.tp_outs

let fire t label =
  match
    List.find_opt (fun f -> String.equal f.fr_label label) (all_firings t)
  with
  | Some f ->
    apply_firing t f;
    Ok ()
  | None -> Error (Printf.sprintf "firing %s not enabled" label)

(* Clamped at zero; places the net does not know live in the residue. *)
let adjust_tokens t place delta =
  match Hashtbl.find_opt t.place_slots place with
  | Some slot -> t.slots.(slot) <- max 0 (t.slots.(slot) + delta)
  | None ->
    let have = Option.value (SM.find_opt place t.residue) ~default:0 in
    let v = max 0 (have + delta) in
    t.residue <-
      (if v = 0 then SM.remove place t.residue else SM.add place v t.residue)

let run_status ?(seed = 1) ?(max_steps = 10_000) t =
  let state = ref (seed land 0x3FFFFFFF) in
  let choose bound =
    state := ((!state * 1103515245) + 12345) land 0x3FFFFFFF;
    !state mod bound
  in
  let rec loop steps acc =
    if steps >= max_steps then (List.rev acc, `Exhausted)
    else
      match all_firings t with
      | [] -> (List.rev acc, if t.done_ then `Completed else `Stuck)
      | firings ->
        let f = List.nth firings (choose (List.length firings)) in
        apply_firing t f;
        loop (steps + 1) (f.fr_label :: acc)
  in
  loop 0 []

let run ?seed ?max_steps t = fst (run_status ?seed ?max_steps t)

let sent_signals t = List.rev t.signals
let output_of t = Asl.Interp.output t.exec_interp
