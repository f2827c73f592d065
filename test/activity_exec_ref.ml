(* Reference oracle for the differential property in [test_activity]:
   the edge-scanning token engine that [Activity.Exec]'s per-node
   firing templates replaced, kept verbatim (bar the [Translate]
   alias), so any drift in enabled firings, the marking, guard
   evaluation order or telemetry shows up as a counterexample. *)

open Uml
module Translate = Activity.Translate

type t = {
  act : Activityg.t;
  exec_interp : Asl.Interp.t;
  self_ : Asl.Value.t;
  mutable marking : int Map.Make(String).t;
  mutable done_ : bool;
  mutable gating : bool;
  mutable pending_events : string list;
  mutable signals : string list;  (** reverse order *)
  x_metrics : Telemetry.Metrics.t;
  m_firings : Telemetry.Metrics.counter;
  m_token_moves : Telemetry.Metrics.counter;
}

module SM = Map.Make (String)

let tokens_at t p =
  match SM.find_opt p t.marking with
  | Some n -> n
  | None -> 0

let add_tokens t p n =
  let v = tokens_at t p + n in
  t.marking <- (if v = 0 then SM.remove p t.marking else SM.add p v t.marking)

(* Parse all edge guards and action bodies once at engine construction;
   firing then runs on the memoized compiled forms (parse errors stay
   captured until the behavior actually evaluates). *)
let precompile_behaviors (act : Activityg.t) =
  let opt compile = function
    | None -> ()
    | Some src -> ignore (compile src)
  in
  List.iter
    (fun (e : Activityg.edge) -> opt Asl.Compiled.guard e.Activityg.ed_guard)
    act.Activityg.ac_edges;
  List.iter
    (fun n ->
      match n with
      | Activityg.Action a -> opt Asl.Compiled.program a.Activityg.act_body
      | Activityg.Call_behavior _ | Activityg.Send_signal _
      | Activityg.Accept_event _ | Activityg.Object_node _
      | Activityg.Initial_node _ | Activityg.Activity_final _
      | Activityg.Flow_final _ | Activityg.Fork_node _
      | Activityg.Join_node _ | Activityg.Decision_node _
      | Activityg.Merge_node _ ->
        ())
    act.Activityg.ac_nodes

let create ?interp ?(self_ = Asl.Value.V_null)
    ?(metrics = Telemetry.Metrics.null) act =
  precompile_behaviors act;
  let exec_interp =
    match interp with
    | Some i -> i
    | None -> Asl.Interp.create ~metrics (Asl.Store.create ())
  in
  let t =
    {
      act;
      exec_interp;
      self_;
      marking = SM.empty;
      done_ = false;
      gating = false;
      pending_events = [];
      signals = [];
      x_metrics = metrics;
      m_firings = Telemetry.Metrics.counter metrics "activity.firings";
      m_token_moves = Telemetry.Metrics.counter metrics "activity.token_moves";
    }
  in
  List.iter
    (fun n ->
      match n with
      | Activityg.Initial_node h ->
        add_tokens t (Translate.start_place h.Activityg.nd_id) 1
      | _other -> ())
    act.Activityg.ac_nodes;
  t

let activity t = t.act
let interp t = t.exec_interp
let metrics t = t.x_metrics

let tokens t =
  List.sort (fun (a, _) (b, _) -> String.compare a b) (SM.bindings t.marking)

let finished t = t.done_
let set_event_gating t b = t.gating <- b
let offer_event t name = t.pending_events <- t.pending_events @ [ name ]

let guard_passes t = function
  | None -> true
  | Some src -> (
    match
      Asl.Interp.eval_guard_compiled ~self_:t.self_ t.exec_interp
        (Asl.Compiled.guard src)
    with
    | b -> b
    | exception Asl.Interp.Runtime_error _ -> false)

(* Enabled firings with the inputs/outputs they would consume/produce. *)
type firing = {
  fr_label : string;
  fr_node : Activityg.node;
  fr_consume : (string * int) list;
  fr_produce : string list;  (** one token each *)
  fr_is_final : bool;
}

let firings_of_node t n =
  let open Activityg in
  let id = node_id n in
  let ins = incoming t.act id in
  let outs = outgoing t.act id in
  let in_ok () =
    List.for_all
      (fun e -> tokens_at t (Translate.place_of_edge e.ed_id) >= e.ed_weight)
      ins
    && List.for_all (fun e -> guard_passes t e.ed_guard) ins
  in
  let consume_all =
    List.map (fun e -> (Translate.place_of_edge e.ed_id, e.ed_weight)) ins
  in
  let produce_all = List.map (fun e -> Translate.place_of_edge e.ed_id) outs in
  match n with
  | Initial_node h ->
    let sp = Translate.start_place h.nd_id in
    if tokens_at t sp >= 1 then
      [
        {
          fr_label = Translate.transition_of_node id;
          fr_node = n;
          fr_consume = [ (sp, 1) ];
          fr_produce = produce_all;
          fr_is_final = false;
        };
      ]
    else []
  | Decision_node _ ->
    if ins = [] || not (in_ok ()) then []
    else
      List.filter_map
        (fun out_e ->
          if guard_passes t out_e.ed_guard then
            Some
              {
                fr_label = Translate.decision_branch id out_e.ed_id;
                fr_node = n;
                fr_consume = consume_all;
                fr_produce = [ Translate.place_of_edge out_e.ed_id ];
                fr_is_final = false;
              }
          else None)
        outs
  | Merge_node _ ->
    List.filter_map
      (fun in_e ->
        if
          tokens_at t (Translate.place_of_edge in_e.ed_id) >= in_e.ed_weight
          && guard_passes t in_e.ed_guard
        then
          Some
            {
              fr_label = Translate.merge_branch id in_e.ed_id;
              fr_node = n;
              fr_consume =
                [ (Translate.place_of_edge in_e.ed_id, in_e.ed_weight) ];
              fr_produce = produce_all;
              fr_is_final = false;
            }
        else None)
      ins
  | Activity_final _ ->
    if ins <> [] && in_ok () then
      [
        {
          fr_label = Translate.transition_of_node id;
          fr_node = n;
          fr_consume = consume_all;
          fr_produce = [ Translate.done_place ];
          fr_is_final = true;
        };
      ]
    else []
  | Flow_final _ ->
    if ins <> [] && in_ok () then
      [
        {
          fr_label = Translate.transition_of_node id;
          fr_node = n;
          fr_consume = consume_all;
          fr_produce = [];
          fr_is_final = false;
        };
      ]
    else []
  | Accept_event ev ->
    let event_ready =
      (not t.gating) || List.mem ev.ev_event t.pending_events
    in
    if ins <> [] && in_ok () && event_ready then
      [
        {
          fr_label = Translate.transition_of_node id;
          fr_node = n;
          fr_consume = consume_all;
          fr_produce = produce_all;
          fr_is_final = false;
        };
      ]
    else []
  | Object_node o ->
    let capacity_ok =
      match o.on_upper_bound with
      | None -> true
      | Some b ->
        (* tokens buffered downstream of this node *)
        List.fold_left
          (fun acc e -> acc + tokens_at t (Translate.place_of_edge e.ed_id))
          0 outs
        < b
    in
    if ins <> [] && in_ok () && capacity_ok then
      [
        {
          fr_label = Translate.transition_of_node id;
          fr_node = n;
          fr_consume = consume_all;
          fr_produce = produce_all;
          fr_is_final = false;
        };
      ]
    else []
  | Action _ | Call_behavior _ | Send_signal _ | Fork_node _ | Join_node _ ->
    if ins <> [] && in_ok () then
      [
        {
          fr_label = Translate.transition_of_node id;
          fr_node = n;
          fr_consume = consume_all;
          fr_produce = produce_all;
          fr_is_final = false;
        };
      ]
    else []

let all_firings t =
  if t.done_ then []
  else List.concat_map (firings_of_node t) t.act.Activityg.ac_nodes

let enabled_firings t = List.map (fun f -> f.fr_label) (all_firings t)
let stuck t = (not t.done_) && all_firings t = []

let run_node_behavior t n =
  let open Activityg in
  match n with
  | Action a -> (
    match a.act_body with
    | None -> ()
    | Some src -> (
      match
        Asl.Interp.run_compiled ~self_:t.self_ t.exec_interp
          (Asl.Compiled.program src)
      with
      | _result ->
        let sent = Asl.Interp.drain_signals t.exec_interp in
        List.iter
          (fun s -> t.signals <- s.Asl.Interp.sig_name :: t.signals)
          sent
      | exception Asl.Interp.Runtime_error _ -> ()))
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
  | Call_behavior _ | Object_node _ | Initial_node _ | Activity_final _
  | Flow_final _ | Fork_node _ | Join_node _ | Decision_node _
  | Merge_node _ ->
    ()

let apply_firing t f =
  Telemetry.Metrics.incr t.m_firings;
  let consumed = List.fold_left (fun acc (_, w) -> acc + w) 0 f.fr_consume in
  Telemetry.Metrics.incr ~by:(consumed + List.length f.fr_produce)
    t.m_token_moves;
  if Telemetry.Metrics.live t.x_metrics then
    Telemetry.Metrics.event t.x_metrics ~scope:"activity" "fire"
      [
        ("label", Telemetry.Metrics.F_str f.fr_label);
        ("consumed", Telemetry.Metrics.F_int consumed);
        ("produced", Telemetry.Metrics.F_int (List.length f.fr_produce));
      ];
  List.iter (fun (p, w) -> add_tokens t p (-w)) f.fr_consume;
  run_node_behavior t f.fr_node;
  List.iter (fun p -> add_tokens t p 1) f.fr_produce;
  if f.fr_is_final then t.done_ <- true

let fire t label =
  match List.find_opt (fun f -> f.fr_label = label) (all_firings t) with
  | Some f ->
    apply_firing t f;
    Ok ()
  | None -> Error (Printf.sprintf "firing %s not enabled" label)

let adjust_tokens t place delta =
  let v = max 0 (tokens_at t place + delta) in
  t.marking <-
    (if v = 0 then SM.remove place t.marking else SM.add place v t.marking)

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
