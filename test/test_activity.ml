(* Tests for the activity token engine, the Petri translation, and
   their conformance (experiment E3's correctness basis). *)

open Uml

let tc name f = Alcotest.test_case name `Quick f
let check = Alcotest.check

let e source target = Activityg.edge ~source ~target ()
let id = Activityg.node_id

(* init -> a -> b -> final *)
let linear () =
  let init = Activityg.initial () in
  let a = Activityg.action "a" in
  let b = Activityg.action "b" in
  let fin = Activityg.activity_final () in
  Activityg.make "linear"
    [ init; a; b; fin ]
    [ e (id init) (id a); e (id a) (id b); e (id b) (id fin) ]

(* init -> fork -> (a, b) -> join -> final *)
let forked () =
  let init = Activityg.initial () in
  let fork = Activityg.fork "f" in
  let a = Activityg.action "a" in
  let b = Activityg.action "b" in
  let join = Activityg.join "j" in
  let fin = Activityg.activity_final () in
  Activityg.make "forked"
    [ init; fork; a; b; join; fin ]
    [
      e (id init) (id fork); e (id fork) (id a); e (id fork) (id b);
      e (id a) (id join); e (id b) (id join); e (id join) (id fin);
    ]

(* init -> decision -> (a | b) -> merge -> final *)
let branched ?guard_a ?guard_b () =
  let init = Activityg.initial () in
  let dec = Activityg.decision "d" in
  let a = Activityg.action "a" in
  let b = Activityg.action "b" in
  let mrg = Activityg.merge "m" in
  let fin = Activityg.activity_final () in
  Activityg.make "branched"
    [ init; dec; a; b; mrg; fin ]
    [
      e (id init) (id dec);
      Activityg.edge ?guard:guard_a ~source:(id dec) ~target:(id a) ();
      Activityg.edge ?guard:guard_b ~source:(id dec) ~target:(id b) ();
      e (id a) (id mrg); e (id b) (id mrg); e (id mrg) (id fin);
    ]

let engine_tests =
  [
    tc "linear run fires all nodes once" (fun () ->
        let engine = Activity.Exec.create (linear ()) in
        let labels = Activity.Exec.run ~seed:1 engine in
        check Alcotest.int "four firings" 4 (List.length labels);
        check Alcotest.bool "finished" true (Activity.Exec.finished engine));
    tc "finished activity offers no firings" (fun () ->
        let engine = Activity.Exec.create (linear ()) in
        let _labels = Activity.Exec.run engine in
        check Alcotest.int "none" 0
          (List.length (Activity.Exec.enabled_firings engine)));
    tc "fork produces parallel tokens, join collects them" (fun () ->
        let engine = Activity.Exec.create (forked ()) in
        let labels = Activity.Exec.run ~seed:3 engine in
        (* init, fork, a, b, join, final = 6 firings *)
        check Alcotest.int "six" 6 (List.length labels);
        check Alcotest.bool "finished" true (Activity.Exec.finished engine));
    tc "after the fork both actions are enabled" (fun () ->
        let act = forked () in
        let engine = Activity.Exec.create act in
        (* fire init then fork by hand *)
        (match Activity.Exec.enabled_firings engine with
         | [ l ] -> (
           check Alcotest.bool "init ok" true (Activity.Exec.fire engine l = Ok ());
           match Activity.Exec.enabled_firings engine with
           | [ l2 ] -> (
             check Alcotest.bool "fork ok" true
               (Activity.Exec.fire engine l2 = Ok ());
             check Alcotest.int "two enabled" 2
               (List.length (Activity.Exec.enabled_firings engine)))
           | other ->
             Alcotest.fail
               (Printf.sprintf "expected single firing, got %d"
                  (List.length other)))
         | other ->
           Alcotest.fail
             (Printf.sprintf "expected single firing, got %d"
                (List.length other))));
    tc "decision takes exactly one branch" (fun () ->
        let engine = Activity.Exec.create (branched ()) in
        let labels = Activity.Exec.run ~seed:5 engine in
        (* init, decision, one action, merge, final = 5 firings *)
        check Alcotest.int "five" 5 (List.length labels);
        check Alcotest.bool "finished" true (Activity.Exec.finished engine));
    tc "guards prune decision branches" (fun () ->
        let engine =
          Activity.Exec.create (branched ~guard_a:"false" ~guard_b:"true" ())
        in
        let labels = Activity.Exec.run ~seed:2 engine in
        let act = Activity.Exec.activity engine in
        let b_node =
          List.find (fun n -> Activityg.node_name n = "b") act.Activityg.ac_nodes
        in
        let b_label = "t_" ^ Ident.to_string (Activityg.node_id b_node) in
        check Alcotest.bool "b fired" true (List.mem b_label labels));
    tc "all-false guards leave the activity stuck" (fun () ->
        let engine =
          Activity.Exec.create (branched ~guard_a:"false" ~guard_b:"false" ())
        in
        let _labels = Activity.Exec.run ~seed:2 engine in
        check Alcotest.bool "stuck" true (Activity.Exec.stuck engine));
    tc "weighted edge needs enough tokens" (fun () ->
        (* a -> (weight 2) b; single token cannot pass *)
        let init = Activityg.initial () in
        let a = Activityg.action "a" in
        let b = Activityg.action "b" in
        let act =
          Activityg.make "w"
            [ init; a; b ]
            [
              e (id init) (id a);
              Activityg.edge ~weight:2 ~source:(id a) ~target:(id b) ();
            ]
        in
        let engine = Activity.Exec.create act in
        let _labels = Activity.Exec.run engine in
        check Alcotest.bool "stuck before b" true (Activity.Exec.stuck engine));
    tc "send_signal is recorded" (fun () ->
        let init = Activityg.initial () in
        let s = Activityg.send_signal ~event:"irq" "raise" in
        let fin = Activityg.activity_final () in
        let act =
          Activityg.make "sig" [ init; s; fin ]
            [ e (id init) (id s); e (id s) (id fin) ]
        in
        let engine = Activity.Exec.create act in
        let _labels = Activity.Exec.run engine in
        check (Alcotest.list Alcotest.string) "irq" [ "irq" ]
          (Activity.Exec.sent_signals engine));
    tc "action bodies execute in the interpreter" (fun () ->
        let init = Activityg.initial () in
        let a = Activityg.action ~body:"print(\"ran\");" "a" in
        let fin = Activityg.activity_final () in
        let act =
          Activityg.make "body" [ init; a; fin ]
            [ e (id init) (id a); e (id a) (id fin) ]
        in
        let engine = Activity.Exec.create act in
        let _labels = Activity.Exec.run engine in
        check (Alcotest.list Alcotest.string) "output" [ "ran" ]
          (Activity.Exec.output_of engine));
    tc "event gating blocks accept nodes" (fun () ->
        let init = Activityg.initial () in
        let acc = Activityg.accept_event ~event:"go" "wait" in
        let fin = Activityg.activity_final () in
        let act =
          Activityg.make "gate" [ init; acc; fin ]
            [ e (id init) (id acc); e (id acc) (id fin) ]
        in
        let engine = Activity.Exec.create act in
        Activity.Exec.set_event_gating engine true;
        let _labels = Activity.Exec.run engine in
        check Alcotest.bool "blocked" true (Activity.Exec.stuck engine);
        Activity.Exec.offer_event engine "go";
        let _more = Activity.Exec.run engine in
        check Alcotest.bool "finished" true (Activity.Exec.finished engine));
  ]

let translation_tests =
  [
    tc "structure: places for edges plus start/done" (fun () ->
        let act = linear () in
        let net, m0 = Activity.Translate.to_petri act in
        (* 3 edges + 1 start + done *)
        check Alcotest.int "places" 5 (Petri.Net.place_count net);
        check Alcotest.int "transitions" 4 (Petri.Net.transition_count net);
        check Alcotest.int "initial tokens" 1 (Petri.Marking.total m0));
    tc "decision expands to one transition per branch" (fun () ->
        let act = branched () in
        let net, _m0 = Activity.Translate.to_petri act in
        (* init, a, b, final + 2 decision branches + 2 merge branches *)
        check Alcotest.int "transitions" 8 (Petri.Net.transition_count net));
    tc "translated net reaches done" (fun () ->
        let act = linear () in
        let net, m0 = Activity.Translate.to_petri act in
        let r = Petri.Analysis.reachable net m0 in
        let done_reached =
          List.exists
            (fun m -> Petri.Marking.tokens m Activity.Translate.done_place > 0)
            r.Petri.Analysis.markings
        in
        check Alcotest.bool "done" true done_reached);
  ]

let conformance_tests =
  [
    tc "linear run conforms" (fun () ->
        let r = Oracles.Conform.run_and_check ~seed:1 (linear ()) in
        check Alcotest.bool "conforms" true r.Oracles.Conform.conforms);
    tc "forked run conforms" (fun () ->
        let r = Oracles.Conform.run_and_check ~seed:7 (forked ()) in
        check Alcotest.bool "conforms" true r.Oracles.Conform.conforms);
    tc "bogus trace is rejected" (fun () ->
        let r = Oracles.Conform.check_trace (linear ()) [ "t_nonsense" ] in
        check Alcotest.bool "rejected" false r.Oracles.Conform.conforms);
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make
         ~name:"engine runs are occurrence sequences of the net" ~count:40
         QCheck.(pair (int_range 1 5000) (int_range 1 5000))
         (fun (seed, run_seed) ->
           let act =
             Workload.Gen_activity.series_parallel ~seed ~size:14 ~max_width:3
           in
           let r = Oracles.Conform.run_and_check ~seed:run_seed act in
           r.Oracles.Conform.conforms));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"decision-bearing activities also conform"
         ~count:40
         QCheck.(pair (int_range 1 5000) (int_range 1 5000))
         (fun (seed, run_seed) ->
           let act =
             Workload.Gen_activity.with_decisions ~seed ~size:14 ~max_width:3
           in
           let r = Oracles.Conform.run_and_check ~seed:run_seed act in
           r.Oracles.Conform.conforms));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make
         ~name:"series-parallel activities always finish" ~count:40
         QCheck.(pair (int_range 1 5000) (int_range 1 5000))
         (fun (seed, run_seed) ->
           let act =
             Workload.Gen_activity.series_parallel ~seed ~size:12 ~max_width:3
           in
           let engine = Activity.Exec.create act in
           let _labels = Activity.Exec.run ~seed:run_seed engine in
           Activity.Exec.finished engine));
  ]

(* ------------------------------------------------------------------ *)
(* Differential property against [Oracles.Activity_exec_ref], the
   edge-scanning engine the firing templates replaced.  Generated
   activities are guard-free, so [decorate] adds what the engine evaluates
   dynamically: edge guards over an attribute of [self] (each read
   counts in [asl.store_reads], so the metrics pin how often and in
   which order guards run), action bodies that bump it, weight-2
   edges, bounded object nodes, accept events (gated on some runs) and
   signal sends. *)

let guards =
  [|
    "self.n < 2"; "self.n >= 1"; "self.n < 4"; "true"; "false";
    "self.ghost > 0";
  |]

let bodies =
  [|
    "self.n := self.n + 1;";
    "self.n := 0;";
    "print(self.n); self.n := self.n + 2;";
    "send tick();";
  |]

let decorate rng (act : Activityg.t) =
  let open Activityg in
  let pick a = a.(Workload.Prng.int rng (Array.length a)) in
  let node n =
    match n with
    | Action a -> (
      match Workload.Prng.int rng 6 with
      | 0 ->
        Object_node
          {
            on_head = a.act_head;
            on_type = Dtype.Integer;
            on_upper_bound =
              (if Workload.Prng.bool rng then Some 1 else None);
          }
      | 1 -> Accept_event { ev_head = a.act_head; ev_event = "go" }
      | 2 -> Send_signal { ev_head = a.act_head; ev_event = "irq" }
      | _ -> Action { a with act_body = Some (pick bodies) })
    | Call_behavior _ | Send_signal _ | Accept_event _ | Object_node _
    | Initial_node _ | Activity_final _ | Flow_final _ | Fork_node _
    | Join_node _ | Decision_node _ | Merge_node _ ->
      n
  in
  let edge e =
    match Workload.Prng.int rng 10 with
    | 0 | 1 | 2 | 3 -> { e with ed_guard = Some (pick guards) }
    | 4 -> { e with ed_weight = 2 }
    | _ -> e
  in
  let nodes = List.map node act.ac_nodes in
  { act with ac_nodes = nodes; ac_edges = List.map edge act.ac_edges }

(* Fault targets: every place of the translated net (empty ones
   included) plus names the net does not know, sorting before, between
   and after the net's own. *)
let fault_places act =
  let net, _m0 = Activity.Translate.to_petri act in
  Array.of_list
    (List.map (fun p -> p.Petri.Net.pl_id) net.Petri.Net.places
    @ [ "a_ghost"; "p_ghost"; "zz_ghost" ])

let random_faults rng places ~steps ~count =
  List.init count (fun _ ->
      let place = places.(Workload.Prng.int rng (Array.length places)) in
      let step = Workload.Prng.int rng steps in
      if Workload.Prng.bool rng then
        Fault.Plan.Lose_token { lt_place = place; lt_step = step }
      else Fault.Plan.Dup_token { dt_place = place; dt_step = step })

let fault_deltas step faults =
  List.filter_map
    (fun f ->
      match f with
      | Fault.Plan.Lose_token { lt_place; lt_step } ->
        if lt_step = step then Some (lt_place, -1) else None
      | Fault.Plan.Dup_token { dt_place; dt_step } ->
        if dt_step = step then Some (dt_place, 1) else None)
    faults

let metrics_text reg =
  Telemetry.Metrics.report reg
  ^ String.concat "\n"
      (List.map Telemetry.Metrics.render_event (Telemetry.Metrics.events reg))

(* Step both engines in lockstep under the same faults, choices, event
   offers and one probe of a label that is never enabled; any
   observable difference is a failure. *)
let lockstep_agrees ~gen_seed ~decisions ~run_seed =
  let gen =
    if decisions then Workload.Gen_activity.with_decisions
    else Workload.Gen_activity.series_parallel
  in
  let rng = Workload.Prng.create run_seed in
  let act = decorate rng (gen ~seed:gen_seed ~size:12 ~max_width:3) in
  let faults = random_faults rng (fault_places act) ~steps:30 ~count:6 in
  let gating = Workload.Prng.bool rng in
  let engine_parts () =
    let metrics = Telemetry.Metrics.create () in
    let store = Asl.Store.create () in
    let self_ =
      Asl.Value.V_obj
        (Asl.Store.alloc store ~class_name:"C"
           ~attrs:[ ("n", Asl.Value.V_int 0) ])
    in
    (metrics, Asl.Interp.create ~metrics store, self_)
  in
  let reg, interp, self_ = engine_parts () in
  let reg_ref, interp_ref, self_ref = engine_parts () in
  let x = Activity.Exec.create ~interp ~self_ ~metrics:reg act in
  let r =
    Oracles.Activity_exec_ref.create ~interp:interp_ref ~self_:self_ref
      ~metrics:reg_ref act
  in
  Activity.Exec.set_event_gating x gating;
  Oracles.Activity_exec_ref.set_event_gating r gating;
  let same_state () =
    Activity.Exec.tokens x = Oracles.Activity_exec_ref.tokens r
    && Activity.Exec.finished x = Oracles.Activity_exec_ref.finished r
  in
  let rec loop step =
    List.iter
      (fun (p, d) ->
        Activity.Exec.adjust_tokens x p d;
        Oracles.Activity_exec_ref.adjust_tokens r p d)
      (fault_deltas step faults);
    if step mod 5 = 4 then begin
      Activity.Exec.offer_event x "go";
      Oracles.Activity_exec_ref.offer_event r "go"
    end;
    let labels = Activity.Exec.enabled_firings x in
    let ok =
      same_state ()
      && labels = Oracles.Activity_exec_ref.enabled_firings r
      && Activity.Exec.stuck x = Oracles.Activity_exec_ref.stuck r
    in
    if not ok then false
    else if step = 7 then
      Activity.Exec.fire x "t_never" = Oracles.Activity_exec_ref.fire r "t_never"
      && loop (step + 1)
    else
      match labels with
      | [] -> true
      | _ when step >= 40 -> true
      | _ ->
        let label = Workload.Prng.pick rng labels in
        Activity.Exec.fire x label = Oracles.Activity_exec_ref.fire r label
        && same_state () && loop (step + 1)
  in
  loop 0
  && Activity.Exec.sent_signals x = Oracles.Activity_exec_ref.sent_signals r
  && Activity.Exec.output_of x = Oracles.Activity_exec_ref.output_of r
  && metrics_text reg = metrics_text reg_ref

(* The campaign's step loop, as it was, over the reference engine.  It
   keeps its own full trace (the firing labels too); the production run
   keeps only the final marking and the stop reason. *)
type act_trace = {
  ar_labels : string list;  (** firing labels, order taken *)
  ar_tokens : (string * int) list;
  ar_stop : string;
}

let act_run_ref ~metrics (spec : Fault.Campaign.act_spec) faults =
  let exec =
    Oracles.Activity_exec_ref.create ~metrics spec.Fault.Campaign.ac_activity
  in
  let rng = Workload.Prng.create spec.Fault.Campaign.ac_choice_seed in
  let rec loop step acc =
    List.iter
      (fun (p, d) -> Oracles.Activity_exec_ref.adjust_tokens exec p d)
      (fault_deltas step faults);
    if step >= spec.Fault.Campaign.ac_max_steps then
      (List.rev acc, "exhausted")
    else
      match Oracles.Activity_exec_ref.enabled_firings exec with
      | [] ->
        ( List.rev acc,
          if Oracles.Activity_exec_ref.finished exec then "completed" else "stuck" )
      | labels -> (
        let label = Workload.Prng.pick rng labels in
        match Oracles.Activity_exec_ref.fire exec label with
        | Ok () -> loop (step + 1) (label :: acc)
        | Error msg -> (List.rev acc, Printf.sprintf "internal: %s" msg))
  in
  let labels, stop = loop 0 [] in
  {
    ar_labels = labels;
    ar_tokens = Oracles.Activity_exec_ref.tokens exec;
    ar_stop = stop;
  }

let act_run_agrees ~gen_seed ~decisions ~run_seed =
  let gen =
    if decisions then Workload.Gen_activity.with_decisions
    else Workload.Gen_activity.series_parallel
  in
  let rng = Workload.Prng.create run_seed in
  let act = decorate rng (gen ~seed:gen_seed ~size:12 ~max_width:3) in
  let faults = random_faults rng (fault_places act) ~steps:20 ~count:3 in
  let spec =
    {
      Fault.Campaign.ac_activity = act;
      ac_choice_seed = run_seed;
      ac_max_steps = 10 + Workload.Prng.int rng 30;
    }
  in
  let reg = Telemetry.Metrics.create () in
  let reg_ref = Telemetry.Metrics.create () in
  let r = Fault.Campaign.act_run ~metrics:reg spec faults in
  let o = act_run_ref ~metrics:reg_ref spec faults in
  r.Fault.Campaign.ar_tokens = o.ar_tokens
  && r.Fault.Campaign.ar_stop = o.ar_stop
  && metrics_text reg = metrics_text reg_ref

let reference_tests =
  let seeds = QCheck.(triple (int_range 1 5000) bool (int_range 1 5000)) in
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make
         ~name:"engine steps agree with the reference engine" ~count:400
         seeds (fun (gen_seed, decisions, run_seed) ->
           lockstep_agrees ~gen_seed ~decisions ~run_seed));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make
         ~name:"act_run agrees with the reference engine" ~count:150 seeds
         (fun (gen_seed, decisions, run_seed) ->
           act_run_agrees ~gen_seed ~decisions ~run_seed));
  ]

let () =
  Alcotest.run "activity"
    [
      ("engine", engine_tests);
      ("translation", translation_tests);
      ("conformance", conformance_tests);
      ("reference", reference_tests);
    ]
