(* Differential tests for the compiled execution core: the
   integer-indexed Petri engine (Petri.Compiled / Analysis.exploration)
   must agree exactly with the string-keyed reference BFS
   (Oracles.Petri_ref.reachable), and the memoized ASL compilation
   must leave engine traces byte-identical. *)

let tc name f = Alcotest.test_case name `Quick f
let check = Alcotest.check

(* ------------------------------------------------------------------ *)
(* Seeded random nets (deliberately including unbounded and dead-end
   shapes: source transitions, weight-2 arcs, unreachable tokens) *)

let random_net_and_marking seed =
  let rng = Workload.Prng.create seed in
  let np = Workload.Prng.range rng 1 6 in
  let nt = Workload.Prng.range rng 1 8 in
  let place i = Printf.sprintf "p%d" i in
  let places = List.init np (fun i -> Petri.Net.place (place i)) in
  let transitions =
    List.init nt (fun i -> Petri.Net.transition (Printf.sprintf "t%d" i))
  in
  let arcs =
    List.concat_map
      (fun i ->
        let tn = Printf.sprintf "t%d" i in
        let pre =
          List.init (Workload.Prng.int rng 3) (fun _ ->
              Petri.Net.P_to_t
                ( place (Workload.Prng.int rng np),
                  tn,
                  Workload.Prng.range rng 1 2 ))
        in
        let post =
          List.init (Workload.Prng.int rng 3) (fun _ ->
              Petri.Net.T_to_p
                ( tn,
                  place (Workload.Prng.int rng np),
                  Workload.Prng.range rng 1 2 ))
        in
        pre @ post)
      (List.init nt (fun i -> i))
  in
  let net = Petri.Net.make places transitions arcs in
  let m0 =
    Petri.Marking.of_list
      (List.filter_map
         (fun i ->
           let n = Workload.Prng.int rng 3 in
           if n = 0 then None else Some (place i, n))
         (List.init np (fun i -> i)))
  in
  (net, m0)

let activity_net seed =
  let act =
    Workload.Gen_activity.with_decisions ~seed ~size:12 ~max_width:3
  in
  Activity.Translate.to_petri act

(* Reference derivations, replicating the historical per-query code on
   top of the reference BFS. *)
let reference_bound (r : Petri.Analysis.reach_result) =
  if r.Petri.Analysis.truncated then None
  else
    let max_place m =
      List.fold_left (fun acc (_, n) -> max acc n) 0 (Petri.Marking.to_list m)
    in
    Some
      (List.fold_left
         (fun acc m -> max acc (max_place m))
         0 r.Petri.Analysis.markings)

let reference_deadlock_free (r : Petri.Analysis.reach_result) =
  if r.Petri.Analysis.truncated && r.Petri.Analysis.deadlocks = [] then None
  else Some (r.Petri.Analysis.deadlocks = [])

let reference_dead net (r : Petri.Analysis.reach_result) =
  let module S = Set.Make (String) in
  let fired =
    List.fold_left
      (fun acc m ->
        List.fold_left
          (fun acc tn -> S.add tn.Petri.Net.tn_id acc)
          acc
          (Petri.Marking.enabled_transitions net m))
      S.empty r.Petri.Analysis.markings
  in
  List.filter_map
    (fun tn ->
      if S.mem tn.Petri.Net.tn_id fired then None
      else Some tn.Petri.Net.tn_id)
    net.Petri.Net.transitions

let markings_equal a b =
  List.length a = List.length b && List.for_all2 Petri.Marking.equal a b

let agree ~limit net m0 =
  let ref_r = Oracles.Petri_ref.reachable ~limit net m0 in
  let r = Petri.Analysis.reachable ~limit net m0 in
  let s = Petri.Analysis.summary (Petri.Analysis.exploration ~limit net m0) in
  r.Petri.Analysis.state_count = ref_r.Petri.Analysis.state_count
  && r.Petri.Analysis.truncated = ref_r.Petri.Analysis.truncated
  && markings_equal r.Petri.Analysis.markings ref_r.Petri.Analysis.markings
  && markings_equal r.Petri.Analysis.deadlocks ref_r.Petri.Analysis.deadlocks
  && s.Petri.Analysis.sum_state_count = ref_r.Petri.Analysis.state_count
  && s.Petri.Analysis.sum_truncated = ref_r.Petri.Analysis.truncated
  && markings_equal s.Petri.Analysis.sum_deadlocks
       ref_r.Petri.Analysis.deadlocks
  && s.Petri.Analysis.sum_bound = reference_bound ref_r
  && s.Petri.Analysis.sum_deadlock_free = reference_deadlock_free ref_r
  && s.Petri.Analysis.sum_dead_transitions = reference_dead net ref_r

(* One exploration to [limit], asked at every limit in [limits]: each
   answer must be what a separate exploration (the reference BFS, or
   Karp–Miller itself) at that limit gives. *)
let prefix_agrees ~limit net m0 =
  let ex = Petri.Analysis.exploration ~limit net m0 in
  let n = (Petri.Analysis.summary ex).Petri.Analysis.sum_state_count in
  let limits =
    List.sort_uniq compare
      (List.filter
         (fun l -> l >= 1 && l <= limit)
         [ 1; 2; 3; n / 2; n - 1; n; n + 1; limit - 1; limit ])
  in
  List.for_all
    (fun l ->
      let s = Petri.Analysis.summary ~limit:l ex in
      let ref_r = Oracles.Petri_ref.reachable ~limit:l net m0 in
      s.Petri.Analysis.sum_state_count = ref_r.Petri.Analysis.state_count
      && s.Petri.Analysis.sum_truncated = ref_r.Petri.Analysis.truncated
      && markings_equal s.Petri.Analysis.sum_deadlocks
           ref_r.Petri.Analysis.deadlocks
      && s.Petri.Analysis.sum_bound = reference_bound ref_r
      && s.Petri.Analysis.sum_deadlock_free = reference_deadlock_free ref_r
      && s.Petri.Analysis.sum_dead_transitions = reference_dead net ref_r
      && Petri.Analysis.coverability ~limit:l ex
         = Petri.Coverability.analyse ~limit:l net m0
      && Petri.Coverability.verdict (Petri.Analysis.coverability ~limit:l ex)
         = Petri.Coverability.is_bounded ~limit:l net m0)
    limits

let petri_differential_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make
         ~name:"answers at every limit = a separate exploration there"
         ~count:150
         QCheck.(int_range 1 100_000)
         (fun seed ->
           let net, m0 = random_net_and_marking seed in
           prefix_agrees ~limit:120 net m0));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make
         ~name:"answers at every limit = a separate exploration there \
                (activity translations)"
         ~count:40
         QCheck.(int_range 1 10_000)
         (fun seed ->
           let net, m0 = activity_net seed in
           prefix_agrees ~limit:600 net m0));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make
         ~name:"compiled = reference on random nets (reach/bound/dead)"
         ~count:150
         QCheck.(int_range 1 100_000)
         (fun seed ->
           let net, m0 = random_net_and_marking seed in
           agree ~limit:400 net m0));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make
         ~name:"compiled = reference on activity translations" ~count:40
         QCheck.(int_range 1 10_000)
         (fun seed ->
           let net, m0 = activity_net seed in
           agree ~limit:4096 net m0));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make
         ~name:"replayed occurrence sequences agree marking-for-marking"
         ~count:100
         QCheck.(int_range 1 100_000)
         (fun seed ->
           let net, m0 = random_net_and_marking seed in
           let labels =
             Oracles.Petri_ref.random_occurrence_sequence ~seed ~max_steps:60 net
               m0
           in
           let c = Petri.Compiled.of_net net in
           let cm0, residue = Petri.Compiled.split c m0 in
           let rec replay rm cm = function
             | [] -> Some (rm, cm)
             | label :: rest -> (
               match
                 ( Petri.Marking.fire net rm label,
                   Petri.Compiled.fire_by_id c cm label )
               with
               | Some rm', Some cm' -> replay rm' cm' rest
               | Some _, None | None, Some _ | None, None -> None)
           in
           match replay m0 cm0 labels with
           | None -> false (* both engines must accept the whole replay *)
           | Some (rm, cm) ->
             Petri.Marking.equal rm (Petri.Compiled.export c residue cm)));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make
         ~name:"coverability verdict consistent with reachability" ~count:40
         QCheck.(int_range 1 100_000)
         (fun seed ->
           let net, m0 = random_net_and_marking seed in
           let r = Oracles.Petri_ref.reachable ~limit:2000 net m0 in
           match Petri.Coverability.is_bounded ~limit:50_000 net m0 with
           | Some false ->
             (* unbounded nets must overflow plain reachability *)
             r.Petri.Analysis.truncated
           | Some true ->
             (* Karp-Miller termination without omega: the reachable
                set is finite, though it may exceed our small limit *)
             true
           | None -> true));
  ]

let petri_unit_tests =
  [
    tc "frontier holds no duplicates at the limit boundary" (fun () ->
        (* p -t-> p (self-loop): one reachable marking.  The historical
           engine enqueued the successor unconditionally, so limit=1
           reported truncation on a fully explored space. *)
        let net =
          Petri.Net.make
            [ Petri.Net.place "p" ]
            [ Petri.Net.transition "t" ]
            [ Petri.Net.P_to_t ("p", "t", 1); Petri.Net.T_to_p ("t", "p", 1) ]
        in
        let m0 = Petri.Marking.of_list [ ("p", 1) ] in
        let r = Petri.Analysis.reachable ~limit:1 net m0 in
        check Alcotest.bool "not truncated" false r.Petri.Analysis.truncated;
        check Alcotest.int "one state" 1 r.Petri.Analysis.state_count;
        let r_ref = Oracles.Petri_ref.reachable ~limit:1 net m0 in
        check Alcotest.bool "reference agrees" false
          r_ref.Petri.Analysis.truncated);
    tc "marking survives the compiled round-trip" (fun () ->
        let net, _m0 = random_net_and_marking 7 in
        let c = Petri.Compiled.of_net net in
        let m =
          Petri.Marking.of_list [ ("p0", 2); ("alien", 5); ("ghost", 1) ]
        in
        let cm, residue = Petri.Compiled.split c m in
        check Alcotest.bool "round-trip" true
          (Petri.Marking.equal m (Petri.Compiled.export c residue cm)));
    tc "fire_by_id rejects unknown transitions" (fun () ->
        let net, m0 = random_net_and_marking 3 in
        let c = Petri.Compiled.of_net net in
        let cm0, _residue = Petri.Compiled.split c m0 in
        check Alcotest.bool "unknown" true
          (Petri.Compiled.fire_by_id c cm0 "no_such_transition" = None));
  ]

(* ------------------------------------------------------------------ *)
(* Fault-campaign Petri runs against [Oracles.Net_run_ref], the
   string-keyed loop they replaced.  Initial markings may hold residue
   places the net does not know; faults hit net places (empty ones
   included), residue places and unknown names.                        *)

let net_campaign seed =
  let net, m0 = random_net_and_marking seed in
  let rng = Workload.Prng.create (seed + 1) in
  let residue =
    List.filter
      (fun _ -> Workload.Prng.bool rng)
      [ ("a_residue", 1); ("q_residue", 2) ]
  in
  let m0 = Petri.Marking.of_list (Petri.Marking.to_list m0 @ residue) in
  let targets =
    Array.of_list
      (List.map (fun p -> p.Petri.Net.pl_id) net.Petri.Net.places
      @ List.map fst residue
      @ [ "a_ghost"; "p_ghost"; "z_ghost" ])
  in
  let fault () =
    let place = targets.(Workload.Prng.int rng (Array.length targets)) in
    let step = Workload.Prng.int rng 12 in
    if Workload.Prng.bool rng then
      Fault.Plan.Lose_token { lt_place = place; lt_step = step }
    else Fault.Plan.Dup_token { dt_place = place; dt_step = step }
  in
  let spec =
    {
      Fault.Campaign.np_net = net;
      np_marking = m0;
      np_choice_seed = seed;
      np_max_steps = Workload.Prng.range rng 4 40;
    }
  in
  let fault_set () =
    List.init (Workload.Prng.range rng 1 3) (fun _ -> fault ())
  in
  (spec, List.init 4 (fun _ -> fault_set ()))

let net_run_agrees seed =
  let spec, fault_sets = net_campaign seed in
  let golden = Fault.Campaign.net_run spec [] in
  let golden_ref = Oracles.Net_run_ref.net_run spec [] in
  let agrees faults =
    let reg = Telemetry.Metrics.create () in
    let reg_ref = Telemetry.Metrics.create () in
    let r = Fault.Campaign.net_run ~metrics:reg spec faults in
    let r_ref = Oracles.Net_run_ref.net_run ~metrics:reg_ref spec faults in
    (* the production run against the oracle trace's projection *)
    r.Fault.Campaign.nr_final = r_ref.Oracles.Net_run_ref.nr_final
    && r.Fault.Campaign.nr_deadlocked = r_ref.Oracles.Net_run_ref.nr_deadlocked
    && r.Fault.Campaign.nr_truncated = r_ref.Oracles.Net_run_ref.nr_truncated
    && Telemetry.Metrics.report reg = Telemetry.Metrics.report reg_ref
    && Fault.Campaign.classify_net spec ~golden r
       = Oracles.Net_run_ref.classify_net spec ~golden:golden_ref r_ref
  in
  agrees [] && List.for_all agrees fault_sets

(* The whole campaign, sequential and sharded: each Petri run's outcome
   must be the reference loop's, classified by the reference. *)
let campaign_agrees pool seed =
  let spec, fault_sets = net_campaign seed in
  let faults = List.concat fault_sets in
  let golden = Oracles.Net_run_ref.net_run spec [] in
  let expected =
    List.map
      (fun f ->
        Oracles.Net_run_ref.classify_net spec ~golden
          (Oracles.Net_run_ref.net_run spec [ f ]))
      faults
  in
  let plan =
    {
      Fault.Plan.seed;
      faults = List.map (fun f -> Fault.Plan.F_token f) faults;
    }
  in
  let report = Fault.Campaign.run ~pool ~net:spec ~label:"net" plan in
  List.map
    (fun r -> r.Fault.Campaign.run_outcome)
    report.Fault.Campaign.rp_runs
  = expected

let net_run_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"net_run = the string-keyed reference loop"
         ~count:200
         QCheck.(int_range 1 100_000)
         net_run_agrees);
    tc "campaign Petri outcomes = the reference, at jobs 1 and 3"
      (fun () ->
        List.iter
          (fun jobs ->
            Exec.Pool.with_pool ~jobs (fun pool ->
                for i = 0 to 59 do
                  let seed = 1 + (i * 1663) in
                  check Alcotest.bool
                    (Printf.sprintf "seed %d, jobs %d" seed jobs)
                    true (campaign_agrees pool seed)
                done))
          [ 1; 3 ]);
  ]

(* ------------------------------------------------------------------ *)
(* ASL compilation: memo behavior and guard differential              *)

let asl_tests =
  [
    tc "guard memo returns the same compiled value" (fun () ->
        let src = "1 + 2 * 3 > 4 and not (5 < 2)" in
        check Alcotest.bool "physically equal" true
          (Asl.Compiled.guard src == Asl.Compiled.guard src));
    tc "program memo returns the same compiled value" (fun () ->
        let src = "var x := 1; x := x + 1; return x;" in
        check Alcotest.bool "physically equal" true
          (Asl.Compiled.program src == Asl.Compiled.program src));
    tc "parse errors stay latent until evaluation" (fun () ->
        let g = Asl.Compiled.guard "1 +" in
        let interp = Asl.Interp.create (Asl.Store.create ()) in
        match Asl.Interp.eval_guard_compiled interp g with
        | _b -> Alcotest.fail "expected Runtime_error"
        | exception Asl.Interp.Runtime_error _ -> ());
    tc "memo tables are LRU-bounded" (fun () ->
        let cap0 = Asl.Compiled.memo_cap () in
        Fun.protect
          ~finally:(fun () ->
            Asl.Compiled.set_memo_cap cap0;
            Asl.Compiled.clear_memo ())
          (fun () ->
            Asl.Compiled.clear_memo ();
            Asl.Compiled.set_memo_cap 8;
            for i = 0 to 19 do
              ignore (Asl.Compiled.guard (Printf.sprintf "memo_x > %d" i))
            done;
            let s = Asl.Compiled.memo_stats () in
            check Alcotest.int "resident entries capped" 8
              s.Asl.Compiled.st_guards;
            check Alcotest.int "cap reported" 8 s.Asl.Compiled.st_cap;
            (* LRU, not FIFO: touch the oldest survivor, insert one more,
               and the touched entry must outlive the eviction *)
            let touched = Asl.Compiled.guard "memo_x > 12" in
            ignore (Asl.Compiled.guard "memo_x > 20");
            check Alcotest.bool "recently-touched entry survives" true
              (touched == Asl.Compiled.guard "memo_x > 12")));
    tc "memo stats count hits, misses and evictions" (fun () ->
        let cap0 = Asl.Compiled.memo_cap () in
        Fun.protect
          ~finally:(fun () ->
            Asl.Compiled.set_memo_cap cap0;
            Asl.Compiled.clear_memo ())
          (fun () ->
            Asl.Compiled.clear_memo ();
            Asl.Compiled.set_memo_cap 4;
            let s0 = Asl.Compiled.memo_stats () in
            ignore (Asl.Compiled.guard "memo_stats_probe > 0");
            let s1 = Asl.Compiled.memo_stats () in
            check Alcotest.int "first lookup is a miss"
              (s0.Asl.Compiled.st_misses + 1) s1.Asl.Compiled.st_misses;
            ignore (Asl.Compiled.guard "memo_stats_probe > 0");
            let s2 = Asl.Compiled.memo_stats () in
            check Alcotest.int "second lookup is a hit"
              (s1.Asl.Compiled.st_hits + 1) s2.Asl.Compiled.st_hits;
            for i = 0 to 9 do
              ignore (Asl.Compiled.guard (Printf.sprintf "memo_churn > %d" i))
            done;
            let s3 = Asl.Compiled.memo_stats () in
            check Alcotest.bool "evictions counted" true
              (s3.Asl.Compiled.st_evictions
               >= s2.Asl.Compiled.st_evictions + 6);
            (* counters are lifetime: clearing drops entries, not tallies *)
            Asl.Compiled.clear_memo ();
            let s4 = Asl.Compiled.memo_stats () in
            check Alcotest.int "clear drops residency" 0
              s4.Asl.Compiled.st_guards;
            check Alcotest.int "clear keeps counters"
              s3.Asl.Compiled.st_misses s4.Asl.Compiled.st_misses));
    tc "shrinking the cap evicts immediately; cap below 1 is rejected"
      (fun () ->
        let cap0 = Asl.Compiled.memo_cap () in
        Fun.protect
          ~finally:(fun () ->
            Asl.Compiled.set_memo_cap cap0;
            Asl.Compiled.clear_memo ())
          (fun () ->
            Asl.Compiled.clear_memo ();
            Asl.Compiled.set_memo_cap 8;
            for i = 0 to 7 do
              ignore (Asl.Compiled.program (Printf.sprintf "return %d;" i))
            done;
            Asl.Compiled.set_memo_cap 3;
            let s = Asl.Compiled.memo_stats () in
            check Alcotest.int "programs evicted down to the new cap" 3
              s.Asl.Compiled.st_programs;
            check Alcotest.int "new cap in force" 3
              (Asl.Compiled.memo_cap ());
            match Asl.Compiled.set_memo_cap 0 with
            | () -> Alcotest.fail "expected Invalid_argument"
            | exception Invalid_argument _ -> ()));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make
         ~name:"eval_guard = eval_guard_compiled on random comparisons"
         ~count:200
         QCheck.(triple (int_range (-50) 50) (int_range (-50) 50) bool)
         (fun (a, b, conj) ->
           let src =
             Printf.sprintf "%d < %d %s %d * %d >= 0" a b
               (if conj then "and" else "or")
               a b
           in
           let reference = Oracles.Asl_interp_ref.create (Asl.Store.create ()) in
           let interp = Asl.Interp.create (Asl.Store.create ()) in
           Oracles.Asl_interp_ref.eval_guard reference src
           = Asl.Interp.eval_guard_compiled interp (Asl.Compiled.guard src)));
  ]

(* ------------------------------------------------------------------ *)
(* Engine trace determinism under precompilation                      *)

let statechart_trace sm events =
  let engine = Statechart.Engine.create sm in
  Statechart.Engine.start engine;
  List.iter
    (fun name -> Statechart.Engine.dispatch engine (Statechart.Event.make name))
    events;
  String.concat "\n"
    (List.map Statechart.Engine.show_step_record
       (Statechart.Engine.trace engine))

let engine_tests =
  [
    tc "statechart trace is byte-identical across cold and warm memo"
      (fun () ->
        let sm =
          Workload.Gen_statechart.hierarchical ~seed:21 ~depth:3 ~breadth:2
            ~events:4
        in
        let events =
          Workload.Gen_statechart.event_sequence ~seed:21 ~length:300 4
        in
        (* first run parses and fills the memo; the second runs entirely
           on memoized compiled behaviors *)
        let cold = statechart_trace sm events in
        let warm = statechart_trace sm events in
        check Alcotest.string "byte-identical" cold warm;
        check Alcotest.bool "non-trivial trace" true
          (String.length cold > 100));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make
         ~name:"activity runs stay conforming under compiled replay"
         ~count:40
         QCheck.(int_range 1 10_000)
         (fun seed ->
           let act =
             Workload.Gen_activity.with_decisions ~seed ~size:12 ~max_width:3
           in
           let r = Oracles.Conform.run_and_check ~seed act in
           r.Oracles.Conform.conforms));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"activity engine runs are replayable" ~count:40
         QCheck.(int_range 1 10_000)
         (fun seed ->
           let act =
             Workload.Gen_activity.series_parallel ~seed ~size:10 ~max_width:3
           in
           let run () =
             let e = Activity.Exec.create act in
             Activity.Exec.run ~seed e
           in
           run () = run ()));
  ]

let () =
  Alcotest.run "compiled"
    [
      ("petri-differential", petri_differential_tests);
      ("petri-unit", petri_unit_tests);
      ("net-run", net_run_tests);
      ("asl", asl_tests);
      ("engines", engine_tests);
    ]
