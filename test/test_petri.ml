(* Tests for the Petri net substrate: firing rule, reachability,
   deadlocks, bounds, invariants. *)

let tc name f = Alcotest.test_case name `Quick f
let check = Alcotest.check

(* p1 -t1-> p2 -t2-> p1   (a live, 1-bounded cycle) *)
let cycle_net () =
  Petri.Net.make
    [ Petri.Net.place "p1"; Petri.Net.place "p2" ]
    [ Petri.Net.transition "t1"; Petri.Net.transition "t2" ]
    [
      Petri.Net.P_to_t ("p1", "t1", 1);
      Petri.Net.T_to_p ("t1", "p2", 1);
      Petri.Net.P_to_t ("p2", "t2", 1);
      Petri.Net.T_to_p ("t2", "p1", 1);
    ]

(* producer/consumer with weight-2 consumption *)
let weighted_net () =
  Petri.Net.make
    [ Petri.Net.place "buf"; Petri.Net.place "done" ]
    [ Petri.Net.transition "produce"; Petri.Net.transition "consume2" ]
    [
      Petri.Net.T_to_p ("produce", "buf", 1);
      Petri.Net.P_to_t ("buf", "consume2", 2);
      Petri.Net.T_to_p ("consume2", "done", 1);
    ]

let structure_tests =
  [
    tc "make rejects unknown places" (fun () ->
        match
          Petri.Net.make [] [ Petri.Net.transition "t" ]
            [ Petri.Net.P_to_t ("ghost", "t", 1) ]
        with
        | _net -> Alcotest.fail "expected Invalid_argument"
        | exception Invalid_argument _ -> ());
    tc "make rejects non-positive weights" (fun () ->
        match
          Petri.Net.make [ Petri.Net.place "p" ] [ Petri.Net.transition "t" ]
            [ Petri.Net.P_to_t ("p", "t", 0) ]
        with
        | _net -> Alcotest.fail "expected Invalid_argument"
        | exception Invalid_argument _ -> ());
    tc "make rejects duplicate ids" (fun () ->
        match
          Petri.Net.make
            [ Petri.Net.place "p"; Petri.Net.place "p" ]
            [] []
        with
        | _net -> Alcotest.fail "expected Invalid_argument"
        | exception Invalid_argument _ -> ());
    tc "pre and post sets" (fun () ->
        let net = cycle_net () in
        check
          (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.int))
          "pre t1" [ ("p1", 1) ] (Petri.Net.pre net "t1");
        check
          (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.int))
          "post t1" [ ("p2", 1) ] (Petri.Net.post net "t1"));
  ]

let marking_tests =
  [
    tc "of_list merges duplicates" (fun () ->
        let m = Petri.Marking.of_list [ ("p", 1); ("p", 2) ] in
        check Alcotest.int "3" 3 (Petri.Marking.tokens m "p"));
    tc "enabled respects weights" (fun () ->
        let net = weighted_net () in
        let m1 = Petri.Marking.of_list [ ("buf", 1) ] in
        let m2 = Petri.Marking.of_list [ ("buf", 2) ] in
        check Alcotest.bool "one token" false
          (Petri.Marking.enabled net m1 "consume2");
        check Alcotest.bool "two tokens" true
          (Petri.Marking.enabled net m2 "consume2"));
    tc "source transition always enabled" (fun () ->
        let net = weighted_net () in
        check Alcotest.bool "produce" true
          (Petri.Marking.enabled net Petri.Marking.empty "produce"));
    tc "fire moves tokens" (fun () ->
        let net = cycle_net () in
        let m0 = Petri.Marking.of_list [ ("p1", 1) ] in
        match Petri.Marking.fire net m0 "t1" with
        | Some m ->
          check Alcotest.int "p1" 0 (Petri.Marking.tokens m "p1");
          check Alcotest.int "p2" 1 (Petri.Marking.tokens m "p2")
        | None -> Alcotest.fail "t1 should fire");
    tc "fire refuses disabled transition" (fun () ->
        let net = cycle_net () in
        check Alcotest.bool "none" true
          (Petri.Marking.fire net Petri.Marking.empty "t1" = None));
    tc "fire_sequence replays" (fun () ->
        let net = cycle_net () in
        let m0 = Petri.Marking.of_list [ ("p1", 1) ] in
        match Petri.Marking.fire_sequence net m0 [ "t1"; "t2"; "t1" ] with
        | Some m -> check Alcotest.int "p2" 1 (Petri.Marking.tokens m "p2")
        | None -> Alcotest.fail "sequence should fire");
    tc "fire_sequence stops on disabled" (fun () ->
        let net = cycle_net () in
        let m0 = Petri.Marking.of_list [ ("p1", 1) ] in
        check Alcotest.bool "none" true
          (Petri.Marking.fire_sequence net m0 [ "t2" ] = None));
  ]

(* Every per-net answer of one exploration. *)
let summary ?limit net m0 =
  Petri.Analysis.summary (Petri.Analysis.exploration ?limit net m0)

let analysis_tests =
  [
    tc "cycle has two reachable markings" (fun () ->
        let net = cycle_net () in
        let r =
          Petri.Analysis.reachable net (Petri.Marking.of_list [ ("p1", 1) ])
        in
        check Alcotest.int "two" 2 r.Petri.Analysis.state_count;
        check Alcotest.bool "no deadlock" true (r.Petri.Analysis.deadlocks = []));
    tc "deadlock detected" (fun () ->
        (* p -t-> (nothing): after t the net is dead *)
        let net =
          Petri.Net.make [ Petri.Net.place "p" ] [ Petri.Net.transition "t" ]
            [ Petri.Net.P_to_t ("p", "t", 1) ]
        in
        let r =
          Petri.Analysis.reachable net (Petri.Marking.of_list [ ("p", 1) ])
        in
        check Alcotest.int "one deadlock" 1
          (List.length r.Petri.Analysis.deadlocks);
        check Alcotest.bool "flagged" true
          ((summary net (Petri.Marking.of_list [ ("p", 1) ]))
             .Petri.Analysis.sum_deadlock_free
          = Some false));
    tc "cycle is 1-bounded" (fun () ->
        let net = cycle_net () in
        check Alcotest.bool "bound 1" true
          ((summary net (Petri.Marking.of_list [ ("p1", 1) ]))
             .Petri.Analysis.sum_bound
          = Some 1);
        check Alcotest.bool "1-bounded" true
          (Option.map
             (fun b -> b <= 1)
             (summary net (Petri.Marking.of_list [ ("p1", 1) ]))
               .Petri.Analysis.sum_bound
          = Some true));
    tc "unbounded net hits the limit" (fun () ->
        let net = weighted_net () in
        let r =
          Petri.Analysis.reachable ~limit:50 net Petri.Marking.empty
        in
        check Alcotest.bool "truncated" true r.Petri.Analysis.truncated;
        check Alcotest.bool "bound unknown" true
          ((summary ~limit:50 net Petri.Marking.empty).Petri.Analysis.sum_bound
          = None));
    tc "dead transitions reported" (fun () ->
        let net = cycle_net () in
        let dead =
          (summary net Petri.Marking.empty).Petri.Analysis.sum_dead_transitions
        in
        check Alcotest.int "both dead (no tokens)" 2 (List.length dead);
        let live =
          (summary net (Petri.Marking.of_list [ ("p1", 1) ]))
            .Petri.Analysis.sum_dead_transitions
        in
        check Alcotest.int "none dead" 0 (List.length live));
    tc "random occurrence sequence is valid" (fun () ->
        let net = cycle_net () in
        let m0 = Petri.Marking.of_list [ ("p1", 1) ] in
        let seq =
          Oracles.Petri_ref.random_occurrence_sequence ~seed:7 ~max_steps:20 net
            m0
        in
        check Alcotest.int "length" 20 (List.length seq);
        check Alcotest.bool "replayable" true
          (Petri.Marking.fire_sequence net m0 seq <> None));
  ]

let invariant_tests =
  [
    tc "incidence of the cycle" (fun () ->
        let c = Petri.Invariant.incidence (cycle_net ()) in
        check Alcotest.int "p1/t1" (-1) c.(0).(0);
        check Alcotest.int "p1/t2" 1 c.(0).(1);
        check Alcotest.int "p2/t1" 1 c.(1).(0);
        check Alcotest.int "p2/t2" (-1) c.(1).(1));
    tc "cycle has the token-conservation P-invariant" (fun () ->
        let invs = Petri.Invariant.p_invariants (cycle_net ()) in
        check Alcotest.int "one" 1 (List.length invs);
        match invs with
        | [ inv ] ->
          check Alcotest.bool "checks" true
            (Petri.Invariant.check_p_invariant (cycle_net ()) inv);
          check Alcotest.int "p1+p2 value" 1
            (Petri.Invariant.invariant_value inv
               (Petri.Marking.of_list [ ("p1", 1) ]))
        | _other -> Alcotest.fail "one invariant expected");
    tc "cycle has a T-invariant (t1 t2)" (fun () ->
        match Petri.Invariant.t_invariants (cycle_net ()) with
        | [ inv ] ->
          check Alcotest.bool "t1=t2" true
            (List.assoc_opt "t1" inv = List.assoc_opt "t2" inv)
        | _other -> Alcotest.fail "one T-invariant expected");
    tc "weighted net has no P-invariant" (fun () ->
        check Alcotest.int "none" 0
          (List.length (Petri.Invariant.p_invariants (weighted_net ()))));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make
         ~name:"P-invariant value is constant along occurrence sequences"
         ~count:50
         QCheck.(int_range 1 10_000)
         (fun seed ->
           let net = cycle_net () in
           let m0 = Petri.Marking.of_list [ ("p1", 1) ] in
           match Petri.Invariant.p_invariants net with
           | [ inv ] ->
             let v0 = Petri.Invariant.invariant_value inv m0 in
             let seq =
               Oracles.Petri_ref.random_occurrence_sequence ~seed ~max_steps:30
                 net m0
             in
             let rec walk m = function
               | [] -> true
               | t :: rest -> (
                 match Petri.Marking.fire net m t with
                 | Some m' ->
                   Petri.Invariant.invariant_value inv m' = v0 && walk m' rest
                 | None -> false)
             in
             walk m0 seq
           | _other -> false));
  ]

let coverability_tests =
  [
    tc "bounded cycle is recognized as bounded" (fun () ->
        let net = cycle_net () in
        check Alcotest.bool "bounded" true
          (Petri.Coverability.is_bounded net
             (Petri.Marking.of_list [ ("p1", 1) ])
          = Some true));
    tc "producer net is recognized as unbounded" (fun () ->
        let net = weighted_net () in
        let r = Petri.Coverability.analyse net Petri.Marking.empty in
        check Alcotest.bool "unbounded" true (r.Petri.Coverability.unbounded_places <> []);
        check Alcotest.bool "buf grows" true
          (List.mem "buf" r.Petri.Coverability.unbounded_places);
        check Alcotest.bool "verdict" true
          (Petri.Coverability.is_bounded net Petri.Marking.empty
          = Some false));
    tc "done place of the producer also diverges" (fun () ->
        let net = weighted_net () in
        let r = Petri.Coverability.analyse net Petri.Marking.empty in
        check Alcotest.bool "done too" true
          (List.mem "done" r.Petri.Coverability.unbounded_places));
    tc "empty net is bounded" (fun () ->
        let net = Petri.Net.make [ Petri.Net.place "p" ] [] [] in
        check Alcotest.bool "bounded" true
          (Petri.Coverability.is_bounded net
             (Petri.Marking.of_list [ ("p", 3) ])
          = Some true));
    tc "covers respects omega" (fun () ->
        let om = [ ("a", Petri.Coverability.Omega); ("b", Petri.Coverability.Fin 2) ] in
        check Alcotest.bool "covered" true
          (Petri.Coverability.covers om
             (Petri.Marking.of_list [ ("a", 99); ("b", 2) ]));
        check Alcotest.bool "not covered" false
          (Petri.Coverability.covers om
             (Petri.Marking.of_list [ ("b", 3) ])));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make
         ~name:"coverability agrees with reachability on bounded nets"
         ~count:25
         QCheck.(int_range 1 5000)
         (fun seed ->
           (* activity translations with decisions are 1-bounded; keep
              the workloads small enough that the coverability set fits
              well inside the node limit for every shape *)
           let act =
             Workload.Gen_activity.with_decisions ~seed ~size:8 ~max_width:2
           in
           let net, m0 = Activity.Translate.to_petri act in
           Petri.Coverability.is_bounded ~limit:50_000 net m0 = Some true));
  ]

let () =
  Alcotest.run "petri"
    [
      ("structure", structure_tests);
      ("marking", marking_tests);
      ("analysis", analysis_tests);
      ("invariants", invariant_tests);
      ("coverability", coverability_tests);
    ]
