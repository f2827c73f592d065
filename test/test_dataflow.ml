(* Tests for the dataflow static-analysis tier: CFG lowering, the
   abstract-interpretation engine, the three passes (ASL, event-flow,
   netlist clock/reset) and their lint integration.  Every new rule
   (DF-01..DF-06, HDL-12, HDL-13) gets a positive and a negative
   fixture. *)

open Uml

let tc name f = Alcotest.test_case name `Quick f

let parse src =
  match Asl.Compiled.program_result (Asl.Compiled.program src) with
  | Ok prog -> prog
  | Error msg -> Alcotest.failf "fixture %S does not parse: %s" src msg

let codes diags =
  List.sort_uniq compare
    (List.map (fun (d : Wfr.diagnostic) -> d.Wfr.diag_rule) diags)

let has code diags = List.mem code (codes diags)

let check_has src_desc code diags =
  Alcotest.(check bool)
    (Printf.sprintf "%s fires %s" src_desc code)
    true (has code diags)

let check_not src_desc code diags =
  Alcotest.(check bool)
    (Printf.sprintf "%s does not fire %s" src_desc code)
    false (has code diags)

(* --- model fixtures ---------------------------------------------------- *)

(* A two-state machine whose only behaviors are the given guard/effect
   on the a->b transition; no sends, so the event-flow pass stays
   silent and the ASL findings are isolated. *)
let machine_model ?guard ?effect () =
  Ident.reset_counter ();
  let m = Model.create "fixture" in
  let a = Smachine.simple_state "A" in
  let b = Smachine.simple_state "B" in
  let init = Smachine.pseudostate Smachine.Initial in
  let region =
    Smachine.region
      [ Smachine.Pseudo init; Smachine.State a; Smachine.State b ]
      [
        Smachine.transition ~source:init.Smachine.ps_id
          ~target:a.Smachine.st_id ();
        Smachine.transition
          ~triggers:[ Smachine.Signal_trigger "step" ]
          ?guard ?effect ~source:a.Smachine.st_id ~target:b.Smachine.st_id ();
      ]
  in
  Model.add m (Model.E_state_machine (Smachine.make "M" [ region ]));
  m

let effect_diags effect =
  Lint.Df_pass.check_model (machine_model ~effect ())

let guard_diags guard = Lint.Df_pass.check_model (machine_model ~guard ())

(* An initial -> first -> second -> final activity with the two action
   bodies supplied in node-list order (first_listed appears first in
   [ac_nodes]) but token order second_listed-is-first when [reversed]. *)
let activity_model ~reversed body_x body_y =
  Ident.reset_counter ();
  let m = Model.create "fixture" in
  let ax = Activityg.action ~body:body_x "ax" in
  let ay = Activityg.action ~body:body_y "ay" in
  let start = Activityg.initial () in
  let stop = Activityg.activity_final () in
  let e a b =
    Activityg.edge ~source:(Activityg.node_id a) ~target:(Activityg.node_id b)
      ()
  in
  let edges =
    if reversed then [ e start ay; e ay ax; e ax stop ]
    else [ e start ax; e ax ay; e ay stop ]
  in
  Model.add m
    (Model.E_activity (Activityg.make "Act" [ start; ax; ay; stop ] edges));
  m

(* --- CFG --------------------------------------------------------------- *)

let cfg_tests =
  [
    tc "straight line links entry to exit" (fun () ->
        let cfg = Dataflow.Cfg.of_program (parse "x := 1; y := x;") in
        let r = Dataflow.Absint.analyze cfg in
        Alcotest.(check bool) "all reachable" true
          (Array.for_all (fun b -> b) r.Dataflow.Absint.res_reachable));
    tc "branch successors are positional [then; else]" (fun () ->
        let cfg =
          Dataflow.Cfg.of_program
            (parse "if e1 > 0 then x := 1; else x := 2; end;")
        in
        let branch =
          Array.to_list cfg.Dataflow.Cfg.nodes
          |> List.filter (fun (n : Dataflow.Cfg.node) ->
                 match n.Dataflow.Cfg.n_kind with
                 | Dataflow.Cfg.Branch _ -> true
                 | Dataflow.Cfg.Entry | Dataflow.Cfg.Exit | Dataflow.Cfg.Nop
                 | Dataflow.Cfg.Stmt _ | Dataflow.Cfg.For_head _ ->
                   false)
        in
        match branch with
        | [ b ] ->
          Alcotest.(check int) "two successors" 2
            (List.length b.Dataflow.Cfg.n_succs)
        | other ->
          Alcotest.failf "expected exactly one Branch node, got %d"
            (List.length other));
    tc "statements after return are unlinked" (fun () ->
        let cfg = Dataflow.Cfg.of_program (parse "return 1; x := 2;") in
        let r = Dataflow.Absint.analyze cfg in
        Alcotest.(check int) "one unreachable region head" 1
          (List.length r.Dataflow.Absint.res_unreachable));
    tc "expr_vars dedups in first-occurrence order" (fun () ->
        match parse "return a + b * a;" with
        | [ Asl.Ast.Return (Some e) ] ->
          Alcotest.(check (list string))
            "vars" [ "a"; "b" ]
            (Dataflow.Cfg.expr_vars e)
        | _other -> Alcotest.fail "unexpected parse shape");
  ]

(* --- DF-01 use before initialization ----------------------------------- *)

let df01_tests =
  [
    tc "branch-only assignment read after the branch" (fun () ->
        check_has "maybe-uninit read" "DF-01"
          (effect_diags "if e1 > 0 then x := 1; end; y := x; return y;"));
    tc "both-branch assignment is definite" (fun () ->
        check_not "definite read" "DF-01"
          (effect_diags
             "if e1 > 0 then x := 1; else x := 2; end; y := x; return y;"));
    tc "event parameters count as assigned" (fun () ->
        check_not "e1 read" "DF-01" (effect_diags "x := e1 + 1; return x;"));
    tc "cross-action read in token order" (fun () ->
        (* ay (token-first) reads blocks; only ax assigns it.  The
           node-list order ax-then-ay typechecks (ASL-02 silent) — the
           dataflow pass follows the edges instead. *)
        check_has "reversed activity" "DF-01"
          (Lint.Df_pass.check_model
             (activity_model ~reversed:true "blocks := 64;"
                "limit := blocks + 1;")));
    tc "cross-action read in correct order" (fun () ->
        check_not "forward activity" "DF-01"
          (Lint.Df_pass.check_model
             (activity_model ~reversed:false "blocks := 64;"
                "limit := blocks + 1;")));
  ]

(* --- DF-02 dead stores ------------------------------------------------- *)

let df02_tests =
  [
    tc "overwritten before any read" (fun () ->
        check_has "dead first store" "DF-02"
          (effect_diags "x := 1; x := 2; return x;"));
    tc "value read before overwrite" (fun () ->
        check_not "live store" "DF-02"
          (effect_diags "x := 1; y := x; x := 2; return x + y;"));
    tc "activity bindings outlive the action" (fun () ->
        (* ax's binding is read by ay, and even ay's binding stays in
           the shared store (Live_all) — no dead stores either way. *)
        check_not "shared store" "DF-02"
          (Lint.Df_pass.check_model
             (activity_model ~reversed:false "blocks := 64;"
                "limit := blocks + 1;")));
    tc "call stores are never dead" (fun () ->
        check_not "effectful RHS" "DF-02"
          (effect_diags "x := compute(); x := 2; return x;"));
  ]

(* --- DF-03 unreachable under constant folding -------------------------- *)

let df03_tests =
  [
    tc "then branch of a false constant" (fun () ->
        check_has "folded branch" "DF-03"
          (effect_diags "if 1 > 2 then x := 1; else x := 2; end; return x;"));
    tc "statements after return" (fun () ->
        check_has "after return" "DF-03" (effect_diags "return 1; x := 2;"));
    tc "data-dependent branch is live" (fun () ->
        check_not "live branch" "DF-03"
          (effect_diags
             "if e1 > 0 then x := 1; else x := 2; end; return x;"));
    tc "only the region head is reported" (fun () ->
        let diags = effect_diags "return 1; x := 2; y := 3; z := 4;" in
        Alcotest.(check int) "one DF-03" 1
          (List.length
             (List.filter
                (fun (d : Wfr.diagnostic) -> d.Wfr.diag_rule = "DF-03")
                diags)));
  ]

(* --- DF-04 constant guards --------------------------------------------- *)

let df04_tests =
  [
    tc "provably false comparison" (fun () ->
        check_has "1 > 2" "DF-04" (guard_diags "1 > 2"));
    tc "provably true disjunction absorbs unknowns" (fun () ->
        check_has "or-true" "DF-04" (guard_diags "e1 < 0 or 0 < 1"));
    tc "data-dependent guard is silent" (fun () ->
        check_not "e1 > 0" "DF-04" (guard_diags "e1 > 0"));
    tc "division is not folded" (fun () ->
        check_not "division" "DF-04" (guard_diags "1 / 1 > 0"));
  ]

(* --- DF-05 / DF-06 event flow ------------------------------------------ *)

let send_model ~entry ~triggers () =
  Ident.reset_counter ();
  let m = Model.create "fixture" in
  let a = Smachine.simple_state ~entry "A" in
  let b = Smachine.simple_state "B" in
  let init = Smachine.pseudostate Smachine.Initial in
  let region =
    Smachine.region
      [ Smachine.Pseudo init; Smachine.State a; Smachine.State b ]
      [
        Smachine.transition ~source:init.Smachine.ps_id
          ~target:a.Smachine.st_id ();
        Smachine.transition ~triggers ~source:a.Smachine.st_id
          ~target:b.Smachine.st_id ();
      ]
  in
  Model.add m (Model.E_state_machine (Smachine.make "M" [ region ]));
  m

let event_tests =
  [
    tc "emitted but never consumed" (fun () ->
        let m =
          send_model ~entry:"send done(1);"
            ~triggers:[ Smachine.Signal_trigger "go" ]
            ()
        in
        let diags = Lint.Df_pass.check_model m in
        check_has "dead letter" "DF-05" diags;
        check_has "unemitted trigger" "DF-06" diags);
    tc "emitted and consumed is silent" (fun () ->
        let m =
          send_model ~entry:"send go(1);"
            ~triggers:[ Smachine.Signal_trigger "go" ]
            ()
        in
        let diags = Lint.Df_pass.check_model m in
        check_not "matched event" "DF-05" diags;
        check_not "matched trigger" "DF-06" diags);
    tc "any-trigger consumes every event" (fun () ->
        let m =
          send_model ~entry:"send done(1);" ~triggers:[ Smachine.Any_trigger ]
            ()
        in
        check_not "any-trigger" "DF-05" (Lint.Df_pass.check_model m));
    tc "models that emit nothing are externally driven" (fun () ->
        let m =
          send_model ~entry:"x := 1;"
            ~triggers:[ Smachine.Signal_trigger "toggle" ]
            ()
        in
        check_not "no emissions" "DF-06" (Lint.Df_pass.check_model m));
  ]

(* --- HDL-12 / HDL-13 netlist ------------------------------------------- *)

(* A two-domain design: pa (clk_a, reset) feeds a_reg to pb (clk_b).
   [sync] adds a second clk_b flop so pb becomes a 2-FF synchronizer
   head; [init_b]/[reset_b] close the HDL-13 hole. *)
let cdc_design ?(sync = false) ?(init_b = false) ?(reset_b = false) () =
  let b_sig =
    if init_b then Hdl.Module_.signal ~init:0 "b_reg" Hdl.Htype.Bit
    else Hdl.Module_.signal "b_reg" Hdl.Htype.Bit
  in
  let pb_body = [ Hdl.Stmt.Assign ("b_reg", Hdl.Expr.Ref "a_reg") ] in
  let pb =
    if reset_b then
      Hdl.Module_.seq_process ~name:"pb" ~clock:"clk_b"
        ~reset:("rst", [ Hdl.Stmt.Assign ("b_reg", Hdl.Expr.zero) ])
        pb_body
    else Hdl.Module_.seq_process ~name:"pb" ~clock:"clk_b" pb_body
  in
  let tail =
    if sync then
      [
        Hdl.Module_.seq_process ~name:"pb2" ~clock:"clk_b"
          ~reset:("rst", [ Hdl.Stmt.Assign ("b_reg2", Hdl.Expr.zero) ])
          [ Hdl.Stmt.Assign ("b_reg2", Hdl.Expr.Ref "b_reg") ];
        Hdl.Module_.comb_process ~name:"po"
          [ Hdl.Stmt.Assign ("q", Hdl.Expr.Ref "b_reg2") ];
      ]
    else
      [
        Hdl.Module_.comb_process ~name:"po"
          [ Hdl.Stmt.Assign ("q", Hdl.Expr.Ref "b_reg") ];
      ]
  in
  let signals =
    [ Hdl.Module_.signal ~init:0 "a_reg" Hdl.Htype.Bit; b_sig ]
    @ if sync then [ Hdl.Module_.signal "b_reg2" Hdl.Htype.Bit ] else []
  in
  let m =
    Hdl.Module_.make "cdc"
      ~ports:
        [ Hdl.Module_.input "clk_a" Hdl.Htype.Bit;
          Hdl.Module_.input "clk_b" Hdl.Htype.Bit;
          Hdl.Module_.input "rst" Hdl.Htype.Bit;
          Hdl.Module_.input "din" Hdl.Htype.Bit;
          Hdl.Module_.output "q" Hdl.Htype.Bit ]
      ~signals
      ~processes:
        ([ Hdl.Module_.seq_process ~name:"pa" ~clock:"clk_a"
             ~reset:("rst", [ Hdl.Stmt.Assign ("a_reg", Hdl.Expr.zero) ])
             [ Hdl.Stmt.Assign ("a_reg", Hdl.Expr.Ref "din") ];
           pb ]
        @ tail)
  in
  Hdl.Module_.design ~top:"cdc" [ m ]

let single_clock_design () =
  let m =
    Hdl.Module_.make "sc"
      ~ports:
        [ Hdl.Module_.input "clk" Hdl.Htype.Bit;
          Hdl.Module_.input "rst" Hdl.Htype.Bit;
          Hdl.Module_.input "din" Hdl.Htype.Bit;
          Hdl.Module_.output "q" Hdl.Htype.Bit ]
      ~signals:[ Hdl.Module_.signal ~init:0 "r" Hdl.Htype.Bit ]
      ~processes:
        [ Hdl.Module_.seq_process ~name:"p" ~clock:"clk"
            ~reset:("rst", [ Hdl.Stmt.Assign ("r", Hdl.Expr.zero) ])
            [ Hdl.Stmt.Assign ("r", Hdl.Expr.Ref "din") ];
          Hdl.Module_.comb_process ~name:"po"
            [ Hdl.Stmt.Assign ("q", Hdl.Expr.Ref "r") ] ]
  in
  Hdl.Module_.design ~top:"sc" [ m ]

let netlist_tests =
  [
    tc "naked crossing with a comb reader" (fun () ->
        let diags = Lint.Df_pass.check_design (cdc_design ()) in
        check_has "naked CDC" "HDL-12" diags;
        Alcotest.(check bool) "HDL-12 is an error" true
          (List.exists
             (fun (d : Wfr.diagnostic) ->
               d.Wfr.diag_rule = "HDL-12"
               && d.Wfr.diag_severity = Wfr.Error)
             diags));
    tc "2-FF synchronizer head is exempt" (fun () ->
        check_not "synchronized CDC" "HDL-12"
          (Lint.Df_pass.check_design (cdc_design ~sync:true ~reset_b:true ())));
    tc "single-clock design has no crossings" (fun () ->
        check_not "single clock" "HDL-12"
          (Lint.Df_pass.check_design (single_clock_design ())));
    tc "unreset register reaching an output" (fun () ->
        check_has "undefined output" "HDL-13"
          (Lint.Df_pass.check_design (cdc_design ())));
    tc "declared init suppresses HDL-13" (fun () ->
        check_not "initialized" "HDL-13"
          (Lint.Df_pass.check_design (cdc_design ~init_b:true ())));
    tc "reset branch suppresses HDL-13" (fun () ->
        check_not "reset" "HDL-13"
          (Lint.Df_pass.check_design (cdc_design ~reset_b:true ())));
    tc "designs with HDL errors are skipped" (fun () ->
        (* q is never driven: Hdl.Check owns that (HDL-10), the
           dataflow pass must stay out of the way. *)
        let m =
          Hdl.Module_.make "broken"
            ~ports:
              [ Hdl.Module_.input "clk" Hdl.Htype.Bit;
                Hdl.Module_.output "q" Hdl.Htype.Bit ]
        in
        Alcotest.(check int) "no findings" 0
          (List.length
             (Lint.Df_pass.check_design (Hdl.Module_.design ~top:"broken" [ m ]))));
  ]

(* --- lint integration -------------------------------------------------- *)

let integration_tests =
  [
    tc "selection restricts to the DF family" (fun () ->
        let m = machine_model ~guard:"1 > 2" ~effect:"x := 1; x := 2;" () in
        let selection =
          Lint.Rules.selection_of_strings ~only:[ "DF" ] ()
        in
        let diags = Lint.Check.check_model ~selection m in
        Alcotest.(check bool) "only DF codes" true
          (List.for_all
             (fun (d : Wfr.diagnostic) ->
               String.length d.Wfr.diag_rule >= 3
               && String.sub d.Wfr.diag_rule 0 3 = "DF-")
             diags);
        Alcotest.(check bool) "DF-04 still present" true (has "DF-04" diags));
    tc "unknown selectors are reported" (fun () ->
        let selection =
          Lint.Rules.selection_of_strings ~only:[ "DF-99"; "HDL" ]
            ~disabled:[ "BOGUS" ] ()
        in
        Alcotest.(check (list string))
          "typos" [ "BOGUS"; "DF-99" ]
          (List.sort compare (Lint.Rules.unknown_selectors selection)));
    tc "every DF rule is registered" (fun () ->
        List.iter
          (fun code ->
            match Lint.Rules.find code with
            | Some _ -> ()
            | None -> Alcotest.failf "rule %s not registered" code)
          [ "DF-01"; "DF-02"; "DF-03"; "DF-04"; "DF-05"; "DF-06"; "HDL-12";
            "HDL-13" ]);
    tc "telemetry counters record pass volume" (fun () ->
        let metrics = Telemetry.Metrics.create () in
        let m = machine_model ~guard:"1 > 2" ~effect:"x := 1; x := 2;" () in
        let _diags = Lint.Check.check_model ~metrics m in
        let v name =
          Telemetry.Metrics.counter_value
            (Telemetry.Metrics.counter metrics name)
        in
        Alcotest.(check bool) "programs counted" true
          (v "dataflow.asl.programs" > 0);
        Alcotest.(check bool) "guards counted" true
          (v "dataflow.asl.guards" > 0);
        Alcotest.(check bool) "findings counted" true
          (v "dataflow.asl.findings" > 0));
    tc "netlist counters record process volume" (fun () ->
        let metrics = Telemetry.Metrics.create () in
        let _diags =
          Lint.Check.check_design ~metrics (cdc_design ())
        in
        Alcotest.(check int) "two seq processes" 2
          (Telemetry.Metrics.counter_value
             (Telemetry.Metrics.counter metrics
                "dataflow.netlist.seq_processes")));
  ]

(* --- properties -------------------------------------------------------- *)

(* Random ASL programs over a tiny variable pool (the seeded generator
   of [Workload.Gen_asl], QCheck drawing the seed): the analysis must be
   total (never raise) and deterministic (same result on every run). *)
let gen_program_over pool =
  QCheck.Gen.map
    (fun seed -> Workload.Gen_asl.program (Workload.Prng.create seed) ~pool)
    (QCheck.Gen.int_bound 0x3FFFFFFF)

let gen_program = gen_program_over [ "a"; "b"; "c" ]

let analysis_fingerprint (r : Dataflow.Absint.result) =
  ( r.Dataflow.Absint.res_uninit,
    r.Dataflow.Absint.res_dead,
    r.Dataflow.Absint.res_unreachable,
    r.Dataflow.Absint.res_exit_assigned )

let property_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"analysis is total on random programs"
         ~count:500 (QCheck.make gen_program)
         (fun prog ->
           let cfg = Dataflow.Cfg.of_program prog in
           let _r =
             Dataflow.Absint.analyze ~assigned:[ "a" ]
               ~liveout:Dataflow.Absint.Live_all cfg
           in
           true));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"analysis is deterministic" ~count:300
         (QCheck.make gen_program)
         (fun prog ->
           let run () =
             analysis_fingerprint
               (Dataflow.Absint.analyze (Dataflow.Cfg.of_program prog))
           in
           run () = run ()));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"reported lists are sorted" ~count:300
         (QCheck.make gen_program)
         (fun prog ->
           let r = Dataflow.Absint.analyze (Dataflow.Cfg.of_program prog) in
           let sorted l = List.sort compare l = l in
           sorted r.Dataflow.Absint.res_uninit
           && sorted r.Dataflow.Absint.res_dead
           && sorted r.Dataflow.Absint.res_unreachable
           && sorted r.Dataflow.Absint.res_exit_assigned));
  ]

(* --- reference differential ---------------------------------------- *)

(* [Oracles.Absint_ref] is the map-based interpreter the slot-based
   engine replaced; both must return the same [result] record, field
   for field, on every input.  Entry bindings and extra definitions are
   drawn from the program's pool plus names it never mentions (the
   machine environment's, an operation parameter), so the path for
   bound-but-unread names is exercised too. *)
let ref_pool = [ "a"; "b"; "c"; "d"; "e"; "f" ]

let ref_outside = [ "e1"; "event"; "p"; "zz" ]

let gen_reference_case =
  let open QCheck.Gen in
  let names = list_size (int_bound 5) (oneofl (ref_pool @ ref_outside)) in
  quad (gen_program_over ref_pool) names names
    (oneofl [ Dataflow.Absint.Live_none; Dataflow.Absint.Live_all ])

let print_reference_case (prog, assigned, extra_defs, liveout) =
  Printf.sprintf "%s\nassigned=[%s] extra_defs=[%s] liveout=%s"
    (Asl.Ast.show_program prog)
    (String.concat ";" assigned)
    (String.concat ";" extra_defs)
    (match liveout with
     | Dataflow.Absint.Live_none -> "none"
     | Dataflow.Absint.Live_all -> "all")

let agrees_with_reference ~assigned ~extra_defs ~liveout cfg =
  Dataflow.Absint.analyze ~assigned ~extra_defs ~liveout cfg
  = Oracles.Absint_ref.analyze ~assigned ~extra_defs ~liveout cfg

(* The statechart engine's effect environment, as [Asl_flow] binds it. *)
let machine_env =
  [ "e1"; "e2"; "e3"; "e4"; "e5"; "e6"; "e7"; "e8"; "e9"; "event" ]

let asl_heavy_effects seed =
  Ident.reset_counter ();
  let sm = Workload.Gen_statechart.asl_heavy ~seed ~states:12 ~events:6 in
  List.filter_map
    (fun (tr : Smachine.transition) -> tr.Smachine.tr_effect)
    (Smachine.all_transitions sm)

(* A loop that shifts a constant down a chain of [len] variables, one
   step per iteration, so the loop head's interval state converges after
   about [len] visits; past eight visits widening sends the chain to
   [Top] and the final [if] is no longer provably dead.  Undeclared
   links start unbound.  With [local], the body ends in an [if] whose
   arms reach the head separately, and on the first iteration the
   second arrival changes nothing but [t], from unbound to [Top]: that
   must count as a visit, and it shifts the one where widening starts. *)
let chain_program ~len ~init ~local =
  let x i = Printf.sprintf "x%d" i in
  let decls =
    List.init len (fun i ->
        if init || i mod 2 = 0 then Printf.sprintf "var %s := 0;" (x (i + 1))
        else "")
  in
  let shifts =
    List.init (len - 1) (fun i ->
        Printf.sprintf "%s := %s;" (x (i + 1)) (x (i + 2)))
  in
  String.concat " "
    (decls
    @ [ "while e1 < 3 do" ]
    @ shifts
    @ [ Printf.sprintf "%s := 1;" (x len) ]
    @ (if local then [ "if e1 < 2 then else var t := 0; end;" ] else [])
    @ [ "end; if x1 > 1 then skip; end;" ])

let reference_tests =
  [
    tc "widening point matches the oracle" (fun () ->
        let outcomes =
          List.concat_map
            (fun len ->
              List.concat_map
                (fun init ->
                  List.map
                    (fun local ->
                      let src = chain_program ~len ~init ~local in
                      let cfg = Dataflow.Cfg.of_program (parse src) in
                      if
                        not
                          (agrees_with_reference ~assigned:machine_env
                             ~extra_defs:[] ~liveout:Dataflow.Absint.Live_none
                             cfg)
                      then Alcotest.failf "chain %S disagrees" src;
                      (Dataflow.Absint.analyze ~assigned:machine_env cfg)
                        .Dataflow.Absint.res_unreachable
                      = [])
                    [ false; true ])
                [ false; true ])
            (List.init 12 (fun i -> i + 1))
        in
        Alcotest.(check bool)
          "short chains converge, long ones widen" true
          (List.mem true outcomes && List.mem false outcomes));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"slot engine matches the map-based oracle"
         ~count:3000
         (QCheck.make ~print:print_reference_case gen_reference_case)
         (fun (prog, assigned, extra_defs, liveout) ->
           agrees_with_reference ~assigned ~extra_defs ~liveout
             (Dataflow.Cfg.of_program prog)));
    tc "ASL-heavy machine effects match the oracle" (fun () ->
        let effects = asl_heavy_effects 1 in
        Alcotest.(check int) "12 states x 6 events x 2 effects" 144
          (List.length effects);
        List.iter
          (fun src ->
            let cfg = Dataflow.Cfg.of_program (parse src) in
            List.iter
              (fun (assigned, liveout) ->
                if
                  not
                    (agrees_with_reference ~assigned ~extra_defs:[] ~liveout
                       cfg)
                then Alcotest.failf "effect %S disagrees" src)
              [
                (machine_env, Dataflow.Absint.Live_none);
                (machine_env, Dataflow.Absint.Live_all);
                ([], Dataflow.Absint.Live_none);
                ([ "s"; "e1" ], Dataflow.Absint.Live_all);
              ])
          effects);
  ]

(* --- Asl_flow digests -------------------------------------------------- *)

(* Seeded ASL text over [pool]: assignments, sends, loops, branches on
   constant and variable conditions and early returns, so DF-01, DF-02
   and DF-03 all fire somewhere in the models below. *)
let rec asl_text rng ~pool depth =
  let module P = Workload.Prng in
  let var () = P.pick rng pool in
  let atom () =
    if P.int rng 3 = 0 then string_of_int (P.range rng (-3) 9) else var ()
  in
  let expr () =
    match P.int rng 4 with
    | 0 -> atom ()
    | 1 -> Printf.sprintf "%s + %s" (atom ()) (atom ())
    | 2 -> Printf.sprintf "%s * %s" (atom ()) (atom ())
    | _ -> Printf.sprintf "%s - %s" (atom ()) (atom ())
  in
  let cond () =
    match P.int rng 5 with
    | 0 -> "1 > 2"
    | 1 -> Printf.sprintf "%s = %s" (atom ()) (atom ())
    | 2 -> Printf.sprintf "%s <= %s" (atom ()) (atom ())
    | _ -> Printf.sprintf "%s < %s" (atom ()) (atom ())
  in
  let block () = asl_text rng ~pool (depth - 1) in
  let stmt () =
    match P.int rng (if depth = 0 then 6 else 9) with
    | 0 -> Printf.sprintf "var %s := %s;" (var ()) (expr ())
    | 1 | 2 -> Printf.sprintf "%s := %s;" (var ()) (expr ())
    | 3 -> Printf.sprintf "send ping(%s);" (expr ())
    | 4 ->
      if P.int rng 4 = 0 then Printf.sprintf "return %s;" (expr ())
      else Printf.sprintf "%s := %s;" (var ()) (expr ())
    | 5 -> "skip;"
    | 6 ->
      Printf.sprintf "if %s then %s else %s end;" (cond ()) (block ())
        (block ())
    | 7 -> Printf.sprintf "while %s do %s end;" (cond ()) (block ())
    | _ ->
      Printf.sprintf "for %s := %s to %s do %s end;" (var ()) (atom ())
        (atom ()) (block ())
  in
  String.concat " " (List.init (1 + P.int rng 4) (fun _ -> stmt ()))

let text_model name add =
  Ident.reset_counter ();
  let m = Model.create name in
  add m;
  m

let asl_heavy_model seed =
  text_model "asl" (fun m ->
      Model.add m
        (Model.E_state_machine
           (Workload.Gen_statechart.asl_heavy ~seed ~states:12 ~events:6)))

(* Classes whose operations read their parameters [p]/[q] and locals
   the body may or may not assign first. *)
let operations_model seed =
  let rng = Workload.Prng.create seed in
  text_model "ops" (fun m ->
      for c = 0 to 3 do
        let operations =
          List.init 4 (fun o ->
              Classifier.operation
                ~params:
                  [ Classifier.parameter "p" Dtype.Integer;
                    Classifier.parameter "q" Dtype.Integer;
                    Classifier.parameter ~direction:Classifier.Return "r"
                      Dtype.Integer ]
                ~body:(asl_text rng ~pool:[ "p"; "q"; "r"; "x"; "y" ] 2)
                (Printf.sprintf "op%d" o))
        in
        Model.add m
          (Model.E_classifier
             (Classifier.make ~operations (Printf.sprintf "C%d" c)))
      done)

(* initial -> a0 -> decision -[guards]-> a1 | a2 -> merge -> fork ->
   a3 | a4 -> join -> a5 -> final, every action body reading and
   writing one shared pool: what one action defines on one decision
   arm is uninitialized on the other (DF-01). *)
let activity_model_seeded seed =
  let rng = Workload.Prng.create seed in
  text_model "act" (fun m ->
      let module G = Activityg in
      let body () = asl_text rng ~pool:[ "x"; "y"; "z"; "w" ] 1 in
      let act i = G.action ~body:(body ()) (Printf.sprintf "a%d" i) in
      let a = Array.init 6 act in
      let start = G.initial () and stop = G.activity_final () in
      let dec = G.decision "dec" and mrg = G.merge "mrg" in
      let fork = G.fork "fork" and join = G.join "join" in
      let e ?guard src dst =
        G.edge ?guard ~source:(G.node_id src) ~target:(G.node_id dst) ()
      in
      let guard =
        Workload.Prng.pick rng [ "x > 0"; "y = 1"; "z < w"; "1 < 2" ]
      in
      let edges =
        [ e start a.(0); e a.(0) dec; e ~guard dec a.(1);
          e ~guard:(Printf.sprintf "not (%s)" guard) dec a.(2);
          e a.(1) mrg; e a.(2) mrg; e mrg fork; e fork a.(3); e fork a.(4);
          e a.(3) join; e a.(4) join; e ~guard:"w >= 0" join a.(5);
          e a.(5) stop ]
      in
      Model.add m
        (Model.E_activity
           (G.make "Act"
              ([ start; dec; mrg; fork; join; stop ] @ Array.to_list a)
              edges)))

(* A four-state ring whose entry behaviors, guards and effects are
   seeded text reading the machine environment ([e1], [event]) beside
   locals. *)
let ring_machine_model seed =
  let rng = Workload.Prng.create seed in
  text_model "ring" (fun m ->
      let body () = asl_text rng ~pool:[ "x"; "y"; "e1"; "event" ] 2 in
      let sts =
        Array.init 4 (fun i ->
            Smachine.simple_state ~entry:(body ()) (Printf.sprintf "R%d" i))
      in
      let init = Smachine.pseudostate Smachine.Initial in
      let trs =
        List.init 4 (fun i ->
            Smachine.transition
              ~triggers:[ Smachine.Signal_trigger "go" ]
              ~guard:(if i mod 2 = 0 then "e1 > 0" else "1 < 2")
              ~effect:(body ()) ~source:sts.(i).Smachine.st_id
              ~target:sts.((i + 1) mod 4).Smachine.st_id ())
      in
      Model.add m
        (Model.E_state_machine
           (Smachine.make "Ring"
              [
                Smachine.region
                  (Smachine.Pseudo init
                  :: List.map (fun s -> Smachine.State s) (Array.to_list sts))
                  (Smachine.transition ~source:init.Smachine.ps_id
                     ~target:sts.(0).Smachine.st_id ()
                  :: trs);
              ])))

(* A generated decision/fork activity of ~[size] actions, each given a
   seeded body over one shared pool: merges and joins with many
   predecessors drive the cross-action must-defined fixpoint. *)
let bodied_activity_model seed ~size =
  let rng = Workload.Prng.create seed in
  text_model "spd" (fun m ->
      let ac =
        Workload.Gen_activity.with_decisions ~seed ~size ~max_width:3
      in
      let with_body node =
        match node with
        | Activityg.Action a ->
          Activityg.Action
            {
              a with
              Activityg.act_body =
                Some (asl_text rng ~pool:[ "x"; "y"; "z"; "w"; "v" ] 1);
            }
        | Activityg.Call_behavior _ | Activityg.Send_signal _
        | Activityg.Accept_event _ | Activityg.Object_node _
        | Activityg.Initial_node _ | Activityg.Activity_final _
        | Activityg.Flow_final _ | Activityg.Fork_node _
        | Activityg.Join_node _ | Activityg.Decision_node _
        | Activityg.Merge_node _ ->
          node
      in
      Model.add m
        (Model.E_activity
           {
             ac with
             Activityg.ac_nodes = List.map with_body ac.Activityg.ac_nodes;
           }))

let findings_digest m =
  let fs = Dataflow.Asl_flow.check m in
  ( List.length fs,
    Digest.to_hex
      (Digest.string
         (String.concat "\n"
            (List.map
               (fun (f : Dataflow.Finding.t) ->
                 Printf.sprintf "%s|%s|%s" f.Dataflow.Finding.f_code
                   (Option.value ~default:"-" f.Dataflow.Finding.f_element)
                   f.Dataflow.Finding.f_message)
               fs))) )

(* (model, finding count, MD5 of the (code, element, message) lines),
   recorded on the map-based engine; never re-record a row to make a
   change pass. *)
let digest_table =
  [
    ("asl-heavy seed 1", (fun () -> asl_heavy_model 1),
      (0, "d41d8cd98f00b204e9800998ecf8427e"));
    ("asl-heavy seed 2", (fun () -> asl_heavy_model 2),
      (0, "d41d8cd98f00b204e9800998ecf8427e"));
    ("ring machine seed 1", (fun () -> ring_machine_model 1),
      (14, "cae0697cf99879182975820e2b53ac4d"));
    ("ring machine seed 2", (fun () -> ring_machine_model 2),
      (15, "bcdf76f88346d556331aca501fa8254d"));
    ("operations seed 1", (fun () -> operations_model 1),
      (26, "67967cb0de7e939826da3665b91bf2aa"));
    ("operations seed 2", (fun () -> operations_model 2),
      (35, "d29977f6df5bb938cead330b865e3d83"));
    ("operations seed 3", (fun () -> operations_model 3),
      (33, "f010cc48ce1e110fc595128a50a6d084"));
    ("activity seed 1", (fun () -> activity_model_seeded 1),
      (13, "84c65a31d08f5ba04bb42137f9a11bcd"));
    ("activity seed 2", (fun () -> activity_model_seeded 2),
      (10, "fd0363818410f2dd6f5fa8897b0fd44c"));
    ("activity seed 3", (fun () -> activity_model_seeded 3),
      (7, "9d5cd3a4039ddb572f28b76001a6fb46"));
    ("activity seed 4", (fun () -> activity_model_seeded 4),
      (13, "195da167c4c35b347a5735f657114f9f"));
    ("activity seed 5", (fun () -> activity_model_seeded 5),
      (9, "73f487210d5bdb733a7caed41669e1d1"));
    ("activity seed 6", (fun () -> activity_model_seeded 6),
      (4, "ee4c38936d725839eb15d96a705926c2"));
    ("bodied activity 40 seed 1",
      (fun () -> bodied_activity_model 1 ~size:40),
      (68, "82dd509c88d576a4002268a53749d7dd"));
    ("bodied activity 40 seed 2",
      (fun () -> bodied_activity_model 2 ~size:40),
      (85, "ba22f248898e5b3892febd537295fed8"));
    ("bodied activity 120 seed 3",
      (fun () -> bodied_activity_model 3 ~size:120),
      (216, "6747ea2898855b8125fdbc52e5c44a78"));
  ]

let digest_tests =
  List.map
    (fun (name, model, (count, md5)) ->
      tc name (fun () ->
          let got_count, got_md5 = findings_digest (model ()) in
          Alcotest.(check int) "finding count" count got_count;
          Alcotest.(check string) "findings digest" md5 got_md5))
    digest_table

let () =
  Alcotest.run "dataflow"
    [
      ("cfg", cfg_tests);
      ("df01", df01_tests);
      ("df02", df02_tests);
      ("df03", df03_tests);
      ("df04", df04_tests);
      ("events", event_tests);
      ("netlist", netlist_tests);
      ("integration", integration_tests);
      ("properties", property_tests);
      ("reference", reference_tests);
      ("digests", digest_tests);
    ]
