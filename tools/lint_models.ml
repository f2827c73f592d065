(* CI gate behind `dune build @lint-demo`: lint the models this repo
   ships — the demo SoC (rebuilt in-process exactly as `socuml demo`
   builds it) and a spread of workload-generated models — and fail on
   any error-severity diagnostic.  Also asserts the report is
   byte-for-byte deterministic across two runs. *)

open Uml

let failures = ref 0

let complain fmt =
  Printf.ksprintf
    (fun msg ->
      incr failures;
      Printf.eprintf "lint-demo: %s\n" msg)
    fmt

let report name diags =
  let errors = Wfr.errors diags in
  Printf.printf "%-24s %d diagnostics (%d errors, %d warnings)\n" name
    (List.length diags) (List.length errors)
    (List.length (Wfr.warnings diags));
  List.iter (fun d -> Printf.printf "  %s\n" (Wfr.to_string d)) diags;
  if errors <> [] then complain "%s has lint errors" name

(* The demo SoC of bin/socuml.ml, model side. *)
let demo_model () =
  let m = Model.create "demo_soc" in
  let profile = Profiles.Soc_profile.install m in
  let instances =
    [ ("timer0", Iplib.Cores.timer ()); ("gpio0", Iplib.Cores.gpio ());
      ("fifo0", Iplib.Cores.fifo4 ()) ]
  in
  let _soc = Iplib.Soc.component m ~profile ~name:"DemoSoc" instances in
  Model.add m
    (Model.E_activity
       (Workload.Gen_activity.series_parallel ~seed:42 ~size:12 ~max_width:3));
  let a = Smachine.simple_state "Off" in
  let b = Smachine.simple_state "On" in
  let init = Smachine.pseudostate Smachine.Initial in
  let region =
    Smachine.region
      [ Smachine.Pseudo init; Smachine.State a; Smachine.State b ]
      [
        Smachine.transition ~source:init.Smachine.ps_id
          ~target:a.Smachine.st_id ();
        Smachine.transition
          ~triggers:[ Smachine.Signal_trigger "toggle" ]
          ~source:a.Smachine.st_id ~target:b.Smachine.st_id ();
        Smachine.transition
          ~triggers:[ Smachine.Signal_trigger "toggle" ]
          ~source:b.Smachine.st_id ~target:a.Smachine.st_id ();
      ]
  in
  Model.add m (Model.E_state_machine (Smachine.make "Power" [ region ]));
  (m, Iplib.Soc.design ~name:"demo_soc" instances)

(* --- dataflow defect showcase (`--dataflow`) -------------------------- *)

(* A model + design deliberately exhibiting every dataflow-tier rule
   (DF-01..DF-06, HDL-12, HDL-13) exactly where intended.  The golden
   diff pins the report; the assertion below keeps the golden honest if
   a pass regresses to silence. *)
let defect_model () =
  Ident.reset_counter ();
  let m = Model.create "dataflow_defects" in
  (* DF-05: `done` is emitted (entry of Off) but no trigger consumes it.
     DF-06: `go` and `tick` trigger transitions but nothing emits them.
     DF-04: one provably-false and one provably-true guard.
     DF-02: `x := 1` is overwritten before any read.
     DF-03: the then-branch is unreachable under the folded guard. *)
  let off = Smachine.simple_state ~entry:"send done(1);" "Off" in
  let on = Smachine.simple_state "On" in
  let init = Smachine.pseudostate Smachine.Initial in
  let region =
    Smachine.region
      [ Smachine.Pseudo init; Smachine.State off; Smachine.State on ]
      [
        Smachine.transition ~source:init.Smachine.ps_id
          ~target:off.Smachine.st_id ();
        Smachine.transition
          ~triggers:[ Smachine.Signal_trigger "go" ]
          ~guard:"1 > 2" ~effect:"x := 1; x := 2; return x;"
          ~source:off.Smachine.st_id ~target:on.Smachine.st_id ();
        Smachine.transition
          ~triggers:[ Smachine.Signal_trigger "tick" ]
          ~guard:"e1 < 0 or 0 < 1"
          ~effect:"if 1 > 2 then y := 1; else y := 2; end;"
          ~source:on.Smachine.st_id ~target:off.Smachine.st_id ();
      ]
  in
  Model.add m (Model.E_state_machine (Smachine.make "Defects" [ region ]));
  (* DF-01: `collect` reads `blocks` but only `fill` (later in token
     order than the typechecker's node-list order) assigns it. *)
  let fill = Activityg.action ~body:"blocks := 64;" "fill" in
  let collect = Activityg.action ~body:"limit := blocks + 1;" "collect" in
  let start = Activityg.initial () in
  let stop = Activityg.activity_final () in
  let e a b =
    Activityg.edge ~source:(Activityg.node_id a) ~target:(Activityg.node_id b)
      ()
  in
  Model.add m
    (Model.E_activity
       (Activityg.make "Reversed"
          [ start; fill; collect; stop ]
          [ e start collect; e collect fill; e fill stop ]));
  m

(* Two clock domains: [pb] samples [a_reg] from the clk_a domain on
   clk_b.  The comb reader [po] breaks the 2-FF synchronizer exemption,
   so HDL-12 fires; [pb] has neither reset nor init and drives the
   output [q] through [po], so HDL-13 fires too. *)
let defect_design () =
  let m =
    Hdl.Module_.make "cdc"
      ~ports:
        [ Hdl.Module_.input "clk_a" Hdl.Htype.Bit;
          Hdl.Module_.input "clk_b" Hdl.Htype.Bit;
          Hdl.Module_.input "rst" Hdl.Htype.Bit;
          Hdl.Module_.input "din" Hdl.Htype.Bit;
          Hdl.Module_.output "q" Hdl.Htype.Bit ]
      ~signals:
        [ Hdl.Module_.signal ~init:0 "a_reg" Hdl.Htype.Bit;
          Hdl.Module_.signal "b_reg" Hdl.Htype.Bit ]
      ~processes:
        [ Hdl.Module_.seq_process ~name:"pa" ~clock:"clk_a"
            ~reset:("rst", [ Hdl.Stmt.Assign ("a_reg", Hdl.Expr.zero) ])
            [ Hdl.Stmt.Assign ("a_reg", Hdl.Expr.Ref "din") ];
          Hdl.Module_.seq_process ~name:"pb" ~clock:"clk_b"
            [ Hdl.Stmt.Assign ("b_reg", Hdl.Expr.Ref "a_reg") ];
          Hdl.Module_.comb_process ~name:"po"
            [ Hdl.Stmt.Assign ("q", Hdl.Expr.Ref "b_reg") ] ]
  in
  Hdl.Module_.design ~top:"cdc" [ m ]

let dataflow_mode () =
  let m = defect_model () in
  let design = defect_design () in
  let diags = Lint.Check.check ~design m in
  print_string (Lint.Report.to_text ~model:"dataflow_defects" diags);
  let again = Lint.Check.check ~design m in
  if
    Lint.Report.to_json ~model:"dataflow_defects" diags
    <> Lint.Report.to_json ~model:"dataflow_defects" again
  then complain "dataflow_defects lint report is not deterministic";
  List.iter
    (fun code ->
      if
        not
          (List.exists
             (fun (d : Wfr.diagnostic) -> d.Wfr.diag_rule = code)
             diags)
      then complain "expected rule %s to fire on the defect showcase" code)
    [ "DF-01"; "DF-02"; "DF-03"; "DF-04"; "DF-05"; "DF-06"; "HDL-12";
      "HDL-13" ];
  if !failures > 0 then begin
    Printf.eprintf "lint-demo: %d failure(s)\n" !failures;
    exit 1
  end

(* --- ASL defect showcase (`--asl`) -------------------------------- *)

(* One model putting the ASL rules (ASL-01..03) and the ASL dataflow
   rules (DF-01..04) on every behavior site kind that carries them:
   transition guard and effect, state entry/exit/do, operation body,
   action body and edge guard.  The report is followed by the C the
   model generates (two operation bodies come out as "not translated"
   stubs) and by the RTL compiler's answers on three small machines, so the
   golden pins every text the ASL front end feeds to lint and
   codegen. *)

(* does not parse *)
let bad_parse = "x := ;"

(* ASL-02 (y unbound after the branch; int + bool), DF-01 (y),
   DF-02 (w overwritten), DF-03 (code after return) *)
let bad_program param =
  Printf.sprintf
    "if %s > 0 then y := 1; end; w := y + true; w := 0; return; x := 1;"
    param

let asl_defect_model () =
  Ident.reset_counter ();
  let m = Model.create "asl_defects" in
  let ret = Classifier.parameter ~direction:Classifier.Return "r" Dtype.Integer in
  let ctl =
    Classifier.make "Ctl"
      ~attributes:[ Classifier.property "count" Dtype.Integer ]
      ~operations:
        [
          Classifier.operation "tick" ~params:[ ret ]
            ~body:"self.count := self.count + 1; return self.count;";
          Classifier.operation "peek" ~is_query:true ~params:[ ret ]
            ~body:"return self.count;";
          Classifier.operation "broken" ~body:bad_parse;
          Classifier.operation "mixed"
            ~params:[ Classifier.parameter "n" Dtype.Integer; ret ]
            ~body:(bad_program "n");
          Classifier.operation "greet" ~body:"print(\"a\" & \"b\");";
        ]
  in
  Model.add m (Model.E_classifier ctl);
  let ctx = ctl.Classifier.cl_id in
  let a =
    Smachine.simple_state ~entry:bad_parse ~exit_:(bad_program "e1")
      ~do_:bad_parse "A"
  in
  let b =
    Smachine.simple_state ~entry:(bad_program "e2") ~exit_:bad_parse
      ~do_:(bad_program "e3") "B"
  in
  let init = Smachine.pseudostate Smachine.Initial in
  let go = [ Smachine.Signal_trigger "go" ] in
  let tick = [ Smachine.Signal_trigger "tick" ] in
  let a_id = a.Smachine.st_id and b_id = b.Smachine.st_id in
  let region =
    Smachine.region
      [ Smachine.Pseudo init; Smachine.State a; Smachine.State b ]
      [
        Smachine.transition ~source:init.Smachine.ps_id ~target:a_id ();
        Smachine.transition ~triggers:go ~guard:"e1 >"
          ~effect:(bad_program "e1") ~source:a_id ~target:b_id ();
        Smachine.transition ~triggers:go ~guard:"e1 + 1" ~effect:bad_parse
          ~source:b_id ~target:a_id ();
        Smachine.transition ~triggers:tick ~guard:"self.tick() > 0"
          ~source:a_id ~target:b_id ();
        Smachine.transition ~triggers:tick ~guard:"1 > 2" ~source:b_id
          ~target:a_id ();
      ]
  in
  Model.add m
    (Model.E_state_machine (Smachine.make ~context:ctx "AslDefects" [ region ]));
  (* [collect] reads [blocks] on the path that skips [fill] *)
  let start = Activityg.initial () in
  let split = Activityg.decision "split" in
  let fill = Activityg.action ~body:"blocks := 64;" "fill" in
  let collect = Activityg.action ~body:"limit := blocks + 1;" "collect" in
  let broken = Activityg.action ~body:bad_parse "broken" in
  let mixed = Activityg.action ~body:(bad_program "1") "mixed" in
  let stop = Activityg.activity_final () in
  let e ?guard a b =
    Activityg.edge ?guard ~source:(Activityg.node_id a)
      ~target:(Activityg.node_id b) ()
  in
  Model.add m
    (Model.E_activity
       (Activityg.make ~context:ctx "AslFlow"
          [ start; split; fill; collect; broken; mixed; stop ]
          [
            e start split;
            e ~guard:"x >" split fill;
            e ~guard:"1 + 2" split collect;
            e ~guard:"self.tick() > 0" fill collect;
            e ~guard:"2 > 1" collect broken;
            e ~guard:"blocks > 0" collect mixed;
            e broken stop;
            e mixed stop;
          ]));
  m

(* The RTL compiler reads guards and effects too; flattening refuses
   do-activities, so it gets one-state machines of its own. *)
let rtl_probe (name, guard, effect) =
  let s = Smachine.simple_state "S" in
  let init = Smachine.pseudostate Smachine.Initial in
  let sm =
    Smachine.make name
      [
        Smachine.region
          [ Smachine.Pseudo init; Smachine.State s ]
          [
            Smachine.transition ~source:init.Smachine.ps_id
              ~target:s.Smachine.st_id ();
            Smachine.transition
              ~triggers:[ Smachine.Signal_trigger "go" ]
              ~guard ~effect ~source:s.Smachine.st_id
              ~target:s.Smachine.st_id ();
          ];
      ]
  in
  match Statechart.Flatten.flatten sm with
  | Error msg -> Printf.printf "fsm_compile %s: flatten error: %s\n" name msg
  | Ok flat -> (
    match Codegen.Fsm_compile.compile flat with
    | Ok md -> print_string (Codegen.Verilog.of_module md)
    | Error msg -> Printf.printf "fsm_compile %s: %s\n" name msg)

let asl_mode () =
  let m = asl_defect_model () in
  let diags = Lint.Check.check_model m in
  print_string (Lint.Report.to_text ~model:"asl_defects" diags);
  let c = Codegen.Cgen.of_model m in
  print_string c;
  List.iter rtl_probe
    [ ("rtl_guard", "x >", "x := 1;"); ("rtl_effect", "1 < 3", bad_parse);
      ("rtl_ok", "x < 3", "x := x + 1;") ];
  let starts_with prefix s =
    String.length s >= String.length prefix
    && String.sub s 0 (String.length prefix) = prefix
  in
  List.iter
    (fun (code, site) ->
      if
        not
          (List.exists
             (fun (d : Wfr.diagnostic) ->
               d.Wfr.diag_rule = code && starts_with site d.Wfr.diag_message)
             diags)
      then complain "expected rule %s on a %s" code site)
    (List.concat_map
       (fun site ->
         List.map (fun code -> (code, site))
           [ "ASL-01"; "ASL-02"; "DF-01"; "DF-02"; "DF-03" ])
       [ "transition effect"; "state entry behavior"; "state exit behavior";
         "state do behavior"; "body of Ctl."; "body of action " ]
    @ List.concat_map
        (fun site ->
          List.map (fun code -> (code, site)) [ "ASL-01"; "ASL-02"; "DF-04" ])
        [ "transition guard"; "edge guard" ]
    @ [ ("ASL-03", "transition guard"); ("DF-01", "edge guard") ]);
  let stubs = ref 0 in
  String.split_on_char '\n' c
  |> List.iter (fun line ->
         let needle = "body not translated" in
         let n = String.length needle in
         let found = ref false in
         for i = 0 to String.length line - n do
           if (not !found) && String.sub line i n = needle then found := true
         done;
         if !found then incr stubs);
  if !stubs < 2 then complain "expected two untranslated operation stubs";
  if !failures > 0 then begin
    Printf.eprintf "lint-demo: %d failure(s)\n" !failures;
    exit 1
  end

let default_mode () =
  let m, design = demo_model () in
  let diags = Lint.Check.check ~design m in
  report "demo_soc" diags;
  let again = Lint.Check.check ~design m in
  if
    Lint.Report.to_json ~model:"demo_soc" diags
    <> Lint.Report.to_json ~model:"demo_soc" again
  then complain "demo_soc lint report is not deterministic";

  (* a seeded workload spread standing in for user models *)
  List.iter
    (fun seed ->
      Ident.reset_counter ();
      let m = Workload.Gen_model.structural ~seed ~classes:20 in
      Model.add m
        (Model.E_state_machine
           (Workload.Gen_statechart.hierarchical ~seed ~depth:3 ~breadth:2
              ~events:4));
      Model.add m
        (Model.E_activity
           (Workload.Gen_activity.with_decisions ~seed ~size:14 ~max_width:3));
      report (Printf.sprintf "workload(seed=%d)" seed)
        (Lint.Check.check_model m))
    [ 1; 7; 42 ];

  if !failures > 0 then begin
    Printf.eprintf "lint-demo: %d failure(s)\n" !failures;
    exit 1
  end;
  print_endline "lint-demo: all models clean of lint errors"

let () =
  if Array.exists (fun a -> a = "--dataflow") Sys.argv then dataflow_mode ()
  else if Array.exists (fun a -> a = "--asl") Sys.argv then asl_mode ()
  else default_mode ()
