(* Tests for the SoC and RT profiles and their specific WFRs. *)

open Uml

let tc name f = Alcotest.test_case name `Quick f
let check = Alcotest.check

let soc_model () =
  let m = Model.create "m" in
  let profile = Profiles.Soc_profile.install m in
  (m, profile)

let soc_tests =
  [
    tc "profile declares the documented stereotypes" (fun () ->
        let p = Profiles.Soc_profile.profile () in
        List.iter
          (fun name ->
            check Alcotest.bool name true
              (Profile.find_stereotype p name <> None))
          Profiles.Soc_profile.stereotype_names);
    tc "hwModule without clock port is flagged" (fun () ->
        let m, profile = soc_model () in
        let comp = Component.make "Naked" in
        Model.add m (Model.E_component comp);
        Profiles.Soc_profile.apply m ~profile ~stereotype:"hwModule"
          comp.Component.cmp_id;
        let diags = Profiles.Soc_profile.check m in
        check Alcotest.bool "SOC-01" true
          (List.exists (fun d -> d.Wfr.diag_rule = "SOC-01") diags));
    tc "hwModule with one clock passes" (fun () ->
        let m, profile = soc_model () in
        let clk = Component.port "clk" in
        let comp = Component.make ~ports:[ clk ] "Good" in
        Model.add m (Model.E_component comp);
        Profiles.Soc_profile.apply m ~profile ~stereotype:"hwModule"
          comp.Component.cmp_id;
        Profiles.Soc_profile.apply m ~profile ~stereotype:"clock"
          clk.Component.port_id;
        check Alcotest.int "clean" 0
          (List.length (Profiles.Soc_profile.check m)));
    tc "two reset ports are flagged" (fun () ->
        let m, profile = soc_model () in
        let clk = Component.port "clk" in
        let r1 = Component.port "rst_a" in
        let r2 = Component.port "rst_b" in
        let comp = Component.make ~ports:[ clk; r1; r2 ] "DoubleReset" in
        Model.add m (Model.E_component comp);
        Profiles.Soc_profile.apply m ~profile ~stereotype:"hwModule"
          comp.Component.cmp_id;
        Profiles.Soc_profile.apply m ~profile ~stereotype:"clock"
          clk.Component.port_id;
        Profiles.Soc_profile.apply m ~profile ~stereotype:"reset"
          r1.Component.port_id;
        Profiles.Soc_profile.apply m ~profile ~stereotype:"reset"
          r2.Component.port_id;
        let diags = Profiles.Soc_profile.check m in
        check Alcotest.bool "SOC-02" true
          (List.exists (fun d -> d.Wfr.diag_rule = "SOC-02") diags));
    tc "non-positive hwPort width is flagged" (fun () ->
        let m, profile = soc_model () in
        let port = Component.port "d" in
        let comp = Component.make ~ports:[ port ] "C" in
        Model.add m (Model.E_component comp);
        Profiles.Soc_profile.apply m ~profile ~stereotype:"hwPort"
          ~values:[ ("width", Vspec.of_int 0) ]
          port.Component.port_id;
        let diags = Profiles.Soc_profile.check m in
        check Alcotest.bool "SOC-03" true
          (List.exists (fun d -> d.Wfr.diag_rule = "SOC-03") diags));
    tc "register address collisions are flagged" (fun () ->
        let m, profile = soc_model () in
        let r1 = Classifier.property "ctrl" Dtype.Integer in
        let r2 = Classifier.property "status" Dtype.Integer in
        let cl = Classifier.make ~attributes:[ r1; r2 ] "Block" in
        Model.add m (Model.E_classifier cl);
        Profiles.Soc_profile.apply m ~profile ~stereotype:"register"
          ~values:[ ("address", Vspec.of_int 4) ]
          r1.Classifier.prop_id;
        Profiles.Soc_profile.apply m ~profile ~stereotype:"register"
          ~values:[ ("address", Vspec.of_int 4) ]
          r2.Classifier.prop_id;
        let diags = Profiles.Soc_profile.check m in
        check Alcotest.bool "SOC-04" true
          (List.exists (fun d -> d.Wfr.diag_rule = "SOC-04") diags));
    tc "tag defaults are visible through tag_int" (fun () ->
        let m, profile = soc_model () in
        let comp = Component.make "C" in
        Model.add m (Model.E_component comp);
        Profiles.Soc_profile.apply m ~profile ~stereotype:"bus"
          comp.Component.cmp_id;
        check (Alcotest.option Alcotest.int) "default 32" (Some 32)
          (Profiles.Soc_profile.tag_int m ~element:comp.Component.cmp_id
             ~stereotype:"bus" "dataWidth"));
    tc "hw_modules and sw_tasks filter by stereotype" (fun () ->
        let m, profile = soc_model () in
        let comp = Component.make "C" in
        Model.add m (Model.E_component comp);
        Profiles.Soc_profile.apply m ~profile ~stereotype:"ip"
          comp.Component.cmp_id;
        let cl = Classifier.make "Task" in
        Model.add m (Model.E_classifier cl);
        Profiles.Soc_profile.apply m ~profile ~stereotype:"swTask"
          cl.Classifier.cl_id;
        check Alcotest.int "hw" 1
          (List.length (Profiles.Soc_profile.hw_modules m));
        check Alcotest.int "sw" 1
          (List.length (Profiles.Soc_profile.sw_tasks m)));
    tc "apply rejects unknown stereotype names" (fun () ->
        let m, profile = soc_model () in
        let comp = Component.make "C" in
        Model.add m (Model.E_component comp);
        match
          Profiles.Soc_profile.apply m ~profile ~stereotype:"ghost"
            comp.Component.cmp_id
        with
        | () -> Alcotest.fail "expected Invalid_argument"
        | exception Invalid_argument _ -> ());
  ]

let rt_tests =
  [
    tc "capsule must be active" (fun () ->
        let m = Model.create "m" in
        let profile = Profiles.Rt_profile.install m in
        let passive = Classifier.make "P" in
        Model.add m (Model.E_classifier passive);
        Profiles.Rt_profile.apply m ~profile ~stereotype:"capsule"
          passive.Classifier.cl_id;
        let diags = Profiles.Rt_profile.check m in
        check Alcotest.bool "RT-01" true
          (List.exists (fun d -> d.Wfr.diag_rule = "RT-01") diags));
    tc "active capsule passes" (fun () ->
        let m = Model.create "m" in
        let profile = Profiles.Rt_profile.install m in
        let active = Classifier.make ~is_active:true "A" in
        Model.add m (Model.E_classifier active);
        Profiles.Rt_profile.apply m ~profile ~stereotype:"capsule"
          active.Classifier.cl_id;
        check Alcotest.int "clean" 0 (List.length (Profiles.Rt_profile.check m)));
    tc "periodic deadline beyond period is flagged" (fun () ->
        let m = Model.create "m" in
        let profile = Profiles.Rt_profile.install m in
        let op = Classifier.operation "tick" in
        let cl = Classifier.make ~operations:[ op ] "C" in
        Model.add m (Model.E_classifier cl);
        Profiles.Rt_profile.apply m ~profile ~stereotype:"periodic"
          ~values:[ ("period", Vspec.of_int 10); ("deadline", Vspec.of_int 20) ]
          op.Classifier.op_id;
        let diags = Profiles.Rt_profile.check m in
        check Alcotest.bool "RT-03" true
          (List.exists (fun d -> d.Wfr.diag_rule = "RT-03") diags));
    tc "non-positive period is flagged" (fun () ->
        let m = Model.create "m" in
        let profile = Profiles.Rt_profile.install m in
        let op = Classifier.operation "tick" in
        let cl = Classifier.make ~operations:[ op ] "C" in
        Model.add m (Model.E_classifier cl);
        Profiles.Rt_profile.apply m ~profile ~stereotype:"periodic"
          ~values:[ ("period", Vspec.of_int 0) ]
          op.Classifier.op_id;
        let diags = Profiles.Rt_profile.check m in
        check Alcotest.bool "RT-02" true
          (List.exists (fun d -> d.Wfr.diag_rule = "RT-02") diags));
    tc "both profiles coexist in one model" (fun () ->
        let m = Model.create "m" in
        let _soc = Profiles.Soc_profile.install m in
        let _rt = Profiles.Rt_profile.install m in
        check Alcotest.int "two profiles" 2
          (List.length (Model.profiles m));
        check Alcotest.bool "valid" true (Wfr.is_valid m));
  ]

(* --- validate output, pinned by digest ------------------------------ *)

let int n = Vspec.Int_literal n
let soc_apply m p ?values name id =
  Profiles.Soc_profile.apply m ~profile:p ~stereotype:name ?values id
let rt_apply m p ?values name id =
  Profiles.Rt_profile.apply m ~profile:p ~stereotype:name ?values id

let component m ?(ports = []) name =
  let c = Component.make ~ports:(List.map Component.port ports) name in
  Model.add m (Model.E_component c);
  c

let port (c : Component.t) name =
  match Component.find_port c name with
  | Some p -> p.Component.port_id
  | None -> Alcotest.failf "no port %s" name

let classifier m ?(attributes = []) ?(operations = []) name =
  let cl =
    Classifier.make
      ~attributes:(List.map (fun a -> Classifier.property a Dtype.Integer)
                     attributes)
      ~operations:(List.map (fun o -> Classifier.operation o) operations)
      name
  in
  Model.add m (Model.E_classifier cl);
  cl

(* A profile declaring a «bus» (default dataWidth 0) and a «periodic»
   of its own, installed before SoC and RT, so both names resolve to it
   and the SoC/RT stereotypes of those names are shadowed. *)
let shadowing () =
  let m = Model.create "shadow" in
  let first =
    Profile.make "first"
      [
        Profile.stereotype ~extends:[ Profile.M_component ]
          ~tags:[ Profile.tag ~default:(int 0) "dataWidth" Dtype.Integer ]
          "bus";
        Profile.stereotype ~extends:[ Profile.M_operation ]
          ~tags:
            [
              Profile.tag "period" Dtype.Integer;
              Profile.tag "deadline" Dtype.Integer;
            ]
          "periodic";
      ]
  in
  Model.add m (Model.E_profile first);
  let soc = Profiles.Soc_profile.install m in
  let rt = Profiles.Rt_profile.install m in
  let apply_first name ?(values = []) id =
    match Profile.find_stereotype first name with
    | Some s ->
      Model.add_application m
        (Profile.apply ~values ~stereotype:s.Profile.ster_id ~element:id ())
    | None -> assert false
  in
  let a = component m "A" and b = component m "B" and c = component m "C" in
  apply_first "bus" a.Component.cmp_id;
  soc_apply m soc ~values:[ ("dataWidth", int 0) ] "bus" b.Component.cmp_id;
  soc_apply m soc "hwModule" c.Component.cmp_id;
  let cl = classifier m ~operations:[ "x"; "y" ] "Timed" in
  (match cl.Classifier.cl_operations with
   | [ x; y ] ->
     apply_first "periodic" ~values:[ ("period", int 0) ] x.Classifier.op_id;
     rt_apply m rt ~values:[ ("period", int 0) ] "periodic" y.Classifier.op_id
   | _ -> assert false);
  m

(* The same stereotype applied twice to one element with different tag
   values: the first application's values count. *)
let twice () =
  let m = Model.create "twice" in
  let soc = Profiles.Soc_profile.install m in
  let rt = Profiles.Rt_profile.install m in
  let c = component m ~ports:[ "clk"; "p1"; "p2" ] "Twice" in
  soc_apply m soc "hwModule" c.Component.cmp_id;
  soc_apply m soc "clock" (port c "clk");
  List.iter
    (fun (p, widths) ->
      List.iter
        (fun w ->
          soc_apply m soc ~values:[ ("width", int w) ] "hwPort" (port c p))
        widths)
    [ ("p1", [ 0; 4 ]); ("p2", [ 4; 0 ]) ];
  let cl =
    classifier m ~attributes:[ "r1"; "r2" ] ~operations:[ "f"; "g" ] "Regs"
  in
  let register (p : Classifier.property) a =
    soc_apply m soc ~values:[ ("address", int a) ] "register"
      p.Classifier.prop_id
  in
  (match cl.Classifier.cl_attributes with
   | [ r1; r2 ] ->
     register r1 4;
     register r2 4;
     register r2 8
   | _ -> assert false);
  (match cl.Classifier.cl_operations with
   | [ f; g ] ->
     let periodic op (period, deadline) =
       rt_apply m rt
         ~values:[ ("period", int period); ("deadline", int deadline) ]
         "periodic" op.Classifier.op_id
     in
     List.iter (periodic f) [ (10, 20); (10, 5) ];
     List.iter (periodic g) [ (10, 5); (10, 20) ]
   | _ -> assert false);
  m

(* PR-01 unknown stereotype, PR-02 undeclared tag, PR-03 unresolved
   element, PR-04 wrong metaclass (a top-level element and a feature). *)
let profile_rules () =
  let m = Model.create "pr" in
  let s =
    Profile.stereotype ~extends:[ Profile.M_class ]
      ~tags:[ Profile.tag "t" Dtype.Integer ] "s"
  in
  Model.add m (Model.E_profile (Profile.make "p" [ s ]));
  let cl = classifier m ~attributes:[ "a" ] "K" in
  let c = component m "Comp" in
  let apply ?values ?(stereotype = s.Profile.ster_id) element =
    Model.add_application m (Profile.apply ?values ~stereotype ~element ())
  in
  apply ~stereotype:(Ident.of_string "ghost") cl.Classifier.cl_id;
  apply ~values:[ ("t", int 1); ("u", int 2) ] cl.Classifier.cl_id;
  apply (Ident.of_string "nowhere");
  apply c.Component.cmp_id;
  (match cl.Classifier.cl_attributes with
   | [ a ] -> apply a.Classifier.prop_id
   | _ -> assert false);
  m

(* A hwModule without a clock and a zero-width bus, before a change to
   the SoC profile: [change] is given the model and the profile. *)
let soc_then change name =
  let m = Model.create name in
  let soc = Profiles.Soc_profile.install m in
  let c = component m "Blk" in
  soc_apply m soc "hwModule" c.Component.cmp_id;
  soc_apply m soc ~values:[ ("dataWidth", int 0) ] "bus" c.Component.cmp_id;
  change m soc;
  m

(* the removed profile's applications now reference unknown stereotypes *)
let removed () =
  soc_then (fun m soc -> Model.remove m soc.Profile.prof_id) "removed"

(* «hwModule» renamed in place: SOC-01 stops firing, SOC-05 stays *)
let replaced () =
  soc_then
    (fun m soc ->
      let rename s =
        if s.Profile.ster_name = "hwModule" then
          { s with Profile.ster_name = "hwBlock" }
        else s
      in
      Model.replace m
        (Model.E_profile
           { soc with
             Profile.prof_stereotypes =
               List.map rename soc.Profile.prof_stereotypes }))
    "replaced"

(* A classifier swapped for a profile keeps its place in element order,
   ahead of SoC, so its «bus» (default dataWidth 0) shadows SoC's: SOC-05
   fires on the component stereotyped from it, not on SoC's. *)
let swapped_in () =
  let m = Model.create "swapped" in
  let placeholder = classifier m "Placeholder" in
  let soc = Profiles.Soc_profile.install m in
  let c = component m "SocBus" and d = component m "LateBus" in
  soc_apply m soc ~values:[ ("dataWidth", int 0) ] "bus" c.Component.cmp_id;
  soc_apply m soc "hwModule" c.Component.cmp_id;
  let bus =
    Profile.stereotype ~extends:[ Profile.M_component ]
      ~tags:[ Profile.tag ~default:(int 0) "dataWidth" Dtype.Integer ]
      "bus"
  in
  Model.replace m
    (Model.E_profile
       (Profile.make ~id:placeholder.Classifier.cl_id "late" [ bus ]));
  Model.add_application m
    (Profile.apply ~stereotype:bus.Profile.ster_id
       ~element:d.Component.cmp_id ());
  m

(* the SoC `socuml demo` writes *)
let demo () =
  let m = Model.create "demo_soc" in
  let profile = Profiles.Soc_profile.install m in
  let instances =
    [ ("timer0", Iplib.Cores.timer ()); ("gpio0", Iplib.Cores.gpio ());
      ("fifo0", Iplib.Cores.fifo4 ()) ]
  in
  ignore (Iplib.Soc.component m ~profile ~name:"DemoSoc" instances);
  Model.add m
    (Model.E_activity
       (Workload.Gen_activity.series_parallel ~seed:42 ~size:12 ~max_width:3));
  m

let validate_models =
  List.concat_map
    (fun classes ->
      [
        ( Printf.sprintf "bare-%d" classes,
          fun () -> Workload.Gen_model.structural ~seed:1 ~classes );
        ( Printf.sprintf "stereotyped-%d" classes,
          fun () -> Workload.Gen_model.stereotyped ~seed:1 ~classes );
      ])
    [ 100; 300 ]
  @ [
      ("shadowing-profiles", shadowing);
      ("stereotype-twice", twice);
      ("profile-rules", profile_rules);
      ("profile-removed", removed);
      ("profile-replaced", replaced);
      ("profile-swapped-in", swapped_in);
      ("iplib-demo", demo);
    ]

let validate format m =
  let out = Buffer.create 1024 and err = Buffer.create 64 in
  let sink =
    { Serve.Ops.s_out = Buffer.add_string out; s_err = Buffer.add_string err }
  in
  let code =
    Serve.Ops.guarded sink (fun () ->
        Serve.Ops.validate sink ~format (Serve.Artifacts.of_model m))
  in
  Printf.sprintf "exit %d\n%s--- stderr\n%s" code (Buffer.contents out)
    (Buffer.contents err)

let hex s = Digest.to_hex (Digest.string s)

(* (model, MD5 of `validate`, of `validate --format json`), pinned
   before stereotype queries read an index kept by the model. *)
let validate_digests =
  [
    ("bare-100", ("dbf97056c21a80f49aa07c7e921e4c41", "db7e242b141e302968294a912304ae77"));
    ("stereotyped-100", ("4740a3d9e0b619a801eb8ac9f380d147", "a5b197a6918819ef09f252fe44e18a7d"));
    ("bare-300", ("82733e2032699c1a400f1c21bbe37699", "97d1b60a7fba92fb9698e4818a0f4aaf"));
    ("stereotyped-300", ("ac5b9234426daae5e09d1d798b0925fd", "7eb060468dad942c047c2b446cb3d245"));
    ("shadowing-profiles", ("1aeb86f844fda9bffdade794d2f9ad80", "ca860f21755dcbdd3b6d780529a84b6d"));
    ("stereotype-twice", ("9ea1bcdc340a3cd77b700163a354431f", "ebcc2c1c43c7c6c79e8f9ead933d9bbf"));
    ("profile-rules", ("32e5b2089eaccf24f2fd4c02c8eaa1fd", "8d21695d019e906718597fe4b9eceace"));
    ("profile-removed", ("636ea3cac260146574660247927d8afa", "aed9dcf2bab1451a3cd805167edacddf"));
    ("profile-replaced", ("88b789884c243e458a4a41d0c66f59b5", "7d74deaee4d835d778d215af19471191"));
    ("profile-swapped-in", ("13876101f3a47566a88ffdfbd6ecca1d", "06f7f4f08b60c95f9f4e62d1ac0fe230"));
    ("iplib-demo", ("d8473af67082e72f663ea89901bbc60c", "14311b934dbe4ce276991ad03dd86de1"));
  ]

let validate_tests =
  List.map
    (fun (name, build) ->
      tc name (fun () ->
          Ident.reset_counter ();
          let m = build () in
          let text, json = List.assoc name validate_digests in
          check Alcotest.string "text" text (hex (validate `Text m));
          check Alcotest.string "json" json (hex (validate `Json m))))
    validate_models
  @ [
      (* the text report read in full: one line per diagnostic, then
         the summary with the model name *)
      tc "text report with one error and one warning" (fun () ->
          Ident.reset_counter ();
          let m = Model.create "pinned" in
          ignore
            (classifier m ~attributes:[ "x"; "x" ] ~operations:[ "f"; "f" ]
               "Dup");
          check Alcotest.string "text"
            "exit 1\n\
             error(NS-01) [cl000005]: duplicate attribute name x in \
             classifier Dup\n\
             warning(NS-02) [cl000005]: overloaded operation name f in \
             classifier Dup\n\
             2 diagnostics (1 errors, 1 warnings) in pinned\n\
             --- stderr\n"
            (validate `Text m));
    ]

let () =
  Alcotest.run "profiles"
    [ ("soc", soc_tests); ("rt", rt_tests); ("validate", validate_tests) ]
