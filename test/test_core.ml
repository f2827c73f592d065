(* Unit and property tests for the UML metamodel kernel (lib/core),
   excluding the well-formedness checker (see test_wfr.ml). *)

open Uml

let check = Alcotest.check
let tc name f = Alcotest.test_case name `Quick f

(* --- Ident ------------------------------------------------------------ *)

let ident_tests =
  [
    tc "fresh is unique" (fun () ->
        let a = Ident.fresh () in
        let b = Ident.fresh () in
        check Alcotest.bool "differ" false (Ident.equal a b));
    tc "prefix is used" (fun () ->
        let a = Ident.fresh ~prefix:"zz" () in
        check Alcotest.bool "prefix" true
          (String.length (Ident.to_string a) > 2
          && String.sub (Ident.to_string a) 0 2 = "zz"));
    tc "of_string round-trips" (fun () ->
        check Alcotest.string "same" "abc" (Ident.to_string (Ident.of_string "abc")));
  ]

(* --- Mult ------------------------------------------------------------- *)

let mult_tests =
  [
    tc "one" (fun () ->
        check Alcotest.string "1" "1" (Mult.to_string Mult.one));
    tc "optional" (fun () ->
        check Alcotest.string "0..1" "0..1" (Mult.to_string Mult.optional));
    tc "many" (fun () ->
        check Alcotest.string "0..*" "0..*" (Mult.to_string Mult.many));
    tc "range to_string" (fun () ->
        check Alcotest.string "2..7" "2..7"
          (Mult.to_string (Mult.make 2 (Mult.Bounded 7))));
    tc "make rejects inverted bounds" (fun () ->
        Alcotest.check_raises "invalid" (Invalid_argument
          "Mult.make: lower/upper out of order") (fun () ->
            ignore (Mult.make 3 (Mult.Bounded 2))));
    tc "make rejects negative lower" (fun () ->
        Alcotest.check_raises "invalid" (Invalid_argument
          "Mult.make: lower/upper out of order") (fun () ->
            ignore (Mult.make (-1) Mult.Unbounded)));
    tc "admits inside bounds" (fun () ->
        let m = Mult.make 1 (Mult.Bounded 3) in
        check Alcotest.bool "0" false (Mult.admits m 0);
        check Alcotest.bool "1" true (Mult.admits m 1);
        check Alcotest.bool "3" true (Mult.admits m 3);
        check Alcotest.bool "4" false (Mult.admits m 4));
    tc "unbounded admits large" (fun () ->
        check Alcotest.bool "ok" true (Mult.admits Mult.many 1_000_000));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"admits agrees with bounds" ~count:200
         QCheck.(tup3 (int_range 0 10) (int_range 0 20) (int_range 0 25))
         (fun (lo, extra, n) ->
           let m = Mult.make lo (Mult.Bounded (lo + extra)) in
           Mult.admits m n = (n >= lo && n <= lo + extra)));
  ]

(* --- Vspec / Dtype ------------------------------------------------------ *)

let value_tests =
  [
    tc "int literal" (fun () ->
        check Alcotest.string "42" "42" (Vspec.to_string (Vspec.of_int 42)));
    tc "bool literal" (fun () ->
        check Alcotest.string "true" "true"
          (Vspec.to_string (Vspec.of_bool true)));
    tc "string literal quoted" (fun () ->
        check Alcotest.string "quoted" "\"hi\""
          (Vspec.to_string (Vspec.of_string_value "hi")));
    tc "null" (fun () ->
        check Alcotest.string "null" "null" (Vspec.to_string Vspec.Null_literal));
    tc "opaque passes through" (fun () ->
        check Alcotest.string "expr" "x + 1"
          (Vspec.to_string (Vspec.Opaque_expression "x + 1")));
    tc "primitive names" (fun () ->
        check Alcotest.string "Integer" "Integer" (Dtype.to_string Dtype.Integer);
        check Alcotest.string "Boolean" "Boolean" (Dtype.to_string Dtype.Boolean);
        check Alcotest.string "UnlimitedNatural" "UnlimitedNatural"
          (Dtype.to_string Dtype.Unlimited_natural));
    tc "is_primitive" (fun () ->
        check Alcotest.bool "int" true (Dtype.is_primitive Dtype.Integer);
        check Alcotest.bool "ref" false
          (Dtype.is_primitive (Dtype.Ref (Ident.of_string "x"))));
  ]

(* --- Classifier --------------------------------------------------------- *)

let classifier_tests =
  [
    tc "make defaults to concrete class" (fun () ->
        let c = Classifier.make "A" in
        check Alcotest.bool "kind" true (c.Classifier.cl_kind = Classifier.Class);
        check Alcotest.bool "abstract" false c.Classifier.cl_is_abstract);
    tc "find_attribute" (fun () ->
        let c =
          Classifier.make
            ~attributes:[ Classifier.property "x" Dtype.Integer ]
            "A"
        in
        check Alcotest.bool "found" true
          (Classifier.find_attribute c "x" <> None);
        check Alcotest.bool "missing" true
          (Classifier.find_attribute c "y" = None));
    tc "find_operation" (fun () ->
        let c =
          Classifier.make ~operations:[ Classifier.operation "go" ] "A"
        in
        check Alcotest.bool "found" true (Classifier.find_operation c "go" <> None));
    tc "result_type defaults to void" (fun () ->
        check Alcotest.bool "void" true
          (Classifier.result_type (Classifier.operation "f") = Dtype.Void));
    tc "result_type uses return parameter" (fun () ->
        let op =
          Classifier.operation
            ~params:
              [ Classifier.parameter ~direction:Classifier.Return "r"
                  Dtype.Integer ]
            "f"
        in
        check Alcotest.bool "int" true
          (Classifier.result_type op = Dtype.Integer));
    tc "binary association has two ends" (fun () ->
        let a = Classifier.make "A" in
        let b = Classifier.make "B" in
        let assoc =
          Classifier.binary_association
            ~source:(a.Classifier.cl_id, Mult.one, true)
            ~target:(b.Classifier.cl_id, Mult.many, false)
            ()
        in
        check Alcotest.int "ends" 2 (List.length assoc.Classifier.assoc_ends));
  ]

(* --- Pkg ---------------------------------------------------------------- *)

let pkg_tests =
  [
    tc "add_owned appends" (fun () ->
        let p = Pkg.make "p" in
        let p = Pkg.add_owned p (Ident.of_string "a") in
        let p = Pkg.add_owned p (Ident.of_string "b") in
        check (Alcotest.list Alcotest.string) "order" [ "a"; "b" ]
          p.Pkg.pkg_owned);
    tc "qualified name" (fun () ->
        let p = Pkg.make "Inner" in
        check Alcotest.string "qname" "Top::Mid::Inner"
          (Pkg.qualified_name ~parents:[ "Top"; "Mid" ] p));
  ]

(* --- Smachine ------------------------------------------------------------ *)

let nested_machine () =
  let a1 = Smachine.simple_state "A1" in
  let a2 = Smachine.simple_state "A2" in
  let init_inner = Smachine.pseudostate Smachine.Initial in
  let inner =
    Smachine.region
      [ Smachine.Pseudo init_inner; Smachine.State a1; Smachine.State a2 ]
      [
        Smachine.transition ~source:init_inner.Smachine.ps_id
          ~target:a1.Smachine.st_id ();
        Smachine.transition
          ~triggers:[ Smachine.Signal_trigger "n" ]
          ~source:a1.Smachine.st_id ~target:a2.Smachine.st_id ();
      ]
  in
  let comp = Smachine.composite_state "C" [ inner ] in
  let idle = Smachine.simple_state "Idle" in
  let init = Smachine.pseudostate Smachine.Initial in
  let top =
    Smachine.region
      [ Smachine.Pseudo init; Smachine.State comp; Smachine.State idle ]
      [
        Smachine.transition ~source:init.Smachine.ps_id
          ~target:comp.Smachine.st_id ();
        Smachine.transition
          ~triggers:[ Smachine.Signal_trigger "p" ]
          ~source:comp.Smachine.st_id ~target:idle.Smachine.st_id ();
      ]
  in
  Smachine.make "m" [ top ]

let smachine_tests =
  [
    tc "all_vertices is recursive" (fun () ->
        (* top: init, C, Idle; inner: init, A1, A2 *)
        check Alcotest.int "count" 6
          (List.length (Smachine.all_vertices (nested_machine ()))));
    tc "all_transitions is recursive" (fun () ->
        check Alcotest.int "count" 4
          (List.length (Smachine.all_transitions (nested_machine ()))));
    tc "all_regions outer first" (fun () ->
        let rs = Smachine.all_regions (nested_machine ()) in
        check Alcotest.int "count" 2 (List.length rs));
    tc "find_vertex by name" (fun () ->
        let sm = nested_machine () in
        let a2 =
          List.find
            (fun v -> Smachine.vertex_name v = "A2")
            (Smachine.all_vertices sm)
        in
        check Alcotest.bool "found" true
          (Smachine.find_vertex sm (Smachine.vertex_id a2) <> None));
    tc "composite and orthogonal" (fun () ->
        let r1 = Smachine.region [] [] in
        let r2 = Smachine.region [] [] in
        let c1 = Smachine.composite_state "c1" [ r1 ] in
        let c2 = Smachine.composite_state "c2" [ r1; r2 ] in
        let s = Smachine.simple_state "s" in
        check Alcotest.bool "c1 composite" true (Smachine.is_composite c1);
        check Alcotest.bool "c1 not orthogonal" false (Smachine.is_orthogonal c1);
        check Alcotest.bool "c2 orthogonal" true (Smachine.is_orthogonal c2);
        check Alcotest.bool "s leaf" false (Smachine.is_composite s));
  ]

(* --- Activityg ------------------------------------------------------------ *)

let activity_tests =
  [
    tc "incoming and outgoing" (fun () ->
        let a = Activityg.action "a" in
        let b = Activityg.action "b" in
        let e =
          Activityg.edge ~source:(Activityg.node_id a)
            ~target:(Activityg.node_id b) ()
        in
        let act = Activityg.make "act" [ a; b ] [ e ] in
        check Alcotest.int "out a" 1
          (List.length (Activityg.outgoing act (Activityg.node_id a)));
        check Alcotest.int "in b" 1
          (List.length (Activityg.incoming act (Activityg.node_id b)));
        check Alcotest.int "in a" 0
          (List.length (Activityg.incoming act (Activityg.node_id a))));
    tc "find_node" (fun () ->
        let a = Activityg.action "a" in
        let act = Activityg.make "act" [ a ] [] in
        check Alcotest.bool "found" true
          (Activityg.find_node act (Activityg.node_id a) <> None));
    tc "default edge weight is one" (fun () ->
        let a = Activityg.action "a" in
        let e =
          Activityg.edge ~source:(Activityg.node_id a)
            ~target:(Activityg.node_id a) ()
        in
        check Alcotest.int "w" 1 e.Activityg.ed_weight);
  ]

(* --- Interaction ------------------------------------------------------------ *)

let interaction_tests =
  let ll1 = Interaction.lifeline "a" in
  let ll2 = Interaction.lifeline "b" in
  let msg name =
    Interaction.message ~from_:ll1.Interaction.ll_id
      ~to_:ll2.Interaction.ll_id name
  in
  [
    tc "all_messages descends into fragments" (fun () ->
        let frag =
          Interaction.fragment Interaction.Alt
            [
              Interaction.operand [ Interaction.Message (msg "m2") ];
              Interaction.operand [ Interaction.Message (msg "m3") ];
            ]
        in
        let i =
          Interaction.make "i" [ ll1; ll2 ]
            [ Interaction.Message (msg "m1"); Interaction.Fragment frag ]
        in
        check Alcotest.int "count" 3 (Interaction.message_count i));
    tc "alt yields one trace per operand" (fun () ->
        let frag =
          Interaction.fragment Interaction.Alt
            [
              Interaction.operand [ Interaction.Message (msg "x") ];
              Interaction.operand [ Interaction.Message (msg "y") ];
            ]
        in
        let i = Interaction.make "i" [ ll1; ll2 ] [ Interaction.Fragment frag ] in
        check Alcotest.int "traces" 2 (List.length (Interaction.traces i)));
    tc "opt adds the empty trace" (fun () ->
        let frag =
          Interaction.fragment Interaction.Opt
            [ Interaction.operand [ Interaction.Message (msg "x") ] ]
        in
        let i = Interaction.make "i" [ ll1; ll2 ] [ Interaction.Fragment frag ] in
        check Alcotest.int "traces" 2 (List.length (Interaction.traces i)));
    tc "par interleaves" (fun () ->
        let frag =
          Interaction.fragment Interaction.Par
            [
              Interaction.operand [ Interaction.Message (msg "x") ];
              Interaction.operand [ Interaction.Message (msg "y") ];
            ]
        in
        let i = Interaction.make "i" [ ll1; ll2 ] [ Interaction.Fragment frag ] in
        check Alcotest.int "traces" 2 (List.length (Interaction.traces i)));
    tc "loop repeats between bounds" (fun () ->
        let frag =
          Interaction.fragment
            (Interaction.Loop (1, Some 3))
            [ Interaction.operand [ Interaction.Message (msg "x") ] ]
        in
        let i = Interaction.make "i" [ ll1; ll2 ] [ Interaction.Fragment frag ] in
        let traces = Interaction.traces i in
        let lengths = List.sort compare (List.map List.length traces) in
        check (Alcotest.list Alcotest.int) "lengths" [ 1; 2; 3 ] lengths);
    tc "strict sequences messages" (fun () ->
        let i =
          Interaction.make "i" [ ll1; ll2 ]
            [ Interaction.Message (msg "m1"); Interaction.Message (msg "m2") ]
        in
        match Interaction.traces i with
        | [ [ m1; m2 ] ] ->
          check Alcotest.string "order" "m1" m1.Interaction.msg_name;
          check Alcotest.string "order" "m2" m2.Interaction.msg_name
        | _other -> Alcotest.fail "expected a single two-message trace");
    tc "trace enumeration honors max_traces" (fun () ->
        (* 6 nested alt(2) fragments = 64 traces; cap at 10 *)
        let operand_pair () =
          Interaction.fragment Interaction.Alt
            [
              Interaction.operand [ Interaction.Message (msg "x") ];
              Interaction.operand [ Interaction.Message (msg "y") ];
            ]
        in
        let body =
          List.init 6 (fun _ -> Interaction.Fragment (operand_pair ()))
        in
        let i = Interaction.make "i" [ ll1; ll2 ] body in
        check Alcotest.bool "capped" true
          (List.length (Interaction.traces ~max_traces:10 i) <= 10);
        check Alcotest.int "uncapped is 64" 64
          (List.length (Interaction.traces i)));
    tc "communication pairs count per direction" (fun () ->
        let back =
          Interaction.message ~from_:ll2.Interaction.ll_id
            ~to_:ll1.Interaction.ll_id "ack"
        in
        let i =
          Interaction.make "i" [ ll1; ll2 ]
            [
              Interaction.Message (msg "m1");
              Interaction.Message (msg "m2");
              Interaction.Message back;
            ]
        in
        check
          (Alcotest.list (Alcotest.triple Alcotest.string Alcotest.string Alcotest.int))
          "pairs"
          [ ("a", "b", 2); ("b", "a", 1) ]
          (Interaction.communication_pairs i));
    tc "neg contributes no behavior" (fun () ->
        let frag =
          Interaction.fragment Interaction.Neg
            [ Interaction.operand [ Interaction.Message (msg "x") ] ]
        in
        let i = Interaction.make "i" [ ll1; ll2 ] [ Interaction.Fragment frag ] in
        check Alcotest.bool "empty trace" true
          (Interaction.traces i = [ [] ]));
  ]

(* --- Usecase ------------------------------------------------------------ *)

let usecase_tests =
  [
    tc "include closure is transitive" (fun () ->
        let c = Usecase.make "c" in
        let b = Usecase.make ~includes:[ c.Usecase.uc_id ] "b" in
        let a = Usecase.make ~includes:[ b.Usecase.uc_id ] "a" in
        let closure = Usecase.include_closure ~all:[ a; b; c ] a in
        check Alcotest.bool "b" true (Ident.Set.mem b.Usecase.uc_id closure);
        check Alcotest.bool "c" true (Ident.Set.mem c.Usecase.uc_id closure);
        check Alcotest.bool "self" false (Ident.Set.mem a.Usecase.uc_id closure));
  ]

(* --- Component ------------------------------------------------------------ *)

let component_tests =
  [
    tc "provided_interfaces dedups" (fun () ->
        let i1 = Ident.of_string "i1" in
        let p1 = Component.port ~provided:[ i1 ] "p1" in
        let p2 = Component.port ~provided:[ i1 ] "p2" in
        let c = Component.make ~ports:[ p1; p2 ] "C" in
        check Alcotest.int "one" 1
          (List.length (Component.provided_interfaces c)));
    tc "find_port and find_part" (fun () ->
        let p = Component.port "io" in
        let part = Component.part "u0" (Ident.of_string "t") in
        let c = Component.make ~ports:[ p ] ~parts:[ part ] "C" in
        check Alcotest.bool "port" true (Component.find_port c "io" <> None);
        check Alcotest.bool "part" true (Component.find_part c "u0" <> None));
    tc "delegation has outer end without part" (fun () ->
        let conn =
          Component.delegation ~outer:(Ident.of_string "po")
            ~inner:(Some (Ident.of_string "pt"), Ident.of_string "pi")
            ()
        in
        match conn.Component.conn_ends with
        | [ e1; e2 ] ->
          check Alcotest.bool "outer" true (e1.Component.cend_part = None);
          check Alcotest.bool "inner" true (e2.Component.cend_part <> None)
        | _other -> Alcotest.fail "two ends expected");
  ]

(* --- Instance ------------------------------------------------------------ *)

let instance_tests =
  [
    tc "conforms_to accepts matching slots" (fun () ->
        let cl =
          Classifier.make
            ~attributes:[ Classifier.property "x" Dtype.Integer ]
            "A"
        in
        let i =
          Instance.make ~classifier:cl.Classifier.cl_id
            ~slots:[ Instance.slot "x" [ Vspec.of_int 1 ] ]
            "a"
        in
        check Alcotest.bool "ok" true (Instance.conforms_to i cl));
    tc "conforms_to rejects unknown feature" (fun () ->
        let cl = Classifier.make "A" in
        let i = Instance.make ~slots:[ Instance.slot "zz" [] ] "a" in
        check Alcotest.bool "no" false (Instance.conforms_to i cl));
    tc "conforms_to respects multiplicity" (fun () ->
        let cl =
          Classifier.make
            ~attributes:
              [ Classifier.property ~mult:Mult.one "x" Dtype.Integer ]
            "A"
        in
        let i =
          Instance.make
            ~slots:[ Instance.slot "x" [ Vspec.of_int 1; Vspec.of_int 2 ] ]
            "a"
        in
        check Alcotest.bool "too many" false (Instance.conforms_to i cl));
    tc "slot_value returns first" (fun () ->
        let i =
          Instance.make ~slots:[ Instance.slot "x" [ Vspec.of_int 7 ] ] "a"
        in
        check Alcotest.bool "7" true
          (Instance.slot_value i "x" = Some (Vspec.of_int 7)));
  ]

(* --- Diagram ------------------------------------------------------------ *)

let diagram_tests =
  [
    tc "there are exactly 13 diagram kinds" (fun () ->
        check Alcotest.int "13" 13 (List.length Diagram.all_kinds));
    tc "kind names are distinct" (fun () ->
        let names = List.map Diagram.kind_name Diagram.all_kinds in
        check Alcotest.int "unique" 13
          (List.length (List.sort_uniq compare names)));
    tc "aspect classification" (fun () ->
        check Alcotest.bool "class structural" true
          (Diagram.aspect_of Diagram.Class_diagram = Diagram.Structural);
        check Alcotest.bool "deployment physical" true
          (Diagram.aspect_of Diagram.Deployment_diagram = Diagram.Physical);
        check Alcotest.bool "sequence behavioral" true
          (Diagram.aspect_of Diagram.Sequence_diagram = Diagram.Behavioral));
  ]

(* --- Profile ------------------------------------------------------------ *)

let profile_tests =
  [
    tc "tag_value falls back to default" (fun () ->
        let s =
          Profile.stereotype
            ~tags:[ Profile.tag ~default:(Vspec.of_int 5) "w" Dtype.Integer ]
            "st"
        in
        let app =
          Profile.apply ~stereotype:s.Profile.ster_id
            ~element:(Ident.of_string "e") ()
        in
        check Alcotest.bool "default" true
          (Profile.tag_value s app "w" = Some (Vspec.of_int 5)));
    tc "tag_value prefers supplied value" (fun () ->
        let s =
          Profile.stereotype
            ~tags:[ Profile.tag ~default:(Vspec.of_int 5) "w" Dtype.Integer ]
            "st"
        in
        let app =
          Profile.apply
            ~values:[ ("w", Vspec.of_int 9) ]
            ~stereotype:s.Profile.ster_id ~element:(Ident.of_string "e") ()
        in
        check Alcotest.bool "value" true
          (Profile.tag_value s app "w" = Some (Vspec.of_int 9)));
    tc "find_stereotype" (fun () ->
        let p = Profile.make "p" [ Profile.stereotype "hw" ] in
        check Alcotest.bool "found" true (Profile.find_stereotype p "hw" <> None);
        check Alcotest.bool "missing" true (Profile.find_stereotype p "sw" = None));
  ]

(* --- Model ------------------------------------------------------------ *)

let model_tests =
  [
    tc "add then find" (fun () ->
        let m = Model.create "m" in
        let c = Classifier.make "A" in
        Model.add m (Model.E_classifier c);
        check Alcotest.bool "found" true (Model.mem m c.Classifier.cl_id);
        check Alcotest.int "size" 1 (Model.size m));
    tc "duplicate identifiers are rejected" (fun () ->
        let m = Model.create "m" in
        let c = Classifier.make "A" in
        Model.add m (Model.E_classifier c);
        match Model.add m (Model.E_classifier c) with
        | () -> Alcotest.fail "expected Invalid_argument"
        | exception Invalid_argument _ -> ());
    tc "replace keeps insertion order" (fun () ->
        let m = Model.create "m" in
        let a = Classifier.make "A" in
        let b = Classifier.make "B" in
        Model.add m (Model.E_classifier a);
        Model.add m (Model.E_classifier b);
        Model.replace m (Model.E_classifier { a with Classifier.cl_name = "A2" });
        let names = List.map Model.element_name (Model.elements m) in
        check (Alcotest.list Alcotest.string) "order" [ "A2"; "B" ] names);
    tc "remove" (fun () ->
        let m = Model.create "m" in
        let a = Classifier.make "A" in
        Model.add m (Model.E_classifier a);
        Model.remove m a.Classifier.cl_id;
        check Alcotest.int "empty" 0 (Model.size m));
    tc "classifier_named" (fun () ->
        let m = Model.create "m" in
        Model.add m (Model.E_classifier (Classifier.make "A"));
        check Alcotest.bool "found" true (Model.classifier_named m "A" <> None);
        check Alcotest.bool "missing" true (Model.classifier_named m "B" = None));
    tc "all_ancestors stops on cycles" (fun () ->
        let m = Model.create "m" in
        let ida = Ident.fresh () in
        let idb = Ident.fresh () in
        Model.add m (Model.E_classifier (Classifier.make ~id:ida ~generals:[ idb ] "A"));
        Model.add m (Model.E_classifier (Classifier.make ~id:idb ~generals:[ ida ] "B"));
        let anc = Model.all_ancestors m ida in
        check Alcotest.int "two" 2 (Ident.Set.cardinal anc));
    tc "equal on copy" (fun () ->
        let m = Model.create "m" in
        Model.add m (Model.E_classifier (Classifier.make "A"));
        Model.add_diagram m (Diagram.make Diagram.Class_diagram "d");
        let m' = Model.copy m in
        check Alcotest.bool "equal" true (Model.equal m m'));
    tc "equal detects difference" (fun () ->
        let m = Model.create "m" in
        Model.add m (Model.E_classifier (Classifier.make "A"));
        let m' = Model.copy m in
        Model.add m' (Model.E_classifier (Classifier.make "B"));
        check Alcotest.bool "differ" false (Model.equal m m'));
    tc "has_stereotype" (fun () ->
        let m = Model.create "m" in
        let s = Profile.stereotype "hot" in
        Model.add m (Model.E_profile (Profile.make "p" [ s ]));
        let c = Classifier.make "A" in
        Model.add m (Model.E_classifier c);
        Model.add_application m
          (Profile.apply ~stereotype:s.Profile.ster_id
             ~element:c.Classifier.cl_id ());
        check Alcotest.bool "yes" true
          (Model.has_stereotype m c.Classifier.cl_id "hot");
        check Alcotest.bool "no" false
          (Model.has_stereotype m c.Classifier.cl_id "cold"));
    tc "feature_index covers ports and attributes" (fun () ->
        let m = Model.create "m" in
        let port = Component.port "io" in
        Model.add m (Model.E_component (Component.make ~ports:[ port ] "C"));
        let attr = Classifier.property "x" Dtype.Integer in
        Model.add m
          (Model.E_classifier (Classifier.make ~attributes:[ attr ] "A"));
        let idx = Model.feature_index m in
        check Alcotest.bool "port" true
          (Hashtbl.find_opt idx port.Component.port_id = Some Profile.M_port);
        check Alcotest.bool "attr" true
          (Hashtbl.find_opt idx attr.Classifier.prop_id
          = Some Profile.M_property));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"size equals number of adds" ~count:50
         QCheck.(int_range 0 40)
         (fun n ->
           let m = Model.create "m" in
           for i = 1 to n do
             Model.add m
               (Model.E_classifier (Classifier.make (Printf.sprintf "K%d" i)))
           done;
           Model.size m = n && List.length (Model.elements m) = n));
  ]

(* --- stereotype index vs the list-scan oracle ------------------------- *)

type op =
  | Add of Model.element
  | Replace of Model.element
  | Remove of Ident.t
  | Apply of Profile.application

let show_op = function
  | Add e -> "add " ^ Model.show_element e
  | Replace e -> "replace " ^ Model.show_element e
  | Remove id -> "remove " ^ id
  | Apply a -> "apply " ^ Profile.show_application a

(* Few identifiers, so profiles share stereotype names and ids, elements
   are replaced by profiles and back, and applications pile up on one
   element; "e5" is never added. *)
let element_ids = [ "e0"; "e1"; "e2"; "e3"; "e4" ]
let ster_ids = [ "s0"; "s1"; "s2"; "s3" ]
let ster_names = [ "a"; "b"; "c" ]

let gen_op =
  let open QCheck.Gen in
  let stereotype =
    let* id = oneofl ster_ids and* name = oneofl ster_names in
    let* default = opt (int_range (-1) 2) in
    let tag = Profile.tag ?default:(Option.map Vspec.of_int default) in
    return (Profile.stereotype ~id ~tags:[ tag "t" Dtype.Integer ] name)
  in
  (* the other element kinds, so every projection sees replacements
     across kinds; two names make a same-kind replace visible *)
  let other id =
    let* name = oneofl [ "K"; "L" ] in
    oneofl
      [
        Model.E_component (Component.make ~id name);
        Model.E_state_machine (Smachine.make ~id name []);
        Model.E_activity (Activityg.make ~id name [] []);
        Model.E_use_case (Usecase.make ~id name);
        Model.E_instance (Instance.make ~id name);
      ]
  in
  let element =
    let* id = oneofl element_ids in
    frequency
      [
        (2, return (Model.E_classifier (Classifier.make ~id "K")));
        ( 3,
          map
            (fun sters -> Model.E_profile (Profile.make ~id "P" sters))
            (list_size (int_bound 3) stereotype) );
        (2, other id);
      ]
  in
  let application =
    let* element = oneofl ("e5" :: element_ids)
    and* stereotype = oneofl ster_ids
    and* values =
      oneofl
        [
          [];
          [ ("t", Vspec.of_int 0) ];
          [ ("t", Vspec.of_int 7) ];
          [ ("t", Vspec.String_literal "x") ];
        ]
    in
    return (Profile.apply ~values ~stereotype ~element ())
  in
  frequency
    [
      (3, map (fun e -> Add e) element);
      (2, map (fun e -> Replace e) element);
      (1, map (fun id -> Remove id) (oneofl element_ids));
      (5, map (fun a -> Apply a) application);
    ]

let arb_ops =
  QCheck.make
    ~print:(QCheck.Print.list show_op)
    QCheck.Gen.(list_size (int_bound 40) gen_op)

let run_op m = function
  | Add e -> if not (Model.mem m (Model.element_id e)) then Model.add m e
  | Replace e -> Model.replace m e
  | Remove id -> Model.remove m id
  | Apply a -> Model.add_application m a

type queries = {
  profiles : Model.t -> Profile.t list;
  named : Model.t -> string -> (Profile.t * Profile.stereotype) option;
  has : Model.t -> Ident.t -> string -> bool;
  apps_of : Model.t -> Ident.t -> Profile.application list;
  app :
    Model.t -> Ident.t -> string ->
    (Profile.stereotype * Profile.application) option;
  tag : Model.t -> element:Ident.t -> stereotype:string -> string -> int option;
}

let indexed =
  {
    profiles = Model.profiles;
    named = Model.stereotype_named;
    has = Model.has_stereotype;
    apps_of = Model.applications_of;
    app = Model.application;
    tag = Profiles.Soc_profile.tag_int;
  }

let oracle =
  {
    profiles = Oracles.Stereotype_ref.profiles;
    named = Oracles.Stereotype_ref.stereotype_named;
    has = Oracles.Stereotype_ref.has_stereotype;
    apps_of = Oracles.Stereotype_ref.applications_of;
    app = Oracles.Stereotype_ref.application;
    tag = Oracles.Stereotype_ref.tag_int;
  }

(* every query on every element and name, compared structurally *)
let answers q m =
  let names = "z" :: ster_names in
  let per_name e n =
    (q.has m e n, q.app m e n, q.tag m ~element:e ~stereotype:n "t")
  in
  ( q.profiles m,
    List.map (q.named m) names,
    List.map
      (fun e -> (q.apps_of m e, List.map (per_name e) names))
      ("e5" :: element_ids) )

let agrees m = answers indexed m = answers oracle m

(* The element-order shadow: the same edits on [Oracles.Model_ref]. *)
let run_ref r = function
  | Add e ->
    if not (Hashtbl.mem r.Oracles.Model_ref.index (Model.element_id e)) then
      Oracles.Model_ref.add r e
  | Replace e -> Oracles.Model_ref.replace r e
  | Remove id -> Oracles.Model_ref.remove r id
  | Apply _ -> ()

let run_both m r op =
  run_op m op;
  run_ref r op

(* elements, iter, fold, size and every kind projection, read off the
   model, against the same read off the shadow's element list *)
let same_order m r =
  let es = Oracles.Model_ref.elements r in
  let pick f = List.filter_map f es in
  let iterated = ref [] in
  Model.iter (fun e -> iterated := e :: !iterated) m;
  Model.elements m = es
  && List.rev !iterated = es
  && Model.fold (fun acc e -> e :: acc) [] m = List.rev es
  && Model.size m = Oracles.Model_ref.size r
  && Model.size m = List.length es
  && Model.classifiers m
     = pick (function Model.E_classifier c -> Some c | _e -> None)
  && Model.components m
     = pick (function Model.E_component c -> Some c | _e -> None)
  && Model.state_machines m
     = pick (function Model.E_state_machine s -> Some s | _e -> None)
  && Model.activities m
     = pick (function Model.E_activity a -> Some a | _e -> None)
  && Model.use_cases m
     = pick (function Model.E_use_case u -> Some u | _e -> None)
  && Model.profiles m
     = pick (function Model.E_profile p -> Some p | _e -> None)
  && Model.instances m
     = pick (function Model.E_instance i -> Some i | _e -> None)

let index_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"index answers = list scan after every edit"
         ~count:300 arb_ops (fun ops ->
           let m = Model.create "m" in
           let r = Oracles.Model_ref.create () in
           List.for_all
             (fun op ->
               run_both m r op;
               agrees m && same_order m r)
             ops));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"edits to a copy or its original stay apart"
         ~count:200 (QCheck.triple arb_ops arb_ops arb_ops)
         (fun (common, mine, theirs) ->
           let m = Model.create "m" in
           let r = Oracles.Model_ref.create () in
           List.iter (run_both m r) common;
           let c = Model.copy m in
           let rc = Oracles.Model_ref.copy r in
           let copied = answers indexed c in
           List.iter (run_both m r) mine;
           let copy_unchanged = answers indexed c = copied in
           let copy_order = same_order c rc in
           let edited = answers indexed m in
           (* a replace made on the copy alone, on top of its edits *)
           List.iter (run_both c rc)
             (theirs
             @ [ Replace (Model.E_component (Component.make ~id:"e0" "C")) ]);
           copy_unchanged && copy_order
           && answers indexed m = edited
           && agrees m && agrees c && same_order m r && same_order c rc));
  ]

let () =
  Alcotest.run "core"
    [
      ("ident", ident_tests);
      ("mult", mult_tests);
      ("values", value_tests);
      ("classifier", classifier_tests);
      ("pkg", pkg_tests);
      ("smachine", smachine_tests);
      ("activityg", activity_tests);
      ("interaction", interaction_tests);
      ("usecase", usecase_tests);
      ("component", component_tests);
      ("instance", instance_tests);
      ("diagram", diagram_tests);
      ("profile", profile_tests);
      ("model", model_tests);
      ("stereotype index", index_tests);
    ]
