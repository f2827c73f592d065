(* Shared codec fixtures: the kitchen-sink model, the seeded workload
   models, the pinned byte digests of both interchange formats, and the
   hostile-input corpus with the exact diagnostic each input produces.
   [test_xmi] and [test_snap] both draw on this module, so the XMI and
   snapshot codecs are held to one contract. *)

open Uml

(* Build a model exercising every metamodel corner either codec has a
   branch for: all classifier kinds, properties with and without
   defaults, all 10 pseudostate kinds, all trigger and transition kinds,
   all 12 activity node kinds, both edge kinds, all 6 message sorts, all
   12 interaction operators, all vspec literals, components with both
   connector kinds, all 3 deployment node kinds, a stereotype extending
   all 16 metaclasses, and all 13 diagram kinds. *)
let kitchen_sink () =
  let m = Model.create "sink" in
  let itf =
    Classifier.make ~kind:Classifier.Interface
      ~operations:
        [
          Classifier.operation
            ~params:
              [
                Classifier.parameter "x" Dtype.Integer;
                Classifier.parameter ~direction:Classifier.Return "r"
                  Dtype.Boolean;
              ]
            "check";
        ]
      "IChecker"
  in
  Model.add m (Model.E_classifier itf);
  let enum =
    Classifier.make ~kind:(Classifier.Enumeration [ "Red"; "Green" ]) "Color"
  in
  Model.add m (Model.E_classifier enum);
  let sig_cl = Classifier.make ~kind:Classifier.Signal "Ping" in
  Model.add m (Model.E_classifier sig_cl);
  Model.add m
    (Model.E_classifier (Classifier.make ~kind:Classifier.Data_type "Fix16"));
  Model.add m
    (Model.E_classifier
       (Classifier.make ~kind:Classifier.Primitive_type "word32"));
  let actor = Classifier.make ~kind:Classifier.Actor_kind "User" in
  Model.add m (Model.E_classifier actor);
  let base = Classifier.make ~is_abstract:true "Base" in
  Model.add m (Model.E_classifier base);
  let cls =
    Classifier.make ~is_active:true
      ~attributes:
        [
          Classifier.property ~mult:Mult.optional ~default:(Vspec.of_int 3)
            ~visibility:Classifier.Private ~is_static:true ~is_read_only:true
            ~aggregation:Classifier.Composite "count" Dtype.Integer;
          Classifier.property ~default:(Vspec.Real_literal 2.5)
            ~aggregation:Classifier.Shared "gain" Dtype.Real;
          Classifier.property ~default:(Vspec.Enum_literal "Red") "color"
            (Dtype.Ref enum.Classifier.cl_id);
          Classifier.property ~default:Vspec.Null_literal "label"
            Dtype.String_type;
          Classifier.property
            ~default:(Vspec.Opaque_expression "a + b")
            ~visibility:Classifier.Package_visibility "expr"
            Dtype.Unlimited_natural;
          Classifier.property ~default:(Vspec.of_bool true)
            ~visibility:Classifier.Protected "flag" Dtype.Boolean;
          Classifier.property "plain_color" (Dtype.Ref enum.Classifier.cl_id);
          Classifier.property "plain_label" Dtype.String_type;
        ]
      ~operations:
        [
          Classifier.operation ~visibility:Classifier.Protected ~is_query:true
            ~body:"return 1;" "peek";
        ]
      ~receptions:
        [
          {
            Classifier.recv_id = Ident.fresh ();
            recv_signal = sig_cl.Classifier.cl_id;
          };
        ]
      ~generals:[ base.Classifier.cl_id ]
      ~realized:[ itf.Classifier.cl_id ]
      "Widget"
  in
  Model.add m (Model.E_classifier cls);
  Model.add m
    (Model.E_association
       (Classifier.binary_association ~name:"owns"
          ~source:(cls.Classifier.cl_id, Mult.one, true)
          ~target:(base.Classifier.cl_id, Mult.many, false)
          ()));
  Model.add m
    (Model.E_package (Pkg.make ~owned:[ cls.Classifier.cl_id ] ~imports:[] "pkg"));
  (* state machine with all pseudostate kinds *)
  let mk_ps kind = Smachine.pseudostate kind in
  let s1 =
    Smachine.simple_state ~entry:"e();" ~exit_:"x();" ~do_:"d();"
      ~deferred:[ Smachine.Signal_trigger "later" ]
      "S1"
  in
  let s2 = Smachine.simple_state "S2" in
  let inner_region =
    Smachine.region ~name:"inner"
      [ Smachine.State s2; Smachine.Pseudo (mk_ps Smachine.Shallow_history) ]
      []
  in
  let comp = Smachine.composite_state "Comp" [ inner_region ] in
  let init = mk_ps Smachine.Initial in
  let fin = Smachine.final () in
  let all_pseudos =
    List.map mk_ps
      [
        Smachine.Deep_history; Smachine.Join; Smachine.Fork; Smachine.Junction;
        Smachine.Choice; Smachine.Entry_point; Smachine.Exit_point;
        Smachine.Terminate;
      ]
  in
  let region =
    Smachine.region ~name:"top"
      (Smachine.Pseudo init :: Smachine.State s1 :: Smachine.State comp
      :: Smachine.Final fin
      :: List.map (fun p -> Smachine.Pseudo p) all_pseudos)
      [
        Smachine.transition ~source:init.Smachine.ps_id
          ~target:s1.Smachine.st_id ();
        Smachine.transition
          ~triggers:
            [
              Smachine.Signal_trigger "go"; Smachine.Time_trigger 5;
              Smachine.Any_trigger; Smachine.Completion;
            ]
          ~guard:"x > 0" ~effect:"x := x - 1;" ~kind:Smachine.Local
          ~source:s1.Smachine.st_id ~target:comp.Smachine.st_id ();
        Smachine.transition ~kind:Smachine.Internal ~guard:"x = 0"
          ~source:s1.Smachine.st_id ~target:s1.Smachine.st_id ();
      ]
  in
  Model.add m
    (Model.E_state_machine
       (Smachine.make ~context:cls.Classifier.cl_id "machine" [ region ]));
  (* activity with every node kind *)
  let nodes =
    [
      Activityg.initial ();
      Activityg.action ~body:"x := 1;" "act";
      Activityg.call_behavior ~behavior:(Ident.of_string "beh") "call";
      Activityg.send_signal ~event:"ping" "send";
      Activityg.accept_event ~event:"pong" "recv";
      Activityg.object_node ~upper_bound:4 "buf" Dtype.Integer;
      Activityg.fork "f";
      Activityg.join "j";
      Activityg.decision "d";
      Activityg.merge "mg";
      Activityg.flow_final ();
      Activityg.activity_final ();
    ]
  in
  let n0 = List.nth nodes 0 in
  let n1 = List.nth nodes 1 in
  let edges =
    [
      Activityg.edge ~guard:"ok" ~weight:2 ~kind:Activityg.Object_flow
        ~source:(Activityg.node_id n0) ~target:(Activityg.node_id n1) ();
      Activityg.edge ~kind:Activityg.Control_flow
        ~source:(Activityg.node_id n1) ~target:(Activityg.node_id n0) ();
    ]
  in
  Model.add m (Model.E_activity (Activityg.make "flow" nodes edges));
  (* interaction: all message sorts and all combined-fragment operators *)
  let l1 = Interaction.lifeline ~represents:cls.Classifier.cl_id "a" in
  let l2 = Interaction.lifeline "b" in
  let msg name sort =
    Interaction.Message
      (Interaction.message ~sort
         ~arguments:[ Vspec.of_int 1; Vspec.of_string_value "s" ]
         ~from_:l1.Interaction.ll_id ~to_:l2.Interaction.ll_id name)
  in
  let sorts =
    [
      Interaction.Synch_call; Interaction.Asynch_call;
      Interaction.Asynch_signal; Interaction.Reply;
      Interaction.Create_message; Interaction.Delete_message;
    ]
  in
  let frag op body =
    Interaction.Fragment
      (Interaction.fragment op [ Interaction.operand ~guard:"g" body ])
  in
  let operators =
    [
      Interaction.Alt; Interaction.Opt; Interaction.Loop (1, Some 3);
      Interaction.Loop (0, None); Interaction.Par; Interaction.Strict;
      Interaction.Seq; Interaction.Break; Interaction.Critical;
      Interaction.Neg; Interaction.Assert;
      Interaction.Ignore [ "m1" ];
      Interaction.Consider [ "m1"; "m2" ];
    ]
  in
  let body =
    List.mapi (fun i s -> msg (Printf.sprintf "m%d" i) s) sorts
    @ List.map (fun op -> frag op [ msg "inner" Interaction.Reply ]) operators
    @ [
        Interaction.Fragment
          (Interaction.fragment Interaction.Alt
             [
               Interaction.operand ~guard:"x > 0"
                 [ frag Interaction.Opt [ msg "deep" Interaction.Synch_call ] ];
               Interaction.operand [];
             ]);
        Interaction.Fragment
          (Interaction.fragment
             (Interaction.Consider [ "m1"; "m2" ])
             [ Interaction.operand [] ]);
      ]
  in
  Model.add m (Model.E_interaction (Interaction.make "seq" [ l1; l2 ] body));
  (* use cases *)
  let uc_base = Usecase.make "Login" in
  Model.add m (Model.E_use_case uc_base);
  Model.add m
    (Model.E_use_case
       (Usecase.make ~subject:cls.Classifier.cl_id
          ~actors:[ actor.Classifier.cl_id ]
          ~includes:[ uc_base.Usecase.uc_id ]
          ~extends:[ Usecase.extend ~condition:"vip" uc_base.Usecase.uc_id ]
          "Order"));
  (* component with ports, parts, both connector kinds *)
  let inner_port = Component.port ~provided:[ itf.Classifier.cl_id ] "pi" in
  let inner_comp = Component.make ~ports:[ inner_port ] "Inner" in
  Model.add m (Model.E_component inner_comp);
  let outer_port =
    Component.port ~required:[ itf.Classifier.cl_id ] ~is_behavior:true "po"
  in
  let p0 = Component.part "u0" inner_comp.Component.cmp_id in
  let p1 = Component.part "u1" inner_comp.Component.cmp_id in
  let deleg =
    Component.delegation ~name:"d0" ~outer:outer_port.Component.port_id
      ~inner:(Some p0.Component.part_id, inner_port.Component.port_id)
      ()
  in
  let asm =
    Component.assembly ~name:"a0"
      ~from_:(Some p0.Component.part_id, inner_port.Component.port_id)
      ~to_:(Some p1.Component.part_id, inner_port.Component.port_id)
      ()
  in
  Model.add m
    (Model.E_component
       (Component.make ~ports:[ outer_port ] ~parts:[ p0; p1 ]
          ~connectors:[ deleg; asm ] "Outer"));
  (* instances and links *)
  let i1 =
    Instance.make ~classifier:cls.Classifier.cl_id
      ~slots:
        [
          Instance.slot "count" [ Vspec.of_int 2 ];
          Instance.slot "mixed"
            [ Vspec.Real_literal (-0.5); Vspec.Bool_literal false;
              Vspec.Null_literal ];
        ]
      "w1"
  in
  Model.add m (Model.E_instance i1);
  let i2 = Instance.make "w2" in
  Model.add m (Model.E_instance i2);
  Model.add m
    (Model.E_link (Instance.link i1.Instance.inst_id i2.Instance.inst_id));
  (* deployment: all three node kinds *)
  let dev = Deployment.node ~kind:Deployment.Device "board" in
  Model.add m (Model.E_deployment_node dev);
  let ee =
    Deployment.node ~kind:Deployment.Execution_environment
      ~nested:[ dev.Deployment.dn_id ] "rtos"
  in
  Model.add m (Model.E_deployment_node ee);
  let host = Deployment.node ~kind:Deployment.Node "host" in
  Model.add m (Model.E_deployment_node host);
  let art = Deployment.artifact ~manifests:[ cls.Classifier.cl_id ] "fw.bin" in
  Model.add m (Model.E_artifact art);
  Model.add m
    (Model.E_deployment
       (Deployment.deploy ~artifact:art.Deployment.art_id
          ~target:dev.Deployment.dn_id ()));
  Model.add m
    (Model.E_communication_path
       (Deployment.communication_path dev.Deployment.dn_id
          host.Deployment.dn_id));
  (* profile: one stereotype extending every metaclass *)
  let all_meta =
    [
      Profile.M_class; Profile.M_interface; Profile.M_component;
      Profile.M_port; Profile.M_property; Profile.M_operation;
      Profile.M_package; Profile.M_state_machine; Profile.M_state;
      Profile.M_transition; Profile.M_activity; Profile.M_action;
      Profile.M_node; Profile.M_artifact; Profile.M_connector; Profile.M_any;
    ]
  in
  let ster =
    Profile.stereotype ~extends:all_meta
      ~tags:
        [
          Profile.tag ~default:(Vspec.of_int 1) "area" Dtype.Integer;
          Profile.tag "note" Dtype.String_type;
        ]
      "hw"
  in
  Model.add m (Model.E_profile (Profile.make "soc" [ ster ]));
  Model.add_application m
    (Profile.apply
       ~values:[ ("area", Vspec.of_int 42); ("note", Vspec.of_string_value "x") ]
       ~stereotype:ster.Profile.ster_id ~element:cls.Classifier.cl_id ());
  (* one diagram of every kind *)
  List.iteri
    (fun i k ->
      Model.add_diagram m
        (Diagram.make
           ~elements:(if i = 0 then [ cls.Classifier.cl_id ] else [])
           k
           (Printf.sprintf "dg%d" i)))
    Diagram.all_kinds;
  m

(* --- seeded workload models --------------------------------------------- *)

let machine_model seed =
  let m = Model.create (Printf.sprintf "sm_%d" seed) in
  Model.add m
    (Model.E_state_machine
       (Workload.Gen_statechart.hierarchical ~seed ~depth:3 ~breadth:2
          ~events:3));
  m

let activity_model seed =
  let m = Model.create (Printf.sprintf "act_%d" seed) in
  Model.add m
    (Model.E_activity
       (if seed mod 2 = 0 then
          Workload.Gen_activity.series_parallel ~seed ~size:15 ~max_width:3
        else Workload.Gen_activity.with_decisions ~seed ~size:15 ~max_width:3));
  m

let mixed_model seed =
  let m = Workload.Gen_model.structural ~seed ~classes:9 in
  Model.add m
    (Model.E_state_machine
       (Workload.Gen_statechart.flat ~seed ~states:6 ~events:3));
  Model.add m
    (Model.E_activity
       (Workload.Gen_activity.with_decisions ~seed ~size:10 ~max_width:2));
  m

(* Named model builders; each is run right after [Ident.reset_counter ()]
   so its identifiers, and hence its bytes, do not depend on what ran
   before it. *)
let models : (string * (unit -> Model.t)) list =
  ("kitchen-sink", kitchen_sink)
  :: List.concat_map
       (fun (kind, build, seeds) ->
         List.map
           (fun seed -> (Printf.sprintf "%s-%d" kind seed, fun () -> build seed))
           seeds)
       [
         ( "structural",
           (fun seed -> Workload.Gen_model.structural ~seed ~classes:12),
           [ 1; 7; 42; 314; 2718; 9001 ] );
         ("statechart", machine_model, [ 3; 11; 123; 4096; 8191 ]);
         ("activity", activity_model, [ 2; 5; 64; 777; 1234 ]);
         ("mixed", mixed_model, [ 13; 99; 512; 6174 ]);
       ]

let fresh build =
  Ident.reset_counter ();
  build ()

let hex s = Digest.to_hex (Digest.string s)

(* Pinned at the commit before the codecs became schema interpreters:
   (model, MD5 of [Xmi.Write.to_string], MD5 of [Snap.Write.to_string]),
   each model built by {!fresh}.  Any codec change that moves a byte of
   either format fails here. *)
let digests =
  [
    ("kitchen-sink", "cfcd943fbbfd2b1f6906b445fd421dad", "f83a443533e8fe4f9cf86ef5752876b6");
    ("structural-1", "0c4b1aa7df89d2de76c7bc9db5d3d799", "fdf0c1fcd1582f588fcb7a28b23dc73f");
    ("structural-7", "17c12a1363ed9928ec5b52bdfa043a69", "01d5dd963197014eba48863b21069ad6");
    ("structural-42", "ec274351bc28f588e41c48166bcefca6", "16c2385661082976deb96699d9ea25cf");
    ("structural-314", "22a09d2c91fc72c20b284d0cc228854a", "45311b03bf833563c1ee080364c4c900");
    ("structural-2718", "fa9b6130ced2aa337149c981ff31cf63", "a82944399e9f4845305336060ece5b83");
    ("structural-9001", "55a14e905dfd0c73474ea2951d1a9e1c", "40dabe2e05b2384379b4d797f2519853");
    ("statechart-3", "e77bb12330ee642fbf41e4de721f3cbd", "e248e334875489b56c3109b7d1b131c2");
    ("statechart-11", "00e4db29923dba4ff097503fc3469bb3", "14dafea9630a22cc0acf9b29f28d2e0b");
    ("statechart-123", "dfde1316a2c8eb174bead61de2d37b0c", "dc41a46da6722bbcc00a2f3618e8c723");
    ("statechart-4096", "f419f3b95da229740cc7e119cb64d09e", "7e0dd3791054596764b888a7d6842a3c");
    ("statechart-8191", "0987f373924e043c1584cb08e357a78c", "ee3bdb5b94e4c39661912c05405a3d85");
    ("activity-2", "c0da20d2eece1c64c7fee41964847acc", "8d43d303a1c06ed4a7ec22e75ec573df");
    ("activity-5", "330ec3caba50e964328179ac82370278", "f8d598bc6370a78d932084fd7a64b494");
    ("activity-64", "94e02ce6c656468ce5bdd9801e6040c4", "1c6acbaa54a72872eee2020704745137");
    ("activity-777", "85e29dae2f32af0bd7e312bb570fc6b9", "b421ed9f2d95c167e6d3f1b67d78e45d");
    ("activity-1234", "e840340971f370dcc9a4d35f406f893b", "88da0965cf4639726629443e90ea42d0");
    ("mixed-13", "4f29d3d5e66ef130117a3dd1f7f21426", "8d90eb70939f6fb6c830c02c60b7645b");
    ("mixed-99", "a2933c8c5ed2501e5e55ac857b63a830", "99928fc42943ad8488b2ce347c1c67a2");
    ("mixed-512", "733f95f82d1793eb82bd6abffd56742d", "815b7b95de3ad6faa17b3a51b4d6eb5a");
    ("mixed-6174", "e91a53db0a908263ef63cb834b43b251", "f3c5cd38168ffc9eec64c427633a0555");
  ]

(* --- hostile inputs -------------------------------------------------------- *)

(* How a load ended, as one comparable line. *)
let outcome load data =
  match load data with
  | (_ : Model.t) -> "ok"
  | exception Xmi.Read.Import_error msg -> "Import_error: " ^ msg
  | exception Snap.Read.Import_error msg -> "Import_error: " ^ msg
  | exception Invalid_argument msg -> "Invalid_argument: " ^ msg

let xmi body =
  "<xmi:XMI><uml:Model name=\"m\">" ^ body ^ "</uml:Model></xmi:XMI>"

let cls children = "<packagedElement xmi:type=\"uml:Class\" xmi:id=\"c\" name=\"C\">" ^ children ^ "</packagedElement>"
let attr a = cls ("<ownedAttribute xmi:id=\"a\" name=\"a\" " ^ a ^ "/>")
let sm children = "<packagedElement xmi:type=\"uml:StateMachine\" xmi:id=\"sm\" name=\"sm\"><region xmi:id=\"r\" name=\"r\">" ^ children ^ "</region></packagedElement>"
let act children = "<packagedElement xmi:type=\"uml:Activity\" xmi:id=\"a\" name=\"a\">" ^ children ^ "</packagedElement>"
let inter children = "<packagedElement xmi:type=\"uml:Interaction\" xmi:id=\"i\" name=\"i\">" ^ children ^ "</packagedElement>"
let comp children = "<packagedElement xmi:type=\"uml:Component\" xmi:id=\"k\" name=\"k\">" ^ children ^ "</packagedElement>"

(* [depth] levels of [wrap] around [core] *)
let rec nest depth wrap core =
  if depth = 0 then core else wrap (nest (depth - 1) wrap core)

(* One malformed XMI document per distinct import diagnostic, with the
   exact outcome recorded against the hand-written reader.  Then
   documents with two or three defects, which pin the one reported, and
   two that nest their defect 200 elements deep, which a reader that
   decodes any element more than once cannot finish. *)
let hostile_xmi =
  [
    ("not xmi", "<foo/>");
    ("no model", "<xmi:XMI/>");
    ("xml parse error", "<xmi:XMI><uml:Model name=\"m\">");
    ("model without name", "<xmi:XMI><uml:Model/></xmi:XMI>");
    ("missing xmi:type", xmi "<packagedElement xmi:id=\"e\" name=\"x\"/>");
    ("unknown element type", xmi "<packagedElement xmi:type=\"uml:Alien\" xmi:id=\"e\" name=\"x\"/>");
    ("bare uml: type", xmi "<packagedElement xmi:type=\"uml:\" xmi:id=\"e\" name=\"x\"/>");
    ("unprefixed type", xmi "<packagedElement xmi:type=\"Alien\" xmi:id=\"e\" name=\"x\"/>");
    ("missing xmi:id", xmi "<packagedElement xmi:type=\"uml:Class\" name=\"C\"/>");
    ("duplicate id", xmi (cls "" ^ cls ""));
    ("missing payload", xmi (attr "defaultKind=\"int\""));
    ("bad int literal", xmi (attr "defaultKind=\"int\" default=\"x\""));
    ("bad real literal", xmi (attr "defaultKind=\"real\" default=\"zz\""));
    ("bad bool literal", xmi (attr "defaultKind=\"bool\" default=\"yes\""));
    ("unknown value kind", xmi (attr "defaultKind=\"blob\" default=\"1\""));
    ("type ref without target", xmi (attr "typeKind=\"ref\""));
    ("unknown type kind", xmi (attr "typeKind=\"Quaternion\""));
    ("bad multiplicity lower", xmi (attr "lower=\"x\" upper=\"1\""));
    ("bad multiplicity upper", xmi (attr "lower=\"0\" upper=\"many\""));
    ("bad boolean attribute", xmi (attr "isStatic=\"yes\""));
    ("unknown visibility", xmi (attr "visibility=\"secret\""));
    ("unknown aggregation", xmi (attr "aggregation=\"loose\""));
    ("unknown direction", xmi (cls "<ownedOperation xmi:id=\"o\" name=\"o\"><ownedParameter xmi:id=\"p\" name=\"p\" direction=\"sideways\"/></ownedOperation>"));
    ("literal without name", xmi "<packagedElement xmi:type=\"uml:Enumeration\" xmi:id=\"e\" name=\"E\"><ownedLiteral/></packagedElement>");
    ("reception without signal", xmi (cls "<ownedReception xmi:id=\"r\"/>"));
    ("ref without target", xmi (cls "<generalization/>"));
    ("memberEnd without endProperty", xmi "<packagedElement xmi:type=\"uml:Association\" xmi:id=\"as\" name=\"as\"><memberEnd/></packagedElement>");
    ("unknown trigger kind", xmi (sm "<transition xmi:id=\"t\" source=\"a\" target=\"b\"><trigger kind=\"psychic\"/></transition>"));
    ("bad integer attribute", xmi (sm "<transition xmi:id=\"t\" source=\"a\" target=\"b\"><trigger kind=\"time\" after=\"soon\"/></transition>"));
    ("unknown transition kind", xmi (sm "<transition xmi:id=\"t\" source=\"a\" target=\"b\" kind=\"sideways\"/>"));
    ("unknown vertex type", xmi (sm "<subvertex xmi:type=\"uml:Blob\" xmi:id=\"v\" name=\"v\"/>"));
    ("vertex without xmi:type", xmi (sm "<subvertex xmi:id=\"v\" name=\"v\"/>"));
    ("unknown pseudostate kind", xmi (sm "<subvertex xmi:type=\"uml:Pseudostate\" xmi:id=\"v\" name=\"v\" kind=\"warp\"/>"));
    ("deferred trigger kind", xmi (sm "<subvertex xmi:type=\"uml:State\" xmi:id=\"v\" name=\"v\"><deferrableTrigger><trigger kind=\"psychic\"/></deferrableTrigger></subvertex>"));
    ("unknown activity node type", xmi (act "<node xmi:type=\"uml:Teleport\" xmi:id=\"n\" name=\"n\"/>"));
    ("bad upper bound", xmi (act "<node xmi:type=\"uml:CentralBufferNode\" xmi:id=\"n\" name=\"n\" upperBound=\"lots\"/>"));
    ("unknown edge type", xmi (act "<edge xmi:type=\"uml:DataFlow\" xmi:id=\"d\" source=\"a\" target=\"b\"/>"));
    ("bad edge weight", xmi (act "<edge xmi:type=\"uml:ControlFlow\" xmi:id=\"d\" source=\"a\" target=\"b\" weight=\"heavy\"/>"));
    ("unknown interaction operator", xmi (inter "<fragment xmi:id=\"f\" operator=\"maybe\"/>"));
    ("loop without minint", xmi (inter "<fragment xmi:id=\"f\" operator=\"loop\"/>"));
    ("unknown interaction element", xmi (inter "<fragment xmi:id=\"f\" operator=\"alt\"><operand xmi:id=\"o\"><bogus/></operand></fragment>"));
    ("unknown message sort", xmi (inter "<message xmi:id=\"g\" name=\"g\" sort=\"telepathy\" from=\"a\" to=\"b\"/>"));
    ("bad message argument", xmi (inter "<message xmi:id=\"g\" name=\"g\" sort=\"reply\" from=\"a\" to=\"b\"><argument valueKind=\"int\" value=\"one\"/></message>"));
    ("unknown connector kind", xmi (comp "<ownedConnector xmi:id=\"c0\" name=\"c0\" kind=\"glue\"/>"));
    ("connector end without port", xmi (comp "<ownedConnector xmi:id=\"c0\" name=\"c0\" kind=\"assembly\"><end/></ownedConnector>"));
    ("link without end", xmi "<packagedElement xmi:type=\"uml:Link\" xmi:id=\"l\" end1=\"a\"/>");
    ("unknown metaclass", xmi "<packagedElement xmi:type=\"uml:Profile\" xmi:id=\"p\" name=\"p\"><ownedStereotype xmi:id=\"s\" name=\"s\"><extension metaclass=\"Gizmo\"/></ownedStereotype></packagedElement>");
    ("tagValue without value", "<xmi:XMI><uml:Model name=\"m\"/><applications><stereotypeApplication element=\"a\" stereotype=\"s\"><tagValue name=\"t\"/></stereotypeApplication></applications></xmi:XMI>");
    ("unknown diagram kind", "<xmi:XMI><uml:Model name=\"m\"/><diagrams><diagram xmi:id=\"d\" name=\"d\" kind=\"doodle\"/></diagrams></xmi:XMI>");
    ("two defects: transition", xmi (sm "<transition xmi:id=\"t\" source=\"a\"><trigger kind=\"psychic\"/></transition>"));
    ("two defects: transition kind", xmi (sm "<transition xmi:id=\"t\" target=\"a\" kind=\"sideways\"/>"));
    ("two defects: property id", xmi (cls "<ownedAttribute name=\"a\" visibility=\"secret\"/>"));
    ("two defects: property name", xmi (cls "<ownedAttribute xmi:id=\"a\" isStatic=\"yes\"/>"));
    ("two defects: state", xmi (sm "<subvertex xmi:type=\"uml:State\" name=\"v\"><deferrableTrigger><trigger kind=\"psychic\"/></deferrableTrigger></subvertex>"));
    ("two defects: fragment", xmi (inter "<fragment xmi:id=\"f\" operator=\"maybe\"><operand xmi:id=\"o\"><fragment operator=\"alt\"/></operand></fragment>"));
    ("two defects: message", xmi (inter "<message xmi:id=\"g\" name=\"g\" sort=\"telepathy\" to=\"b\"/>"));
    ("two defects: classifier", xmi "<packagedElement xmi:type=\"uml:Class\" name=\"C\"><ownedAttribute xmi:id=\"a\" name=\"a\" visibility=\"secret\"/></packagedElement>");
    ("two defects: activity node", xmi (act "<node xmi:id=\"n\"/>"));
    ("three defects: property", xmi (cls "<ownedAttribute name=\"a\" visibility=\"secret\" isStatic=\"yes\"/>"));
    ("fragment nested 200 deep", xmi (inter (nest 200 (fun x -> "<fragment xmi:id=\"f\" operator=\"alt\"><operand xmi:id=\"o\">" ^ x ^ "</operand></fragment>") "<fragment operator=\"alt\"/>")));
    ("state nested 200 deep", xmi (sm (nest 200 (fun x -> "<subvertex xmi:type=\"uml:State\" xmi:id=\"s\" name=\"s\"><region xmi:id=\"q\" name=\"q\">" ^ x ^ "</region></subvertex>") "<subvertex xmi:type=\"uml:State\" name=\"s\"/>")));
  ]

(* Snapshot bodies are spelled out with the public [Snap.Wire.Enc]
   primitives, so each input sits exactly one defect away from a
   well-formed snapshot. *)
module E = Snap.Wire.Enc

let sumb body =
  let e = E.create () in
  body e;
  E.contents e

(* a model named "m" holding the given elements, applications, diagrams *)
let model_body ?(apps = []) ?(diagrams = []) elements e =
  E.str e "m";
  E.list e (fun e f -> f e) elements;
  E.list e (fun e f -> f e) apps;
  E.list e (fun e f -> f e) diagrams

let snap_model ?apps ?diagrams elements =
  sumb (model_body ?apps ?diagrams elements)

let head e id = E.str e id; E.str e id
let none e = E.bool e false

(* classifier "c" with the given class flags, attributes, operations *)
let classifier ?(flags = 0) ?(attrs = []) ?(ops = []) e =
  E.u8 e 0;
  head e "c";
  E.u8 e flags;
  E.list e (fun e f -> f e) attrs;
  E.list e (fun e f -> f e) ops;
  for _ = 1 to 4 do E.list e E.str [] done

let property ?(ty = 1) flags rest e =
  head e "p";
  E.u8 e ty;
  E.u8 e flags;
  rest e

let operation ?(params = []) flags e =
  head e "o";
  E.list e (fun e f -> f e) params;
  E.u8 e flags

(* state machine "sm" with one region holding the given vertices and
   transitions *)
let machine ?(vertices = []) ?(transitions = []) e =
  E.u8 e 3;
  head e "sm";
  E.list e
    (fun e () ->
      head e "r";
      E.list e (fun e f -> f e) vertices;
      E.list e (fun e f -> f e) transitions)
    [ () ];
  none e

let transition ?(triggers = []) ?(kind = 0) e =
  E.str e "t"; E.str e "a"; E.str e "b";
  E.list e (fun e f -> f e) triggers;
  none e; none e;
  E.u8 e kind

let activity ?(nodes = []) ?(edges = []) e =
  E.u8 e 4;
  head e "ac";
  E.list e (fun e f -> f e) nodes;
  E.list e (fun e f -> f e) edges;
  none e

let interaction body e =
  E.u8 e 5;
  head e "i";
  E.list e E.str [];
  E.list e (fun e f -> f e) body

let hostile_sumb =
  [
    ("bad magic", "<?xml version=\"1.0\"?><xmi:XMI/>");
    ("future version", Snap.Wire.magic ^ "\x63\x00");
    ("huge string table", Snap.Wire.magic ^ "\x01\xff\xff\xff\xff\xff\x7f");
    ("truncated header", Snap.Wire.magic);
    ("trailing bytes", snap_model [] ^ "\x00");
    ("string ref out of range", Snap.Wire.magic ^ "\x01\x00\x05");
    ("varint overflow", Snap.Wire.magic ^ "\x01\x00" ^ String.make 10 '\xff');
    ("unknown element tag", snap_model [ (fun e -> E.u8 e 15) ]);
    ("duplicate id", snap_model [ classifier; classifier ]);
    ("unknown value tag", snap_model [ classifier ~attrs:[ property 0x40 (fun e -> E.u8 e 9) ] ]);
    ("truncated float",
     sumb (fun e ->
         E.str e "m";
         E.varint e 1;
         E.u8 e 0;
         head e "c";
         E.u8 e 0;
         E.varint e 1;
         property 0x40 (fun e -> E.u8 e 1; E.u8 e 0; E.u8 e 0) e));
    ("unknown type tag", snap_model [ classifier ~attrs:[ property ~ty:9 0 ignore ] ]);
    ("unknown multiplicity bound tag", snap_model [ classifier ~attrs:[ property 0x80 (fun e -> E.int e 1; E.u8 e 2) ] ]);
    ("unknown aggregation tag", snap_model [ classifier ~attrs:[ property 0x30 ignore ] ]);
    ("unknown parameter flag byte", snap_model [ classifier ~ops:[ operation ~params:[ property ~ty:0 0x08 ignore ] 0 ] ]);
    ("unknown operation flag byte", snap_model [ classifier ~ops:[ operation 0x20 ] ]);
    ("unknown classifier flag byte", snap_model [ classifier ~flags:0x20 ]);
    ("unknown classifier kind tag", snap_model [ classifier ~flags:0x07 ]);
    ("unknown trigger tag", snap_model [ machine ~transitions:[ transition ~triggers:[ (fun e -> E.u8 e 4) ] ] ]);
    ("unknown transition kind tag", snap_model [ machine ~transitions:[ transition ~kind:3 ] ]);
    ("bad boolean byte", snap_model [ machine ~transitions:[ (fun e -> E.str e "t"; E.str e "a"; E.str e "b"; E.list e E.str []; E.u8 e 2) ] ]);
    ("unknown vertex tag", snap_model [ machine ~vertices:[ (fun e -> E.u8 e 3) ] ]);
    ("unknown pseudostate kind tag", snap_model [ machine ~vertices:[ (fun e -> E.u8 e 1; head e "v"; E.u8 e 10) ] ]);
    ("unknown activity node tag", snap_model [ activity ~nodes:[ (fun e -> E.u8 e 12) ] ]);
    ("unknown edge kind tag", snap_model [ activity ~edges:[ (fun e -> E.str e "d"; E.str e "a"; E.str e "b"; none e; E.int e 1; E.u8 e 2) ] ]);
    ("unknown interaction operator tag", snap_model [ interaction [ (fun e -> E.u8 e 1; E.str e "f"; E.u8 e 12) ] ]);
    ("unknown interaction element tag", snap_model [ interaction [ (fun e -> E.u8 e 2) ] ]);
    ("unknown message sort tag", snap_model [ interaction [ (fun e -> E.u8 e 0; head e "g"; E.u8 e 6) ] ]);
    ("unknown connector kind tag", snap_model [ (fun e -> E.u8 e 7; head e "k"; E.list e E.str []; E.list e E.str []; E.list e (fun e () -> head e "c0"; E.u8 e 2) [ () ]) ]);
    ("unknown node kind tag", snap_model [ (fun e -> E.u8 e 10; head e "n"; E.u8 e 3) ]);
    ("unknown metaclass tag", snap_model [ (fun e -> E.u8 e 14; head e "pr"; E.list e (fun e () -> head e "s"; E.list e E.u8 [ 16 ]) [ () ]) ]);
    ("unknown diagram kind tag", snap_model ~diagrams:[ (fun e -> head e "d"; E.u8 e 13) ] []);
  ]

(* Recorded outcomes, in corpus order. *)
let hostile_xmi_expected =
  [
    "Import_error: expected <xmi:XMI>, got <foo>";
    "Import_error: missing <uml:Model>";
    "Import_error: XML parse error at 1:30: unterminated element <uml:Model>";
    "Import_error: element <uml:Model> missing attribute name";
    "Import_error: <packagedElement> missing xmi:type";
    "Import_error: unknown element type uml:Alien";
    "Import_error: unknown element type uml:uml:";
    "Import_error: unknown element type uml:Alien";
    "Import_error: element <packagedElement> missing attribute xmi:id";
    "Invalid_argument: Model.add: duplicate identifier c";
    "Import_error: missing default payload for kind int";
    "Import_error: bad int literal x";
    "Import_error: bad real literal zz";
    "Import_error: bad bool literal yes";
    "Import_error: unknown value kind blob";
    "Import_error: type ref without target";
    "Import_error: unknown type kind Quaternion";
    "Import_error: bad multiplicity lower x";
    "Import_error: bad multiplicity upper many";
    "Import_error: bad boolean attribute isStatic=yes";
    "Import_error: unknown visibility secret";
    "Import_error: unknown aggregation loose";
    "Import_error: unknown direction sideways";
    "Import_error: element <ownedLiteral> missing attribute name";
    "Import_error: element <ownedReception> missing attribute signal";
    "Import_error: element <generalization> missing attribute ref";
    "Import_error: memberEnd without endProperty";
    "Import_error: unknown trigger kind psychic";
    "Import_error: bad integer attribute after";
    "Import_error: unknown transition kind sideways";
    "Import_error: unknown vertex type Blob";
    "Import_error: <subvertex> missing xmi:type";
    "Import_error: unknown pseudostate kind warp";
    "Import_error: unknown trigger kind psychic";
    "Import_error: unknown activity node type Teleport";
    "Import_error: bad integer attribute upperBound=lots";
    "Import_error: unknown edge type DataFlow";
    "Import_error: bad integer attribute weight=heavy";
    "Import_error: unknown interaction operator maybe";
    "Import_error: element <fragment> missing attribute minint";
    "Import_error: unknown interaction element <bogus>";
    "Import_error: unknown message sort telepathy";
    "Import_error: bad int literal one";
    "Import_error: unknown connector kind glue";
    "Import_error: element <end> missing attribute port";
    "Import_error: element <packagedElement> missing attribute end2";
    "Import_error: unknown metaclass Gizmo";
    "Import_error: tagValue without value";
    "Import_error: unknown diagram kind doodle";
    "Import_error: unknown trigger kind psychic";
    "Import_error: unknown transition kind sideways";
    "Import_error: unknown visibility secret";
    "Import_error: bad boolean attribute isStatic=yes";
    "Import_error: unknown trigger kind psychic";
    "Import_error: element <fragment> missing attribute xmi:id";
    "Import_error: element <message> missing attribute from";
    "Import_error: unknown visibility secret";
    "Import_error: <node> missing xmi:type";
    "Import_error: bad boolean attribute isStatic=yes";
    "Import_error: element <fragment> missing attribute xmi:id";
    "Import_error: element <subvertex> missing attribute xmi:id";
  ]

let hostile_sumb_expected =
  [
    "Import_error: not a model snapshot (bad magic bytes)";
    "Import_error: corrupt snapshot: unsupported snapshot format version 99 (this build reads version 1)";
    "Import_error: corrupt snapshot: string table count 4398046511103 exceeds input size";
    "Import_error: corrupt snapshot: truncated snapshot (input ends at byte 5)";
    "Import_error: corrupt snapshot: trailing bytes after model body (at byte 13)";
    "Import_error: corrupt snapshot: string reference 5 out of range (table has 0)";
    "Import_error: corrupt snapshot: varint overflow at byte 16";
    "Import_error: corrupt snapshot: unknown element tag 15";
    "Import_error: corrupt snapshot: Model.add: duplicate identifier c";
    "Import_error: corrupt snapshot: unknown value tag 9";
    "Import_error: corrupt snapshot: truncated snapshot (float at byte 25)";
    "Import_error: corrupt snapshot: unknown type tag 9";
    "Import_error: corrupt snapshot: unknown multiplicity bound tag 2";
    "Import_error: corrupt snapshot: unknown aggregation tag 3";
    "Import_error: corrupt snapshot: unknown parameter flag byte 0x08";
    "Import_error: corrupt snapshot: unknown operation flag byte 0x20";
    "Import_error: corrupt snapshot: unknown classifier flag byte 0x20";
    "Import_error: corrupt snapshot: unknown classifier kind tag 7";
    "Import_error: corrupt snapshot: unknown trigger tag 4";
    "Import_error: corrupt snapshot: unknown transition kind tag 3";
    "Import_error: corrupt snapshot: bad boolean byte 0x02";
    "Import_error: corrupt snapshot: unknown vertex tag 3";
    "Import_error: corrupt snapshot: unknown pseudostate kind tag 10";
    "Import_error: corrupt snapshot: unknown activity node tag 12";
    "Import_error: corrupt snapshot: unknown edge kind tag 2";
    "Import_error: corrupt snapshot: unknown interaction operator tag 12";
    "Import_error: corrupt snapshot: unknown interaction element tag 2";
    "Import_error: corrupt snapshot: unknown message sort tag 6";
    "Import_error: corrupt snapshot: unknown connector kind tag 2";
    "Import_error: corrupt snapshot: unknown node kind tag 3";
    "Import_error: corrupt snapshot: unknown metaclass tag 16";
    "Import_error: corrupt snapshot: unknown diagram kind tag 13";
  ]

(* [digests] joined with the builders: (name, build, xmi md5, sumb md5). *)
let pinned =
  List.map2
    (fun (name, build) (name', xmi_md5, snap_md5) ->
      assert (String.equal name name');
      (name, build, xmi_md5, snap_md5))
    models digests
