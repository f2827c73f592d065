(* XMI round-trip tests: a hand-built model covering every element kind
   plus property tests over generated models. *)

open Uml

let tc name f = Alcotest.test_case name `Quick f
let check = Alcotest.check

(* The kitchen-sink model is shared with [test_snap]. *)
let kitchen_sink = Fixtures.kitchen_sink

let roundtrip m =
  Xmi.Read.model_of_string (Xmi.Write.to_string m)

let snap_roundtrip m = Snap.Read.model_of_string (Snap.Write.to_string m)

(* the default of a one-attribute class, through [trip] *)
let real_roundtrip trip r =
  let m = Model.create "m" in
  Model.add m
    (Model.E_classifier
       (Classifier.make
          ~attributes:
            [
              Classifier.property ~default:(Vspec.Real_literal r) "x"
                Dtype.Real;
            ]
          "C"));
  match Model.elements (trip m) with
  | [ Model.E_classifier
        { Classifier.cl_attributes =
            [ { Classifier.prop_default = Some (Vspec.Real_literal x); _ } ];
          _ } ] ->
    x
  | _other -> Alcotest.fail "real literal lost"

let contains s sub =
  let n = String.length sub in
  let rec go i =
    i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
  in
  go 0

let real_corners =
  [ 0.1 +. 0.2; 1. /. 3.; -0.; 0.; infinity; neg_infinity; max_float;
    min_float; Float.epsilon; 5e-324; -1e300; 2.5; 1e22; 123456789.123456789 ]

let operator_model op =
  let m = Model.create "m" in
  Model.add m
    (Model.E_interaction
       (Interaction.make "seq" []
          [
            Interaction.Fragment
              (Interaction.fragment op [ Interaction.operand [] ]);
          ]));
  m

let basic_tests =
  [
    tc "kitchen-sink model round-trips" (fun () ->
        let m = kitchen_sink () in
        let m' = roundtrip m in
        check Alcotest.bool "equal" true (Model.equal m m'));
    tc "round-trip preserves element order" (fun () ->
        let m = kitchen_sink () in
        let m' = roundtrip m in
        check
          (Alcotest.list Alcotest.string)
          "ids"
          (List.map (fun e -> Model.element_id e) (Model.elements m))
          (List.map (fun e -> Model.element_id e) (Model.elements m')));
    tc "export is deterministic" (fun () ->
        let m = kitchen_sink () in
        check Alcotest.string "same" (Xmi.Write.to_string m)
          (Xmi.Write.to_string m));
    tc "write-read-write is idempotent" (fun () ->
        let m = kitchen_sink () in
        let s1 = Xmi.Write.to_string m in
        let s2 = Xmi.Write.to_string (Xmi.Read.model_of_string s1) in
        check Alcotest.string "same text" s1 s2);
    tc "empty model round-trips" (fun () ->
        let m = Model.create "empty" in
        check Alcotest.bool "equal" true (Model.equal m (roundtrip m)));
    tc "special characters in names survive" (fun () ->
        let m = Model.create "m" in
        Model.add m (Model.E_classifier (Classifier.make "A<B> & \"C\"'s"));
        check Alcotest.bool "equal" true (Model.equal m (roundtrip m)));
    tc "opaque bodies with newlines survive" (fun () ->
        let m = Model.create "m" in
        Model.add m
          (Model.E_classifier
             (Classifier.make
                ~operations:
                  [
                    Classifier.operation
                      ~body:"x := 1;\nif x > 0 then\n  x := 2;\nend;" "f";
                  ]
                "A"));
        check Alcotest.bool "equal" true (Model.equal m (roundtrip m)));
    tc "real literals keep every bit" (fun () ->
        List.iter
          (fun r ->
            check Alcotest.int64 (Printf.sprintf "%h" r) (Int64.bits_of_float r)
              (Int64.bits_of_float (real_roundtrip roundtrip r)))
          real_corners);
    tc "message names with commas and backslashes survive" (fun () ->
        List.iter
          (fun names ->
            let m = operator_model (Interaction.Ignore names) in
            check Alcotest.bool (String.concat "|" names) true
              (Model.equal m (roundtrip m)))
          [
            [ "a,b" ]; [ "" ]; [ ""; "" ]; [ "a\\" ]; [ "\\," ]; [];
            [ "a"; "" ];
          ]);
    tc "plain message names keep their text" (fun () ->
        let m = operator_model (Interaction.Consider [ "m1"; "m2" ]) in
        let text = Xmi.Write.to_string m in
        check Alcotest.bool "messages=\"m1,m2\"" true
          (contains text "messages=\"m1,m2\""));
    tc "import rejects non-XMI documents" (fun () ->
        match Xmi.Read.model_of_string "<foo/>" with
        | _m -> Alcotest.fail "expected Import_error"
        | exception Xmi.Read.Import_error _ -> ());
    tc "import rejects missing model" (fun () ->
        match Xmi.Read.model_of_string "<xmi:XMI/>" with
        | _m -> Alcotest.fail "expected Import_error"
        | exception Xmi.Read.Import_error _ -> ());
    tc "import rejects unknown element types" (fun () ->
        let text =
          "<xmi:XMI><uml:Model name=\"m\">\n\
           <packagedElement xmi:type=\"uml:Alien\" xmi:id=\"e1\" name=\"x\"/>\n\
           </uml:Model></xmi:XMI>"
        in
        match Xmi.Read.model_of_string text with
        | _m -> Alcotest.fail "expected Import_error"
        | exception Xmi.Read.Import_error _ -> ());
  ]

let property_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"generated structural models round-trip"
         ~count:20
         QCheck.(int_range 1 10_000)
         (fun seed ->
           let m = Workload.Gen_model.structural ~seed ~classes:15 in
           Model.equal m (roundtrip m)));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"generated machines round-trip" ~count:20
         QCheck.(int_range 1 10_000)
         (fun seed ->
           let m = Model.create "m" in
           Model.add m
             (Model.E_state_machine
                (Workload.Gen_statechart.hierarchical ~seed ~depth:3
                   ~breadth:2 ~events:3));
           Model.equal m (roundtrip m)));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make
         ~name:"write-read-write is idempotent on generated models" ~count:15
         QCheck.(int_range 1 10_000)
         (fun seed ->
           let m = Workload.Gen_model.structural ~seed ~classes:10 in
           let s1 = Xmi.Write.to_string m in
           let s2 = Xmi.Write.to_string (Xmi.Read.model_of_string s1) in
           s1 = s2));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"generated activities round-trip" ~count:20
         QCheck.(int_range 1 10_000)
         (fun seed ->
           let m = Model.create "m" in
           Model.add m
             (Model.E_activity
                (Workload.Gen_activity.with_decisions ~seed ~size:15
                   ~max_width:3));
           Model.equal m (roundtrip m)));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"real literals round-trip bit-exact" ~count:2000
         QCheck.(oneof [ float; oneofl real_corners ])
         (fun r ->
           QCheck.assume (not (Float.is_nan r));
           let bits = Int64.bits_of_float in
           let x = real_roundtrip roundtrip r in
           let s = real_roundtrip snap_roundtrip r in
           Int64.equal (bits x) (bits r) && Int64.equal (bits x) (bits s)));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"message lists agree with the snapshot path"
         ~count:1000
         QCheck.(
           pair bool
             (list_of_size (Gen.int_range 0 4)
                (string_gen_of_size (Gen.int_range 0 3)
                   (Gen.oneofl [ ','; '\\'; 'm'; '1' ]))))
         (fun (ignore, names) ->
           let op =
             if ignore then Interaction.Ignore names
             else Interaction.Consider names
           in
           let m = operator_model op in
           Model.equal (roundtrip m) (snap_roundtrip m)
           && Model.equal m (roundtrip m)));
  ]

(* The codec contract in {!Fixtures}: XMI bytes of every pinned model,
   and the exact diagnostic of every hostile document. *)
let contract_tests =
  List.map
    (fun (name, build, xmi_md5, _snap_md5) ->
      tc name (fun () ->
          check Alcotest.string "xmi md5" xmi_md5
            (Fixtures.hex (Xmi.Write.to_string (Fixtures.fresh build)))))
    Fixtures.pinned

let hostile_tests =
  List.map2
    (fun (name, data) expected ->
      tc name (fun () ->
          check Alcotest.string "outcome" expected
            (Fixtures.outcome Xmi.Read.model_of_string data)))
    Fixtures.hostile_xmi Fixtures.hostile_xmi_expected

let () =
  Alcotest.run "xmi"
    [
      ("roundtrip", basic_tests);
      ("properties", property_tests);
      ("contract", contract_tests);
      ("hostile", hostile_tests);
    ]
