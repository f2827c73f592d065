(* Snapshot round-trip tests: a hand-built model covering every element
   kind, a qcheck differential against the XMI path, byte-determinism of
   the writer, and hostile-input rejection (bad magic, wrong version,
   truncation anywhere, arbitrary byte flips). *)

open Uml

let tc name f = Alcotest.test_case name `Quick f
let check = Alcotest.check

(* The kitchen-sink model is shared with [test_xmi]. *)
let kitchen_sink = Fixtures.kitchen_sink

let snap_roundtrip m = Snap.Read.model_of_string (Snap.Write.to_string m)
let xmi_roundtrip m = Xmi.Read.model_of_string (Xmi.Write.to_string m)

let expect_import_error what data =
  match Snap.Read.model_of_string data with
  | _m -> Alcotest.failf "%s: expected Import_error" what
  | exception Snap.Read.Import_error _ -> ()

let basic_tests =
  [
    tc "kitchen-sink model round-trips" (fun () ->
        let m = kitchen_sink () in
        check Alcotest.bool "equal" true (Model.equal m (snap_roundtrip m)));
    tc "snap and xmi paths agree on the kitchen sink" (fun () ->
        let m = kitchen_sink () in
        check Alcotest.bool "equal" true
          (Model.equal (snap_roundtrip m) (xmi_roundtrip m)));
    tc "round-trip preserves element order" (fun () ->
        let m = kitchen_sink () in
        let m' = snap_roundtrip m in
        check
          (Alcotest.list Alcotest.string)
          "ids"
          (List.map (fun e -> Model.element_id e) (Model.elements m))
          (List.map (fun e -> Model.element_id e) (Model.elements m')));
    tc "writer is deterministic" (fun () ->
        let m = kitchen_sink () in
        check Alcotest.string "same bytes" (Snap.Write.to_string m)
          (Snap.Write.to_string m));
    tc "write-read-write is the identity on bytes" (fun () ->
        let m = kitchen_sink () in
        let s1 = Snap.Write.to_string m in
        let s2 = Snap.Write.to_string (Snap.Read.model_of_string s1) in
        check Alcotest.string "same bytes" s1 s2);
    tc "empty model round-trips" (fun () ->
        let m = Model.create "empty" in
        check Alcotest.bool "equal" true (Model.equal m (snap_roundtrip m)));
    tc "snapshot is much smaller than the XMI text" (fun () ->
        let m = kitchen_sink () in
        let snap = String.length (Snap.Write.to_string m) in
        let xmi = String.length (Xmi.Write.to_string m) in
        if snap * 2 >= xmi then
          Alcotest.failf "snapshot %d bytes vs XMI %d bytes" snap xmi);
    tc "non-ASCII and control bytes in strings survive" (fun () ->
        let m = Model.create "m\xc3\xa9" in
        Model.add m
          (Model.E_classifier
             (Classifier.make
                ~operations:
                  [ Classifier.operation ~body:"a\x00b\nc\ttail" "f" ]
                "A<B> & \"C\"'s"));
        check Alcotest.bool "equal" true (Model.equal m (snap_roundtrip m)));
    tc "is_snapshot distinguishes formats" (fun () ->
        let m = Model.create "m" in
        check Alcotest.bool "snap" true
          (Snap.Read.is_snapshot (Snap.Write.to_string m));
        check Alcotest.bool "xmi" false
          (Snap.Read.is_snapshot (Xmi.Write.to_string m));
        check Alcotest.bool "empty" false (Snap.Read.is_snapshot "");
        check Alcotest.bool "prefix" false (Snap.Read.is_snapshot "\xd3SU"));
    tc "rejects empty input" (fun () -> expect_import_error "empty" "");
    tc "rejects bad magic" (fun () ->
        expect_import_error "bad magic" "<?xml version=\"1.0\"?><xmi:XMI/>");
    tc "rejects a future format version" (fun () ->
        let data = Bytes.of_string (Snap.Write.to_string (kitchen_sink ())) in
        Bytes.set data 5 '\x63';
        expect_import_error "version 99" (Bytes.to_string data));
    tc "rejects trailing bytes" (fun () ->
        let data = Snap.Write.to_string (Model.create "m") in
        expect_import_error "trailing" (data ^ "\x00"));
    tc "rejects a hostile string-table count" (fun () ->
        (* magic + version + varint claiming ~2^40 strings *)
        let data = Snap.Wire.magic ^ "\x01\xff\xff\xff\xff\xff\x7f" in
        expect_import_error "huge count" data);
    tc "rejects a negative string reference (9-byte varint, bit 62)" (fun () ->
        (* version 1, empty table; the model-name reference decodes to
           -2^62 — previously an out-of-bounds [Array.unsafe_get] *)
        let data =
          Snap.Wire.magic ^ "\x01\x00" ^ String.make 8 '\x80' ^ "\x40"
        in
        expect_import_error "negative str ref" data);
    tc "rejects a negative list count" (fun () ->
        (* version 1, table ["m"], name ref 0, then an element-list
           count of -2^62 — previously unbounded non-tail recursion *)
        let data =
          Snap.Wire.magic ^ "\x01\x01\x01m\x00" ^ String.make 8 '\x80' ^ "\x40"
        in
        expect_import_error "negative list count" data);
    tc "every strict prefix is rejected" (fun () ->
        let data = Snap.Write.to_string (kitchen_sink ()) in
        for n = 0 to String.length data - 1 do
          expect_import_error
            (Printf.sprintf "prefix of length %d" n)
            (String.sub data 0 n)
        done);
  ]

(* Wire-primitive edge cases: varint sign rejection (a 9th byte can set
   bit 62, the native sign bit) and the full-width zigzag int path. *)

let expect_decode_error what f =
  match f () with
  | _ -> Alcotest.failf "%s: expected Decode_error" what
  | exception Snap.Wire.Decode_error _ -> ()

(* -2^62: eight continuation bytes of payload 0, then bit 62 *)
let neg_varint = String.make 8 '\x80' ^ "\x40"

(* Encode with [Enc.int], decode back through the public header path
   (magic + version byte + empty string table). *)
let int_roundtrip v =
  let e = Snap.Wire.Enc.create () in
  Snap.Wire.Enc.int e v;
  let d =
    Snap.Wire.Dec.make ~pos:(String.length Snap.Wire.magic)
      (Snap.Wire.Enc.contents e)
  in
  let (_ : int) = Snap.Wire.Dec.u8 d in
  let (_ : int) = Snap.Wire.Dec.varint d in
  Snap.Wire.Dec.int d

let int_extremes =
  [ min_int; min_int + 1; -(1 lsl 61) - 1; -(1 lsl 61); -(1 lsl 61) + 1;
    -1; 0; 1; (1 lsl 61) - 1; 1 lsl 61; max_int - 1; max_int ]

let wire_tests =
  [
    tc "varint rejects encodings that set bit 62" (fun () ->
        expect_decode_error "0x80*8,0x40" (fun () ->
            Snap.Wire.Dec.varint (Snap.Wire.Dec.make neg_varint));
        (* all 63 bits set: decodes to -1 *)
        expect_decode_error "0xff*8,0x7f" (fun () ->
            Snap.Wire.Dec.varint
              (Snap.Wire.Dec.make (String.make 8 '\xff' ^ "\x7f")));
        (* max_int is the largest legal varint *)
        check Alcotest.int "max_int" max_int
          (Snap.Wire.Dec.varint
             (Snap.Wire.Dec.make (String.make 8 '\xff' ^ "\x3f"))));
    tc "a negative string reference raises Decode_error" (fun () ->
        let d = Snap.Wire.Dec.make neg_varint in
        Snap.Wire.Dec.set_table d [| "only" |];
        expect_decode_error "str" (fun () -> Snap.Wire.Dec.str d));
    tc "a negative list count raises Decode_error" (fun () ->
        let d = Snap.Wire.Dec.make (neg_varint ^ String.make 64 '\x00') in
        expect_decode_error "list" (fun () ->
            Snap.Wire.Dec.list d Snap.Wire.Dec.u8));
    tc "a huge string length is a Decode_error, not Invalid_argument"
      (fun () ->
        (* length max_int: [pos + n] would wrap past the bounds check *)
        let d = Snap.Wire.Dec.make (String.make 8 '\xff' ^ "\x3fxyz") in
        expect_decode_error "raw_string" (fun () ->
            Snap.Wire.Dec.raw_string d));
    tc "full-width ints round-trip at the wire level" (fun () ->
        List.iter
          (fun v -> check Alcotest.int (string_of_int v) v (int_roundtrip v))
          int_extremes);
    tc "int extremes survive a model snapshot and agree with XMI" (fun () ->
        let m = Model.create "ints" in
        Model.add m
          (Model.E_classifier
             (Classifier.make
                ~attributes:
                  (List.mapi
                     (fun i v ->
                       Classifier.property ~default:(Vspec.of_int v)
                         (Printf.sprintf "a%d" i) Dtype.Integer)
                     int_extremes)
                "Extremes"));
        check Alcotest.bool "snap" true (Model.equal m (snap_roundtrip m));
        check Alcotest.bool "agree" true
          (Model.equal (snap_roundtrip m) (xmi_roundtrip m)));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"wire int round-trip over the full int range"
         ~count:200 QCheck.int (fun v -> int_roundtrip v = v));
  ]

(* A generated model large enough to exercise interning but cheap enough
   for a per-case qcheck property. *)
let gen_model seed = Workload.Gen_model.structural ~seed ~classes:12

let behavioral_model seed =
  let m = Model.create "m" in
  Model.add m
    (Model.E_state_machine
       (Workload.Gen_statechart.hierarchical ~seed ~depth:3 ~breadth:2
          ~events:3));
  Model.add m
    (Model.E_activity
       (Workload.Gen_activity.with_decisions ~seed ~size:15 ~max_width:3));
  m

let property_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"generated structural models round-trip"
         ~count:20
         QCheck.(int_range 1 10_000)
         (fun seed ->
           let m = gen_model seed in
           Model.equal m (snap_roundtrip m)));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"generated behavioral models round-trip"
         ~count:20
         QCheck.(int_range 1 10_000)
         (fun seed ->
           let m = behavioral_model seed in
           Model.equal m (snap_roundtrip m)));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"snap path agrees with xmi path" ~count:15
         QCheck.(int_range 1 10_000)
         (fun seed ->
           let m = gen_model seed in
           Model.equal (snap_roundtrip m) (xmi_roundtrip m)));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"write-read-write is byte-identical" ~count:15
         QCheck.(int_range 1 10_000)
         (fun seed ->
           let m = gen_model seed in
           let s1 = Snap.Write.to_string m in
           let s2 = Snap.Write.to_string (Snap.Read.model_of_string s1) in
           String.equal s1 s2));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make
         ~name:"single-byte corruption never escapes Import_error" ~count:60
         QCheck.(triple (int_range 1 10_000) (int_range 0 1_000_000) (int_range 0 255))
         (fun (seed, posf, byte) ->
           let m = gen_model seed in
           let data = Bytes.of_string (Snap.Write.to_string m) in
           let pos = posf mod Bytes.length data in
           Bytes.set data pos (Char.chr byte);
           match Snap.Read.model_of_string (Bytes.to_string data) with
           | _m -> true (* flip happened to stay well-formed *)
           | exception Snap.Read.Import_error _ -> true
           | exception _ -> false));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"random truncation is rejected" ~count:40
         QCheck.(pair (int_range 1 10_000) (int_range 0 1_000_000))
         (fun (seed, posf) ->
           let m = gen_model seed in
           let data = Snap.Write.to_string m in
           let n = posf mod String.length data in
           match Snap.Read.model_of_string (String.sub data 0 n) with
           | _m -> false
           | exception Snap.Read.Import_error _ -> true));
  ]

(* The codec contract in {!Fixtures}: snapshot bytes of every pinned
   model, and the exact diagnostic of every hostile snapshot. *)
let contract_tests =
  List.map
    (fun (name, build, _xmi_md5, snap_md5) ->
      tc name (fun () ->
          check Alcotest.string "sumb md5" snap_md5
            (Fixtures.hex (Snap.Write.to_string (Fixtures.fresh build)))))
    Fixtures.pinned

let hostile_tests =
  List.map2
    (fun (name, data) expected ->
      tc name (fun () ->
          check Alcotest.string "outcome" expected
            (Fixtures.outcome Snap.Read.model_of_string data)))
    Fixtures.hostile_sumb Fixtures.hostile_sumb_expected

let () =
  Alcotest.run "snap"
    [
      ("roundtrip", basic_tests);
      ("wire", wire_tests);
      ("properties", property_tests);
      ("contract", contract_tests);
      ("hostile", hostile_tests);
    ]
