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

(* Differential property: the tree-based reader kept in
   [Oracles.Xmi_read_ref] against [Xmi.Read], on XMI-level mutations of
   generated models.  Each case applies one to three edits to the
   document tree (drop an attribute, junk a value, rename a tag, drop or
   duplicate a child, strip [xmi:type], put an entity or a character
   reference into a value; two edits to one element, or one to each of
   two siblings) and demands the same model or the same diagnostic. *)

type import =
  | Imported of Model.t
  | Refused of string

let import load data =
  match load data with
  | m -> Imported m
  | exception Xmi.Read.Import_error msg -> Refused ("Import_error: " ^ msg)
  | exception Oracles.Xmi_read_ref.Import_error msg ->
    Refused ("Import_error: " ^ msg)
  | exception Invalid_argument msg -> Refused ("Invalid_argument: " ^ msg)

let same_import a b =
  match (a, b) with
  | Imported m, Imported m' -> Model.equal m m'
  | Refused e, Refused e' -> String.equal e e'
  | Imported _, Refused _ | Refused _, Imported _ -> false

let show_import = function
  | Imported _ -> "a model"
  | Refused e -> e

let diff_models =
  [|
    (fun seed -> Workload.Gen_model.structural ~seed ~classes:4);
    (fun seed -> Workload.Gen_model.stereotyped ~seed ~classes:3);
    (fun seed ->
      let m = Model.create "m" in
      Model.add m
        (Model.E_state_machine
           (Workload.Gen_statechart.hierarchical ~seed ~depth:2 ~breadth:2
              ~events:3));
      m);
    (fun seed ->
      let m = Model.create "m" in
      Model.add m
        (Model.E_activity
           (Workload.Gen_activity.with_decisions ~seed ~size:8 ~max_width:2));
      m);
    (fun _seed -> kitchen_sink ());
  |]

let junk_values =
  [ ""; "x"; "-1"; "0"; "7"; "1.5"; "true"; "yes"; "uml:"; "uml:Class";
    "uml:State"; "uml:Pseudostate"; "Class"; "int"; "real"; "ref"; "none";
    "in"; "99999999999999999999"; "0x10"; "+3"; " 7"; "1_000"; "nan";
    "a,b"; "composite"; "ControlFlow"; "alt"; "loop"; "time"; "class" ]

(* Stands for "the next byte, as a decimal character reference"; see
   [char_refs]. *)
let char_ref_mark = '\001'

let char_refs s =
  let b = Buffer.create (String.length s) in
  let n = String.length s in
  let rec go i =
    if i < n then
      if s.[i] = char_ref_mark && i + 1 < n then begin
        Buffer.add_string b (Printf.sprintf "&#%d;" (Char.code s.[i + 1]));
        go (i + 2)
      end
      else begin
        Buffer.add_char b s.[i];
        go (i + 1)
      end
  in
  go 0;
  Buffer.contents b

let rec elements_of = function
  | Sxml.Doc.Text _ -> 0
  | Sxml.Doc.Element e ->
    List.fold_left (fun acc c -> acc + elements_of c) 1 e.Sxml.Doc.children

let rec tags_in acc = function
  | Sxml.Doc.Text _ -> acc
  | Sxml.Doc.Element e ->
    let acc =
      if List.mem e.Sxml.Doc.tag acc then acc else e.Sxml.Doc.tag :: acc
    in
    List.fold_left tags_in acc e.Sxml.Doc.children

(* [f] applied to the [n]th element in preorder *)
let map_nth n f doc =
  let k = ref n in
  let rec go node =
    match node with
    | Sxml.Doc.Text _ -> node
    | Sxml.Doc.Element e ->
      let me = !k in
      decr k;
      if me = 0 then Sxml.Doc.Element (f e)
      else
        Sxml.Doc.Element { e with Sxml.Doc.children = List.map go e.children }
  in
  go doc

(* [l] split around its [i]th item satisfying [p] *)
let nth_where p l i =
  let rec split j acc = function
    | [] -> (List.rev acc, None, [])
    | x :: rest when p x ->
      if j = i then (List.rev acc, Some x, rest)
      else split (j + 1) (x :: acc) rest
    | x :: rest -> split j (x :: acc) rest
  in
  split 0 [] l

let is_element = function
  | Sxml.Doc.Element _ -> true
  | Sxml.Doc.Text _ -> false

(* One edit to the attributes of [e]. *)
let edit_attrs rng (e : Sxml.Doc.element) =
  let attrs = e.Sxml.Doc.attrs in
  let n = List.length attrs in
  let at = if n = 0 then 0 else Workload.Prng.int rng n in
  let set f =
    { e with
      Sxml.Doc.attrs = List.mapi (fun i (k, v) -> if i = at then (k, f v) else (k, v)) attrs }
  in
  match Workload.Prng.int rng 5 with
  | _ when n = 0 -> e
  | 0 -> { e with Sxml.Doc.attrs = List.filteri (fun i _ -> i <> at) attrs }
  | 1 -> set (fun _ -> Workload.Prng.pick rng junk_values)
  | 2 ->
    { e with
      Sxml.Doc.attrs = List.filter (fun (k, _) -> k <> "xmi:type") attrs }
  | 3 ->
    (* a character reference for one byte: the value reads the same *)
    set (fun v ->
        if v = "" then v
        else
          let i = Workload.Prng.int rng (String.length v) in
          String.sub v 0 i ^ String.make 1 char_ref_mark
          ^ String.sub v i (String.length v - i))
  | _ ->
    (* a byte the printer writes as an entity reference *)
    set (fun v ->
        let i = Workload.Prng.int rng (String.length v + 1) in
        String.sub v 0 i
        ^ Workload.Prng.pick rng [ "&"; "<"; ">"; "\""; "'" ]
        ^ String.sub v i (String.length v - i))

(* One edit to [e] itself: its attributes, its tag or its children. *)
let edit_element rng tags (e : Sxml.Doc.element) =
  let kids = List.length (List.filter is_element e.Sxml.Doc.children) in
  match Workload.Prng.int rng 4 with
  | 0 -> { e with Sxml.Doc.tag = Workload.Prng.pick rng ("bogus" :: tags) }
  | 1 when kids > 0 ->
    let before, _, after =
      nth_where is_element e.Sxml.Doc.children (Workload.Prng.int rng kids)
    in
    { e with Sxml.Doc.children = before @ after }
  | 2 when kids > 0 -> (
    let before, c, after =
      nth_where is_element e.Sxml.Doc.children (Workload.Prng.int rng kids)
    in
    match c with
    | Some c -> { e with Sxml.Doc.children = before @ (c :: c :: after) }
    | None -> e)
  | _ -> edit_attrs rng e

(* Two edits to two sibling elements of [e]. *)
let edit_siblings rng tags (e : Sxml.Doc.element) =
  let kids = List.length (List.filter is_element e.Sxml.Doc.children) in
  if kids < 2 then edit_element rng tags e
  else
    let i = Workload.Prng.int rng kids in
    let j = (i + 1 + Workload.Prng.int rng (kids - 1)) mod kids in
    let k = ref (-1) in
    { e with
      Sxml.Doc.children =
        List.map
          (fun c ->
            match c with
            | Sxml.Doc.Text _ -> c
            | Sxml.Doc.Element ce ->
              incr k;
              if !k = i || !k = j then Sxml.Doc.Element (edit_element rng tags ce)
              else c)
          e.Sxml.Doc.children }

let mutated_xmi seed =
  let rng = Workload.Prng.create seed in
  let build = diff_models.(Workload.Prng.int rng (Array.length diff_models)) in
  let doc = Xmi.Write.to_xml (Fixtures.fresh (fun () -> build seed)) in
  let tags = tags_in [] doc in
  let edit doc =
    let n = Workload.Prng.int rng (elements_of doc) in
    let f =
      match Workload.Prng.int rng 4 with
      | 0 -> fun e -> edit_attrs rng (edit_attrs rng e)
      | 1 -> edit_siblings rng tags
      | _ -> edit_element rng tags
    in
    map_nth n f doc
  in
  let rec go k doc = if k = 0 then doc else go (k - 1) (edit doc) in
  let doc = go (1 + Workload.Prng.int rng 3) doc in
  char_refs (Sxml.Doc.to_string doc)

let differential_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"mutated XMI imports as the tree reader does"
         ~count:600
         QCheck.(int_range 1 1_000_000)
         (fun seed ->
           let data = mutated_xmi seed in
           let got = import Xmi.Read.model_of_string data
           and want = import Oracles.Xmi_read_ref.model_of_string data in
           same_import got want
           || QCheck.Test.fail_reportf "reader: %s\noracle: %s\n%s"
                (show_import got) (show_import want) data));
    tc "every hostile document imports as the tree reader does" (fun () ->
        List.iter
          (fun (name, data) ->
            check Alcotest.string name
              (show_import (import Oracles.Xmi_read_ref.model_of_string data))
              (show_import (import Xmi.Read.model_of_string data)))
          Fixtures.hostile_xmi);
  ]

let () =
  Alcotest.run "xmi"
    [
      ("roundtrip", basic_tests);
      ("properties", property_tests);
      ("contract", contract_tests);
      ("hostile", hostile_tests);
      ("differential", differential_tests);
    ]
