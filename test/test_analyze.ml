(* `analyze` and `lint` output over generated activity models, pinned
   by digest: state counts straddling every exploration limit the
   toolchain uses (4 096 for the ACT lint rules, 5 000 for analyze's
   reachability report, 10 000 for Karp–Miller), spaces of exactly
   those sizes, unbounded and deadlocking activities, and seeded
   workload activities.  Plus the budget contract of analyze: which
   markings a fuel budget pays for. *)

open Uml

let tc name f = Alcotest.test_case name `Quick f
let check = Alcotest.check

let edge a b =
  Activityg.edge ~source:(Activityg.node_id a) ~target:(Activityg.node_id b) ()

(* [from] -> n1 -> ... -> nk -> [into] *)
let rec link from nodes into =
  match nodes with
  | n :: rest -> edge from n :: link n rest into
  | [] -> [ edge from into ]

(* A fork, one chain of actions per entry of [lengths], and their join:
   (nodes, edges, fork, join). *)
let section lengths =
  let fork = Activityg.fork "fork" and join = Activityg.join "join" in
  let chains =
    List.mapi
      (fun b length ->
        List.init length (fun i ->
            Activityg.action (Printf.sprintf "a%d_%d" b i)))
      lengths
  in
  ( (fork :: join :: List.concat chains),
    List.concat_map (fun chain -> link fork chain join) chains,
    fork,
    join )

(* initial -> [pre] actions -> [section lengths] -> final, reaching
   prod (length + 1) + pre + 4 markings. *)
let fork_activity ?(pre = 0) name lengths =
  let init = Activityg.initial () and final = Activityg.activity_final () in
  let lead =
    List.init pre (fun i -> Activityg.action (Printf.sprintf "p%d" i))
  in
  let nodes, edges, fork, join = section lengths in
  Activityg.make name
    ((init :: final :: lead) @ nodes)
    ((edge join final :: link init lead fork) @ edges)

(* Edges from [init] to [entry], through a fork/join section when
   [lengths] is given: (section nodes, edges). *)
let lead_in ?lengths init entry =
  match lengths with
  | None -> ([], [ edge init entry ])
  | Some lengths ->
    let nodes, edges, fork, join = section lengths in
    (nodes, edge init fork :: edge join entry :: edges)

(* A merge-based loop around a fork: every lap leaves one more token on
   the fork's exit edge, so the token flow is unbounded (ACT-02). *)
let pump ?lengths name =
  let init = Activityg.initial () in
  let mg = Activityg.merge "m" and a = Activityg.action "a" in
  let f = Activityg.fork "f" and b = Activityg.action "b" in
  let nodes, edges = lead_in ?lengths init mg in
  Activityg.make name
    (init :: mg :: a :: f :: b :: nodes)
    (edge mg a :: edge a f :: edge f mg :: edge f b :: edges)

(* A decision feeds only one branch of a two-input join: a reachable
   stuck marking (ACT-01), and the join can never fire (ACT-03). *)
let starved_join ?lengths name =
  let init = Activityg.initial () in
  let d = Activityg.decision "d" in
  let a1 = Activityg.action "a1" and a2 = Activityg.action "a2" in
  let j = Activityg.join "j" and final = Activityg.activity_final () in
  let nodes, edges = lead_in ?lengths init d in
  Activityg.make name
    (init :: d :: a1 :: a2 :: j :: final :: nodes)
    (edge d a1 :: edge d a2 :: edge a1 j :: edge a2 j :: edge j final :: edges)

(* A named model and its builder.  Activities are thunks so that they are
   built, and take their identifiers, in list order. *)
let model name activities =
  ( name,
    fun () ->
      let m = Model.create name in
      List.iter (fun act -> Model.add m (Model.E_activity (act ()))) activities;
      m )

let forks =
  List.map
    (fun (b, l) ->
      let name = Printf.sprintf "fork-%dx%d" b l in
      model name [ (fun () -> fork_activity name (List.init b (fun _ -> l))) ])
    [
      (2, 62); (2, 63); (2, 69); (2, 70); (2, 99); (2, 100);
      (3, 15); (3, 16); (3, 20); (3, 21); (4, 8);
    ]

(* exactly 4 096, 5 000 and 10 000 reachable markings *)
let exact =
  List.map
    (fun (states, pre, lengths) ->
      let name = Printf.sprintf "fork-exact-%d" states in
      model name [ (fun () -> fork_activity ~pre name lengths) ])
    [ (4096, 0, [ 61; 65 ]); (5000, 4, [ 63; 77 ]); (10000, 0, [ 97; 101 ]) ]

let generated =
  let seeded prefix gen =
    List.map (fun (seed, size, max_width) ->
        model
          (Printf.sprintf "%s-%d-%d-%d" prefix seed size max_width)
          [ (fun () -> gen ~seed ~size ~max_width) ])
  in
  seeded "sp" Workload.Gen_activity.series_parallel
    [ (1, 12, 3); (2, 12, 3); (8, 12, 3); (3, 40, 4); (5, 24, 4); (8, 24, 4) ]
  @ seeded "spd" Workload.Gen_activity.with_decisions
      [ (1, 40, 4); (2, 12, 3); (2, 24, 4); (5, 40, 4); (3, 40, 4); (8, 40, 4) ]

let models =
  forks @ exact
  @ [
      model "pump" [ (fun () -> pump "pump") ];
      model "pump-behind-fork" [ (fun () -> pump ~lengths:[ 6; 6; 6 ] "pbf") ];
      model "starved-join" [ (fun () -> starved_join "broken") ];
      (* the stuck markings lie inside and beyond ACT's 4 096 limit *)
      model "starved-behind-fork-2x62"
        [ (fun () -> starved_join ~lengths:[ 62; 62 ] "sbf") ];
      model "starved-behind-fork-2x63"
        [ (fun () -> starved_join ~lengths:[ 63; 63 ] "sbf") ];
      model "several"
        [
          (fun () -> fork_activity "wide" [ 63; 63 ]);
          (fun () -> starved_join "broken");
          (fun () -> pump "pump");
          (fun () ->
            Workload.Gen_activity.series_parallel ~seed:3 ~size:40
              ~max_width:4);
        ];
    ]
  @ generated

let fresh build =
  Ident.reset_counter ();
  build ()

(* One op run in-process, as the CLI runs it: exit code, stdout and
   stderr in one comparable string. *)
let run op m =
  let out = Buffer.create 1024 and err = Buffer.create 64 in
  let sink =
    { Serve.Ops.s_out = Buffer.add_string out; s_err = Buffer.add_string err }
  in
  let load _ = Ok (Serve.Artifacts.of_model m) in
  let code = Serve.Ops.guarded sink (fun () -> op sink load) in
  Printf.sprintf "exit %d\n%s--- stderr\n%s" code (Buffer.contents out)
    (Buffer.contents err)

let analyze ~metrics =
  run (fun sink load ->
      Serve.Ops.analyze sink
        ~metrics:(if metrics then Some (Telemetry.Metrics.create ()) else None)
        ~only:[] ~disable:[] ~jobs:1 load "model.xmi")

let lint =
  run (fun sink load ->
      Serve.Ops.lint sink ~format:`Text ~only:[] ~disable:[] ~no_hdl:false
        ~jobs:1 load [ "model.xmi" ])

let hex s = Digest.to_hex (Digest.string s)

(* (model, MD5 of `analyze`, of `analyze --metrics`, of `lint`), pinned
   at the commit before analyze and the ACT rules shared one
   exploration per activity. *)
let digests =
  [
    ("fork-2x62", ("d02d1e760cb681f58863819825ed952e", "57ac98b59879023ffb9ea3e58ded4e3f", "341c4da8b71ca86e7651ec5341690991"));
    ("fork-2x63", ("fea755f21c2feb2beaa2ecdb4887538d", "d73e3dcff72aed73d6c0c576bec82881", "67af1871ba1343dc3a5de21e2014f2f3"));
    ("fork-2x69", ("03cdcc25ad06a631dfa614a82a3d6cd8", "378f8000ee73fb918a00f75181d4d413", "49b145d22aa1fd00e2fa40d20725329e"));
    ("fork-2x70", ("19b424726df8f948632504ef5bcd5f10", "fe826de8ec12e6fadf91111eba1efdd0", "907c0cb22dff8f6659671016a9b8d92c"));
    ("fork-2x99", ("70b3cde62441895fe9a2c37639014db3", "89828448682a53eb5958a8efd193257b", "a8579f6eea71f671854b1ada73314f0e"));
    ("fork-2x100", ("590e3c815c1e7eccd954ed2c107816b8", "dc391a4482c773677489ce348d254a53", "ad0a038a49e331cda6bfcc678b337e3b"));
    ("fork-3x15", ("f7f0ea3c3459570ce26da71af990e4f2", "207b7c705a8dcd112b45b16155593a0f", "200d5e9647b9c6563e98d2732208cd2c"));
    ("fork-3x16", ("0d383f0e7080a6bc7f11fccc7b24c717", "71f19cd753de3d0c063703d1ae12184d", "132eed0523d946ccf73ab3bf061abbfc"));
    ("fork-3x20", ("9114e40ba6040b150452b186760533f8", "c93d3a7e16ba1362353f8895a7791736", "4067b2ec6a772f9bb6ceb58f37e8df76"));
    ("fork-3x21", ("ace20b60dad8d791c4ab2fefe3b62ad4", "eab805f57287bf85c7769769182af6ef", "80e4eb84f37cdbc6fa85a763c526f290"));
    ("fork-4x8", ("22c418c6c10ceb5fa45fe1d9fa5f93a6", "7ba0102902c04e0190d7975d76bd424d", "b29864b307e788feb417c735de0511df"));
    ("fork-exact-4096", ("8a8557f142d799ea888ffb064aba908d", "b51482fb315c47ebe0ea362affa19f4c", "6ab540e4e5a780aaf4fe3a06c32c59bf"));
    ("fork-exact-5000", ("e83fc2d4e76a95a6259edf0863db5eb7", "3c1fc03b95b1406ee69a7fd255548e2f", "632bbbb4e1f25086986c0ca95c230e8f"));
    ("fork-exact-10000", ("ad82910f5990ab281c3fdf98783a5b5c", "fa0e1bcb0674a500855093d54765e9be", "e3406c72ec6ea3fe446142f366e56c21"));
    ("pump", ("221fb42be3ede55f0b95b6701a9530a3", "658a754a45022cd8e1faba634458c44f", "3730f2376ec34fbbf04121923a6117b8"));
    ("pump-behind-fork", ("dbc7add03f36d4b41582905e6dd1b326", "fe89fc624bb3889b462ece061c6d405f", "a3c4bb6b355e8b5eb0d830cd754f22d1"));
    ("starved-join", ("e7fcd25913449d94107e854de02324fa", "e4deb627c05771f01bf0395d77d99cd4", "9e52ff7a39723e112a066cb95ddb1b52"));
    ("starved-behind-fork-2x62", ("f754f31abe25596cb2c1f61bd3cc836a", "791f4e4dd621552c57a6efc8a991e6b3", "3283e414030ebb77cd982354d5af4a65"));
    ("starved-behind-fork-2x63", ("26f5cc79803074864b36431639d681cd", "ce5ceab31bf92604f2deb603eacb6007", "09adbb37edfdb4edcfc68211c7b2d342"));
    ("several", ("d385e9cf091d752e6469c43ddd0d9a57", "e5814c5dde4a5e7fd5a6798f30c2f33c", "3a92b833661e15c8eaf5b8686550c9d6"));
    ("sp-1-12-3", ("511d130c9652d38861aedbebfa218e4b", "3298dac52cc7110526602d92943c600b", "88ff5b2b46a3c67887c0a672c7c19290"));
    ("sp-2-12-3", ("6ae1cbb52f230c53dc94b05270231913", "4a36ed3c2eeacf792126b5ad564d0155", "ed5d35dba4bc7333dbbd5f4917de7c5d"));
    ("sp-8-12-3", ("5be84e61eeb721fdb219e6fbc1dda684", "4ad508866acb0903781be89ff224cb3f", "57f37445810d8a76c9790313dd0db1fd"));
    ("sp-3-40-4", ("198ff9be5314844290251d1fc88799c0", "a11f2790f6503e7935dc6f3fce7dd2aa", "1dff9af2649ca4d337dd90bb3aa74f0d"));
    ("sp-5-24-4", ("0e35afe8dfcc077a977bd0acf827d0c2", "d1a701e3f010b55ac41ea9f95bfb44e2", "aee450ff73a759908ebbdea14ade6bd5"));
    ("sp-8-24-4", ("4ce78a693362a6ca23eb247b7b77600e", "13930907c0034994c624638d60b47fba", "5774089be3bbdfa5883407f94b5a7188"));
    ("spd-1-40-4", ("cf7d74707081f9066979f710dbf4ffcf", "1ea289b51324c799b7a301472f7a9a25", "becf88c8cb6386d93ea71d13669eac0e"));
    ("spd-2-12-3", ("ef0b8210ef4574fe1f78a68673e0b36f", "1a96a9d637f45ec116bcf1be576e6e0e", "85085190e4f371249e7974be85d230dd"));
    ("spd-2-24-4", ("a7b378bc11500cd66d2ad35540944e2e", "9f8d704284cb99e6f9c2ff82375a4e05", "92de9ac6947d962b733d72b6b00c1027"));
    ("spd-5-40-4", ("98f6becd874b33617f593d365bea206c", "0f393fb9dd63e118b36b8893c21eeaac", "bcddd6a99e0d6745b35dfb93aeaaf108"));
    ("spd-3-40-4", ("6cccdc251cb0995d5e67a41f65a9612c", "8a232e7b7c8579b1db6aec968e212bed", "132dde25a63554813f9ef2b368f8f28f"));
    ("spd-8-40-4", ("dd4ab2926eba52ac133829dc168ce1d7", "9bde029f341194943aed808560c51244", "bf138b77e35b258e92af3612629fae61"));
  ]

let digest_tests =
  List.map
    (fun (name, build) ->
      tc name (fun () ->
          let m = fresh build in
          let a, am, l = List.assoc name digests in
          check Alcotest.string "analyze" a (hex (analyze ~metrics:false m));
          check Alcotest.string "analyze --metrics" am
            (hex (analyze ~metrics:true m));
          check Alcotest.string "lint" l (hex (lint m))))
    models

(* --- budget contract ---------------------------------------------------- *)

(* A fuel budget pays for the markings of analyze's 5 000-marking
   reachability report, one unit each, and for nothing else.  The 4x8
   fork activity reaches 6 565 markings, so the report stops at 5 000. *)
let fork_model =
  lazy
    (let path = Filename.temp_file "socuml_analyze" ".xmi" in
     Xmi.Write.write_file
       (fresh
          (snd
             (model "pipeline"
                [ (fun () -> fork_activity "pipeline" [ 8; 8; 8; 8 ]) ])))
       path;
     at_exit (fun () -> Sys.remove path);
     path)

let request ?fuel ?(metrics = false) path =
  let d = Serve.Daemon.create () in
  let line =
    Printf.sprintf {|{"op":"analyze","model":%S%s%s}|} path
      (match fuel with
       | Some n -> Printf.sprintf {|,"fuel":%d|} n
       | None -> "")
      (if metrics then {|,"metrics":true|} else "")
  in
  match Serve.Daemon.handle_line d line with
  | Some r, _ -> (
    match Serve.Json.parse r with
    | Ok v -> v
    | Error e -> Alcotest.failf "unparseable response %S: %s" r e)
  | None, _ -> Alcotest.failf "no response to %S" line

let field key v =
  match Option.bind (Serve.Json.member key v) Serve.Json.to_str with
  | Some s -> s
  | None -> "<absent>"

let budget_tests =
  [
    tc "fuel 4999 times out inside the reachability report" (fun () ->
        let v = request ~fuel:4999 (Lazy.force fork_model) in
        check Alcotest.string "code" "timeout" (field "code" v);
        check Alcotest.string "error"
          "budget expired: fuel limit 4999 exhausted\n" (field "error" v);
        check Alcotest.string "partial output"
          "activity pipeline:\n\
          \  net: 40 places, 36 transitions\n\
          \  bounded: yes\n"
          (field "output" v));
    tc "fuel 5000 succeeds with the unbudgeted output" (fun () ->
        let path = Lazy.force fork_model in
        let v = request ~fuel:5000 path in
        check Alcotest.string "code" "<absent>" (field "code" v);
        check Alcotest.string "output" (field "output" (request path))
          (field "output" v));
    tc "--metrics counts the report's 5000 markings" (fun () ->
        let v = request ~metrics:true (Lazy.force fork_model) in
        let lines = String.split_on_char '\n' (field "output" v) in
        check Alcotest.bool "petri.markings_explored 5000" true
          (List.mem "counter petri.markings_explored            5000" lines));
  ]

let () =
  Alcotest.run "analyze"
    [ ("digests", digest_tests); ("budget", budget_tests) ]
