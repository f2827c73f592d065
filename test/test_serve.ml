(* The serve daemon: JSON wire format, the content-hash artifact cache,
   protocol hardening (every hostile line answers exactly one error
   line and the daemon keeps serving), serve-vs-CLI byte-identity, and
   per-request telemetry isolation. *)

let tc name f = Alcotest.test_case name `Quick f
let check = Alcotest.check

let exe =
  (* tests execute from the build context's test directory *)
  let candidates =
    [ "../bin/socuml.exe"; "_build/default/bin/socuml.exe"; "bin/socuml.exe" ]
  in
  match List.find_opt Sys.file_exists candidates with
  | Some p -> p
  | None -> Alcotest.fail "socuml.exe not found next to the test binary"

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let write_file path contents =
  let oc = open_out_bin path in
  output_string oc contents;
  close_out oc;
  path

let tmp = Filename.get_temp_dir_name ()

(* Run one CLI invocation, capturing stdout and stderr separately. *)
let run_cli args =
  let out = Filename.temp_file "socuml_serve" ".out" in
  let err = Filename.temp_file "socuml_serve" ".err" in
  let cmd =
    Printf.sprintf "%s %s >%s 2>%s" (Filename.quote exe)
      (String.concat " " (List.map Filename.quote args))
      (Filename.quote out) (Filename.quote err)
  in
  let code = Sys.command cmd in
  let stdout = read_file out and stderr = read_file err in
  Sys.remove out;
  Sys.remove err;
  (code, stdout, stderr)

(* The demo SoC on disk (built once), plus its packed snapshot. *)
let demo_model =
  lazy
    (let out = Filename.concat tmp "socuml_serve_demo" in
     let code, _, stderr = run_cli [ "demo"; "--out"; out ] in
     if code <> 0 then Alcotest.failf "demo: exit %d (stderr: %s)" code stderr;
     Filename.concat out "demo_soc.xmi")

let demo_snapshot =
  lazy
    (let model = Lazy.force demo_model in
     let snap = Filename.concat (Filename.dirname model) "demo_soc.sumb" in
     let code, _, stderr = run_cli [ "pack"; model; "-o"; snap ] in
     if code <> 0 then Alcotest.failf "pack: exit %d (stderr: %s)" code stderr;
     snap)

(* A tiny distinct model on disk, for cache-shape tests. *)
let tiny_model name path =
  let m = Uml.Model.create name in
  Xmi.Write.write_file m path;
  path

(* An empty persist directory, wiped of any previous run's snapshots. *)
let fresh_dir path =
  if Sys.file_exists path then
    Array.iter
      (fun f -> Sys.remove (Filename.concat path f))
      (Sys.readdir path);
  path

(* ------------------------------------------------------------------ *)
(* JSON wire format                                                   *)

let json_tests =
  let parse_ok s =
    match Serve.Json.parse s with
    | Ok v -> v
    | Error e -> Alcotest.failf "parse %S: %s" s e
  in
  let parse_err s =
    match Serve.Json.parse s with
    | Ok _v -> Alcotest.failf "parse %S: expected an error" s
    | Error e -> e
  in
  [
    tc "roundtrip of a nested value" (fun () ->
        let v =
          Serve.Json.Obj
            [
              ("a", Serve.Json.Int 1);
              ("b", Serve.Json.List
                 [ Serve.Json.Str "x"; Serve.Json.Null;
                   Serve.Json.Bool true ]);
              ("c", Serve.Json.Obj [ ("d", Serve.Json.Float 2.5) ]);
            ]
        in
        let s = Serve.Json.to_string v in
        check Alcotest.bool "roundtrips" true (parse_ok s = v));
    tc "printer output is always one line" (fun () ->
        let s =
          Serve.Json.to_string
            (Serve.Json.Obj
               [ ("msg", Serve.Json.Str "two\nlines\twith\x01controls") ])
        in
        check Alcotest.bool "no raw newline" false (String.contains s '\n');
        check Alcotest.bool "reparses" true
          (parse_ok s
          = Serve.Json.Obj
              [ ("msg", Serve.Json.Str "two\nlines\twith\x01controls") ]));
    tc "nan and infinity print as null" (fun () ->
        check Alcotest.string "nan" "null"
          (Serve.Json.to_string (Serve.Json.Float Float.nan));
        check Alcotest.string "inf" "null"
          (Serve.Json.to_string (Serve.Json.Float Float.infinity)));
    tc "duplicate keys are rejected" (fun () ->
        ignore (parse_err {|{"a":1,"a":2}|}));
    tc "trailing bytes are rejected" (fun () ->
        ignore (parse_err {|{"a":1} trailing|}));
    tc "unterminated string is rejected" (fun () ->
        ignore (parse_err {|{"a":"unclosed}|}));
    tc "raw control characters in strings are rejected" (fun () ->
        ignore (parse_err "{\"a\":\"x\ny\"}"));
    tc "error messages name the byte offset" (fun () ->
        let e = parse_err "[1,2,@]" in
        check Alcotest.bool "offset named" true
          (String.length e > 0
          && List.exists
               (fun i ->
                 i + 6 <= String.length e && String.sub e i 6 = "byte 5")
               (List.init (String.length e) Fun.id)));
    tc "pathological nesting depth is rejected, not a stack overflow"
      (fun () ->
        let deep = String.make 4096 '[' in
        ignore (parse_err deep));
    tc "accessors decode the request shapes" (fun () ->
        let v = parse_ok {|{"n":3,"f":4.0,"s":"x","b":true,"l":["a","b"]}|} in
        check Alcotest.(option int) "int" (Some 3)
          (Option.bind (Serve.Json.member "n" v) Serve.Json.to_int);
        check Alcotest.(option int) "integral float as int" (Some 4)
          (Option.bind (Serve.Json.member "f" v) Serve.Json.to_int);
        check Alcotest.(option string) "str" (Some "x")
          (Option.bind (Serve.Json.member "s" v) Serve.Json.to_str);
        check Alcotest.(option bool) "bool" (Some true)
          (Option.bind (Serve.Json.member "b" v) Serve.Json.to_bool);
        check Alcotest.(option (list string)) "list" (Some [ "a"; "b" ])
          (Option.bind (Serve.Json.member "l" v) Serve.Json.str_list);
        check Alcotest.(option (list string)) "single str as list"
          (Some [ "solo" ])
          (Serve.Json.str_list (Serve.Json.Str "solo")));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"string escape = per-char reference escaper"
         ~count:500
         QCheck.(string_gen_of_size Gen.(int_bound 200) Gen.char)
         (fun s ->
           Serve.Json.to_string (Serve.Json.Str s)
           = Oracles.Json_escape_ref.quoted s));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"a string escaped in pieces = escaped whole"
         ~count:500
         QCheck.(
           list_of_size Gen.(int_bound 6)
             (string_gen_of_size Gen.(int_bound 40) Gen.char))
         (fun pieces ->
           let e = Serve.Json.encoder 8 in
           List.iter (Serve.Json.add_piece e) pieces;
           (Serve.Json.encoded e :> string)
           = Oracles.Json_escape_ref.quoted (String.concat "" pieces)));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"splice = the printer over the whole object"
         ~count:300
         QCheck.(
           triple bool
             (string_gen_of_size Gen.(int_bound 200) Gen.char)
             (string_gen_of_size Gen.(int_bound 200) Gen.char))
         (fun (with_head, out, err) ->
           let head =
             if with_head then
               [ ("op", Serve.Json.Str "gen\n"); ("exit", Serve.Json.Int 1) ]
             else []
           in
           Serve.Json.splice head
             [
               ("output", Serve.Json.encode out);
               ("err\"or", Serve.Json.encode err);
             ]
           = Serve.Json.to_string
               (Serve.Json.Obj
                  (head
                  @ [
                      ("output", Serve.Json.Str out);
                      ("err\"or", Serve.Json.Str err);
                    ]))));
    tc "report layout: members and top-level list elements on lines"
      (fun () ->
        let open Serve.Json in
        check Alcotest.string "no members" "{\n}\n" (to_report []);
        check Alcotest.string "members"
          "{\n\
          \  \"a\": 1,\n\
          \  \"l\": [\n\
          \    {\"b\": [true, null], \"c\": {}},\n\
          \    []\n\
          \  ],\n\
          \  \"e\": [\n\
          \  ],\n\
          \  \"o\": {\"k\": \"v\\t\", \"f\": 0.5}\n\
           }\n"
          (to_report
             [
               ("a", Int 1);
               ( "l",
                 List
                   [
                     Obj [ ("b", List [ Bool true; Null ]); ("c", Obj []) ];
                     List [];
                   ] );
               ("e", List []);
               ("o", Obj [ ("k", Str "v\t"); ("f", Float 0.5) ]);
             ]));
    tc "floats print in the shortest form that reads back" (fun () ->
        let spell f = Serve.Json.to_string (Serve.Json.Float f) in
        check Alcotest.string "15 digits" "0.1" (spell 0.1);
        check Alcotest.string "16 digits" "0.3333333333333333"
          (spell (1. /. 3.));
        check Alcotest.string "17 digits" "0.30000000000000004"
          (spell (0.1 +. 0.2));
        check Alcotest.string "integral" "1234570" (spell 1234570.);
        check Alcotest.string "large" "1e+20" (spell 1e20));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"finite floats read back equal" ~count:500
         QCheck.float
         (fun f ->
           QCheck.assume (Float.is_finite f);
           match
             Serve.Json.parse (Serve.Json.to_string (Serve.Json.Float f))
           with
           | Ok (Serve.Json.Float g) -> g = f
           | Ok (Serve.Json.Int n) -> float_of_int n = f
           | Ok _ | Error _ -> false));
  ]

(* ------------------------------------------------------------------ *)
(* Content-hash artifact cache                                        *)

let load_state cache path =
  match Serve.Cache.load cache path with
  | Ok (_art, _key, state) -> Serve.Cache.state_name state
  | Error msg -> Alcotest.failf "load %s: %s" path msg

let cache_tests =
  [
    tc "second load of the same bytes is a hit" (fun () ->
        let p = tiny_model "m1" (Filename.concat tmp "serve_cache_a.xmi") in
        let c = Serve.Cache.create () in
        check Alcotest.string "cold" "miss" (load_state c p);
        check Alcotest.string "warm" "hit" (load_state c p);
        let s = Serve.Cache.stats c in
        check Alcotest.int "one entry" 1 s.Serve.Cache.cs_entries;
        check Alcotest.int "one hit" 1 s.Serve.Cache.cs_hits;
        check Alcotest.int "one miss" 1 s.Serve.Cache.cs_misses);
    tc "keys are content hashes, not paths" (fun () ->
        let a = tiny_model "same" (Filename.concat tmp "serve_cache_b.xmi") in
        let b = write_file (Filename.concat tmp "serve_cache_c.xmi")
            (read_file a) in
        let c = Serve.Cache.create () in
        check Alcotest.string "first path" "miss" (load_state c a);
        check Alcotest.string "same bytes, other path" "hit" (load_state c b);
        check Alcotest.int "one entry"
          1 (Serve.Cache.stats c).Serve.Cache.cs_entries);
    tc "editing the file changes the key" (fun () ->
        let p = tiny_model "v1" (Filename.concat tmp "serve_cache_d.xmi") in
        let c = Serve.Cache.create () in
        check Alcotest.string "cold" "miss" (load_state c p);
        ignore (tiny_model "v2" p);
        check Alcotest.string "edited file misses" "miss" (load_state c p));
    tc "entry count bound evicts least-recently-used" (fun () ->
        let p i =
          tiny_model
            (Printf.sprintf "lru%d" i)
            (Filename.concat tmp (Printf.sprintf "serve_cache_lru%d.xmi" i))
        in
        let a = p 0 and b = p 1 and cc = p 2 in
        let c = Serve.Cache.create ~max_entries:2 () in
        check Alcotest.string "a cold" "miss" (load_state c a);
        check Alcotest.string "b cold" "miss" (load_state c b);
        (* touch a so b is now least recently used *)
        check Alcotest.string "a warm" "hit" (load_state c a);
        check Alcotest.string "c cold" "miss" (load_state c cc);
        let s = Serve.Cache.stats c in
        check Alcotest.int "bounded" 2 s.Serve.Cache.cs_entries;
        check Alcotest.int "one eviction" 1 s.Serve.Cache.cs_evictions;
        check Alcotest.string "a survived" "hit" (load_state c a);
        check Alcotest.string "b was evicted" "miss" (load_state c b));
    tc "byte budget evicts, but never the newest entry" (fun () ->
        let a = tiny_model "big1" (Filename.concat tmp "serve_cache_e.xmi") in
        let b = tiny_model "big2" (Filename.concat tmp "serve_cache_f.xmi") in
        (* budget below one model: each insert evicts the other, the
           just-inserted entry always stays *)
        let c = Serve.Cache.create ~max_bytes:1 () in
        check Alcotest.string "a cold" "miss" (load_state c a);
        check Alcotest.int "oversized single entry kept" 1
          (Serve.Cache.stats c).Serve.Cache.cs_entries;
        check Alcotest.string "a resident" "hit" (load_state c a);
        check Alcotest.string "b cold" "miss" (load_state c b);
        let s = Serve.Cache.stats c in
        check Alcotest.int "still one entry" 1 s.Serve.Cache.cs_entries;
        check Alcotest.bool "eviction happened" true
          (s.Serve.Cache.cs_evictions >= 1));
    tc "persist dir refills a fresh cache from snapshots" (fun () ->
        let dir = fresh_dir (Filename.concat tmp "serve_cache_persist") in
        let p = tiny_model "persist_me"
            (Filename.concat tmp "serve_cache_g.xmi") in
        let c1 = Serve.Cache.create ~persist_dir:dir () in
        check Alcotest.string "cold parse" "miss" (load_state c1 p);
        check Alcotest.int "snapshot written" 1
          (Serve.Cache.stats c1).Serve.Cache.cs_persisted;
        (* a new cache (fresh process, same dir) refills from the
           snapshot instead of re-parsing the XMI *)
        let c2 = Serve.Cache.create ~persist_dir:dir () in
        check Alcotest.string "warm restart" "snap" (load_state c2 p);
        check Alcotest.int "refill counted" 1
          (Serve.Cache.stats c2).Serve.Cache.cs_snap_refills;
        check Alcotest.string "then resident" "hit" (load_state c2 p));
    tc "corrupt persisted snapshots fall back to the source" (fun () ->
        let dir = fresh_dir (Filename.concat tmp "serve_cache_persist_bad") in
        let p = tiny_model "corrupt_snap"
            (Filename.concat tmp "serve_cache_h.xmi") in
        let c1 = Serve.Cache.create ~persist_dir:dir () in
        check Alcotest.string "cold" "miss" (load_state c1 p);
        (* corrupt every persisted snapshot in the dir *)
        Array.iter
          (fun f ->
            if Filename.check_suffix f ".sumb" then
              ignore
                (write_file (Filename.concat dir f) "\xd3SUMBgarbage"))
          (Sys.readdir dir);
        let c2 = Serve.Cache.create ~persist_dir:dir () in
        check Alcotest.string "falls back to parsing" "miss"
          (load_state c2 p);
        check Alcotest.int "no refill" 0
          (Serve.Cache.stats c2).Serve.Cache.cs_snap_refills);
    tc "snapshot sources are not re-persisted" (fun () ->
        let dir = fresh_dir (Filename.concat tmp "serve_cache_persist_sumb") in
        let snap = Lazy.force demo_snapshot in
        let c = Serve.Cache.create ~persist_dir:dir () in
        check Alcotest.string "snapshot loads" "miss" (load_state c snap);
        check Alcotest.int "nothing persisted" 0
          (Serve.Cache.stats c).Serve.Cache.cs_persisted);
    tc "load errors carry the standard diagnostics" (fun () ->
        let c = Serve.Cache.create () in
        let missing = Filename.concat tmp "serve_cache_missing.xmi" in
        (match Serve.Cache.load c missing with
         | Ok _ -> Alcotest.fail "expected an error"
         | Error msg ->
           check Alcotest.string "missing file" (missing ^ ": no such file")
             msg);
        match Serve.Cache.load c tmp with
        | Ok _ -> Alcotest.fail "expected an error"
        | Error msg ->
          check Alcotest.string "directory"
            (tmp ^ ": is a directory, not a model file") msg);
    tc "bounds below 1 are rejected" (fun () ->
        (match Serve.Cache.create ~max_entries:0 () with
         | _c -> Alcotest.fail "expected Invalid_argument"
         | exception Invalid_argument _ -> ());
        match Serve.Cache.create ~max_bytes:0 () with
        | _c -> Alcotest.fail "expected Invalid_argument"
        | exception Invalid_argument _ -> ());
  ]

(* ------------------------------------------------------------------ *)
(* Daemon protocol                                                    *)

(* Send one line; expect one parsed response object back. *)
let send d line =
  let response, continue = Serve.Daemon.handle_line d line in
  match response with
  | None -> Alcotest.failf "no response to %S" line
  | Some r ->
    check Alcotest.bool "response is one line" false (String.contains r '\n');
    (match Serve.Json.parse r with
     | Error e -> Alcotest.failf "unparseable response %S: %s" r e
     | Ok v -> (v, continue))

let rmember key v = Serve.Json.member key v

let rstr key v =
  match Option.bind (rmember key v) Serve.Json.to_str with
  | Some s -> s
  | None -> Alcotest.failf "response lacks string %S" key

let rint key v =
  match Option.bind (rmember key v) Serve.Json.to_int with
  | Some n -> n
  | None -> Alcotest.failf "response lacks int %S" key

let rbool key v =
  match Option.bind (rmember key v) Serve.Json.to_bool with
  | Some b -> b
  | None -> Alcotest.failf "response lacks bool %S" key

(* The protocol-error shape: ok:false, a non-empty error, and the
   daemon keeps serving (checked by following up with a healthy
   request). *)
let assert_protocol_error d line =
  let v, continue = send d line in
  check Alcotest.bool "ok:false" false (rbool "ok" v);
  check Alcotest.bool "error is non-empty" true (rstr "error" v <> "");
  check Alcotest.bool "daemon keeps serving" true continue;
  let model = Lazy.force demo_model in
  let v, _ = send d (Printf.sprintf {|{"op":"info","model":%S}|} model) in
  check Alcotest.bool "healthy request still served" true (rbool "ok" v)

let daemon_tests =
  [
    tc "blank lines are skipped without a response" (fun () ->
        let d = Serve.Daemon.create () in
        check Alcotest.bool "none" true
          (fst (Serve.Daemon.handle_line d "   ") = None));
    tc "hostile lines answer one error line each, daemon keeps serving"
      (fun () ->
        let d = Serve.Daemon.create () in
        List.iter (assert_protocol_error d)
          [
            "garbage";
            {|{"op":"lint","models":}|};
            "42";
            {|["not","an","object"]|};
            {|{"model":"x.xmi"}|};
            {|{"op":17}|};
            {|{"op":"frobnicate"}|};
            {|{"op":"info"}|};
            {|{"op":"info","model":17}|};
            {|{"op":"info","model":"x.xmi","bogus":1}|};
            {|{"op":"info","model":"x.xmi","id":[3]}|};
            {|{"op":"lint","models":[]}|};
            {|{"op":"lint","model":"a.xmi","models":["b.xmi"]}|};
            {|{"op":"gen","model":"x.xmi","lang":"cobol"}|};
            {|{"op":"validate","model":"x.xmi","format":"yaml"}|};
            {|{"op":"simulate","model":"x.xmi","rtl":"yes"}|};
            {|{"op":"stats","model":"x.xmi"}|};
          ]);
    tc "oversized request lines are refused before parsing" (fun () ->
        let d = Serve.Daemon.create () in
        let big =
          Printf.sprintf {|{"op":"info","model":"%s"}|}
            (String.make (Serve.Daemon.max_line_bytes + 1) 'a')
        in
        assert_protocol_error d big);
    tc "a missing model is an op failure, not a dead daemon" (fun () ->
        let d = Serve.Daemon.create () in
        let missing = Filename.concat tmp "serve_daemon_missing.xmi" in
        let v, continue =
          send d (Printf.sprintf {|{"op":"info","model":%S}|} missing)
        in
        check Alcotest.bool "ok:false" false (rbool "ok" v);
        check Alcotest.int "exit 1" 1 (rint "exit" v);
        check Alcotest.string "diagnostic on the error stream"
          (missing ^ ": no such file\n") (rstr "error" v);
        check Alcotest.bool "keeps serving" true continue);
    tc "a corrupt snapshot is an op failure with one diagnostic line"
      (fun () ->
        let d = Serve.Daemon.create () in
        let bad =
          write_file
            (Filename.concat tmp "serve_daemon_bad.sumb")
            "\xd3SUMBgarbage"
        in
        let v, _ =
          send d (Printf.sprintf {|{"op":"validate","model":%S}|} bad)
        in
        check Alcotest.int "exit 1" 1 (rint "exit" v);
        let err = rstr "error" v in
        check Alcotest.bool "one line" true
          (String.length err > 0
          && String.index err '\n' = String.length err - 1);
        let model = Lazy.force demo_model in
        let v, _ = send d (Printf.sprintf {|{"op":"info","model":%S}|} model) in
        check Alcotest.bool "keeps serving" true (rbool "ok" v));
    tc "ids are echoed verbatim" (fun () ->
        let d = Serve.Daemon.create () in
        let model = Lazy.force demo_model in
        let v, _ =
          send d (Printf.sprintf {|{"id":42,"op":"info","model":%S}|} model)
        in
        check Alcotest.int "int id" 42 (rint "id" v);
        let v, _ =
          send d
            (Printf.sprintf {|{"id":"req-7","op":"info","model":%S}|} model)
        in
        check Alcotest.string "string id" "req-7" (rstr "id" v));
    tc "cache states progress miss -> hit across requests" (fun () ->
        let d = Serve.Daemon.create () in
        let model = Lazy.force demo_model in
        let state v =
          match rmember "cache" v with
          | Some (Serve.Json.List [ entry ]) -> rstr "state" entry
          | Some _ | None -> Alcotest.fail "expected one cache entry"
        in
        let v, _ = send d (Printf.sprintf {|{"op":"info","model":%S}|} model) in
        check Alcotest.string "cold" "miss" (state v);
        let v, _ = send d (Printf.sprintf {|{"op":"info","model":%S}|} model) in
        check Alcotest.string "warm" "hit" (state v);
        let v, _ =
          send d (Printf.sprintf {|{"op":"validate","model":%S}|} model)
        in
        check Alcotest.string "shared across ops" "hit" (state v));
    tc "a persist dir makes the next daemon start warm" (fun () ->
        let dir = fresh_dir (Filename.concat tmp "serve_daemon_persist") in
        let model = Lazy.force demo_model in
        let state v =
          match rmember "cache" v with
          | Some (Serve.Json.List [ entry ]) -> rstr "state" entry
          | Some _ | None -> Alcotest.fail "expected one cache entry"
        in
        let d1 = Serve.Daemon.create ~persist_dir:dir () in
        let v, _ =
          send d1 (Printf.sprintf {|{"op":"info","model":%S}|} model)
        in
        check Alcotest.string "cold" "miss" (state v);
        let d2 = Serve.Daemon.create ~persist_dir:dir () in
        let v, _ =
          send d2 (Printf.sprintf {|{"op":"info","model":%S}|} model)
        in
        check Alcotest.string "snapshot refill" "snap" (state v));
    tc "stats reports request, cache and memo counters" (fun () ->
        let d = Serve.Daemon.create () in
        let model = Lazy.force demo_model in
        ignore (send d (Printf.sprintf {|{"op":"info","model":%S}|} model));
        ignore (send d "garbage");
        let v, _ = send d {|{"op":"stats"}|} in
        check Alcotest.bool "ok" true (rbool "ok" v);
        check Alcotest.int "requests counted" 3 (rint "requests" v);
        check Alcotest.int "protocol errors counted" 1
          (rint "protocol_errors" v);
        (match rmember "cache" v with
         | Some cache ->
           check Alcotest.int "one miss" 1 (rint "misses" cache);
           check Alcotest.int "one entry" 1 (rint "entries" cache)
         | None -> Alcotest.fail "no cache stats");
        match rmember "asl_memo" v with
        | Some memo -> ignore (rint "cap" memo)
        | None -> Alcotest.fail "no asl_memo stats");
    tc "quit acknowledges and stops the loop" (fun () ->
        let d = Serve.Daemon.create () in
        let v, continue = send d {|{"op":"quit","id":9}|} in
        check Alcotest.bool "ok" true (rbool "ok" v);
        check Alcotest.int "id echoed" 9 (rint "id" v);
        check Alcotest.bool "loop stops" false continue);
  ]

(* ------------------------------------------------------------------ *)
(* Serve-vs-CLI byte-identity                                         *)

(* Run the same op one-shot and through a daemon; stdout, stderr and
   exit code must agree byte-for-byte. *)
let differential d ~args ~request =
  let code, stdout, stderr = run_cli args in
  let v, _ = send d request in
  check Alcotest.int
    (Printf.sprintf "exit (%s)" (String.concat " " args))
    code (rint "exit" v);
  check Alcotest.string
    (Printf.sprintf "stdout (%s)" (String.concat " " args))
    stdout (rstr "output" v);
  check Alcotest.string
    (Printf.sprintf "stderr (%s)" (String.concat " " args))
    stderr (rstr "error" v);
  v

let assert_differential d ~args ~request =
  ignore (differential d ~args ~request)

let req fmt = Printf.sprintf fmt

(* One-shot argument lists and the equivalent requests; every op in
   [Serve.Op_spec.table] has at least one (checked below). *)
let op_cases ~model ~snap ~pack_out =
  [
    ([ "validate"; model ],
     req {|{"op":"validate","model":%S}|} model);
    ([ "validate"; "--format"; "json"; model ],
     req {|{"op":"validate","model":%S,"format":"json"}|} model);
    ([ "lint"; model ], req {|{"op":"lint","model":%S}|} model);
    ([ "lint"; "--jobs"; "4"; "--format"; "json"; model; snap ],
     req {|{"op":"lint","models":[%S,%S],"jobs":4,"format":"json"}|}
       model snap);
    ([ "lint"; "--only"; "SC"; "--no-hdl"; model ],
     req {|{"op":"lint","model":%S,"only":["SC"],"no_hdl":true}|}
       model);
    ([ "info"; model ], req {|{"op":"info","model":%S}|} model);
    ([ "gen"; model; "vhdl" ],
     req {|{"op":"gen","model":%S,"lang":"vhdl"}|} model);
    ([ "simulate"; "--events"; "toggle,toggle"; model ],
     req {|{"op":"simulate","model":%S,"events":"toggle,toggle"}|}
       model);
    ([ "simulate"; "--rtl"; "--events"; "toggle"; snap ],
     req {|{"op":"simulate","model":%S,"rtl":true,"events":"toggle"}|}
       snap);
    ([ "simulate"; "--metrics"; "--events"; "toggle"; model ],
     req
       {|{"op":"simulate","model":%S,"metrics":true,"events":"toggle"}|}
       model);
    ([ "trace"; "--events"; "toggle"; model ],
     req {|{"op":"trace","model":%S,"events":"toggle"}|} model);
    ([ "partition"; model ],
     req {|{"op":"partition","model":%S}|} model);
    ([ "partition"; "--budget"; "2"; model ],
     req {|{"op":"partition","model":%S,"budget":2}|} model);
    ([ "analyze"; "--metrics"; "--jobs"; "2"; model ],
     req {|{"op":"analyze","model":%S,"metrics":true,"jobs":2}|}
       model);
    ([ "inject"; "--seed"; "3"; "--faults"; "5"; model ],
     req {|{"op":"inject","model":%S,"seed":3,"faults":5}|} model);
    ([ "inject"; "--format"; "json"; "--jobs"; "4"; model ],
     req {|{"op":"inject","model":%S,"format":"json","jobs":4}|}
       model);
    ([ "trace"; "--machine"; "Power"; "--events"; "toggle"; model ],
     req {|{"op":"trace","model":%S,"machine":"Power","events":"toggle"}|}
       model);
    ([ "pack"; model; "-o"; pack_out ],
     req {|{"op":"pack","model":%S,"out":%S}|} model pack_out);
    ([ "gen"; model; "verilog" ],
     req {|{"op":"gen","model":%S,"lang":"verilog"}|} model);
    ([ "gen"; model; "systemc" ],
     req {|{"op":"gen","model":%S,"lang":"systemc"}|} model);
    ([ "gen"; model; "c" ], req {|{"op":"gen","model":%S,"lang":"c"}|} model);
    ([ "gen"; snap; "verilog" ],
     req {|{"op":"gen","model":%S,"lang":"verilog"}|} snap);
    ([ "gen"; snap; "systemc" ],
     req {|{"op":"gen","model":%S,"lang":"systemc"}|} snap);
    ([ "gen"; snap; "c" ], req {|{"op":"gen","model":%S,"lang":"c"}|} snap);
  ]

let failure_cases ~model ~missing ~garbage ~no_fsm =
  [
    ([ "info"; missing ], req {|{"op":"info","model":%S}|} missing);
    ([ "lint"; garbage; model ],
     req {|{"op":"lint","models":[%S,%S]}|} garbage model);
    ([ "lint"; "--only"; "NOPE"; model ],
     req {|{"op":"lint","model":%S,"only":["NOPE"]}|} model);
    ([ "analyze"; "--disable"; "BOGUS,SC"; model ],
     req {|{"op":"analyze","model":%S,"disable":["BOGUS","SC"]}|}
       model);
    ([ "lint"; "--jobs"; "0"; model ],
     req {|{"op":"lint","model":%S,"jobs":0}|} model);
    ([ "simulate"; "--machine"; "NoSuch"; model ],
     req {|{"op":"simulate","model":%S,"machine":"NoSuch"}|} model);
    ([ "inject"; "--faults"; "200000000"; model ],
     req {|{"op":"inject","model":%S,"faults":200000000}|} model);
    ([ "inject"; "--faults=-1"; model ],
     req {|{"op":"inject","model":%S,"faults":-1}|} model);
    (* no compilable state machine: the failed render answers the same
       from the cold derivation and from the warm entry *)
    ([ "gen"; no_fsm; "vhdl" ],
     req {|{"op":"gen","model":%S,"lang":"vhdl"}|} no_fsm);
    ([ "gen"; no_fsm; "vhdl" ],
     req {|{"op":"gen","model":%S,"lang":"vhdl"}|} no_fsm);
  ]

let differential_tests =
  [
    tc "model ops are byte-identical, cold and warm, at every job count"
      (fun () ->
        let model = Lazy.force demo_model in
        let snap = Lazy.force demo_snapshot in
        let d = Serve.Daemon.create () in
        let cases =
          op_cases ~model ~snap
            ~pack_out:(Filename.concat tmp "serve_diff_pack.sumb")
        in
        (* twice: first pass misses the daemon cache, second is all
           warm hits — both must match the one-shot CLI *)
        List.iter
          (fun (args, request) -> assert_differential d ~args ~request)
          cases;
        List.iter
          (fun (args, request) -> assert_differential d ~args ~request)
          cases);
    tc "failure diagnostics are byte-identical" (fun () ->
        let model = Lazy.force demo_model in
        let missing = Filename.concat tmp "serve_diff_missing.xmi" in
        let garbage =
          write_file (Filename.concat tmp "serve_diff_garbage.xmi") "not xml"
        in
        let no_fsm =
          tiny_model "no_fsm" (Filename.concat tmp "serve_diff_no_fsm.xmi")
        in
        let d = Serve.Daemon.create () in
        List.iter
          (fun (args, request) -> assert_differential d ~args ~request)
          (failure_cases ~model ~missing ~garbage ~no_fsm));
    tc "pack through the daemon writes identical snapshots" (fun () ->
        let model = Lazy.force demo_model in
        let out_cli = Filename.concat tmp "serve_diff_cli.sumb" in
        let out_d = Filename.concat tmp "serve_diff_daemon.sumb" in
        let code, _, stderr = run_cli [ "pack"; model; "-o"; out_cli ] in
        if code <> 0 then
          Alcotest.failf "pack: exit %d (stderr: %s)" code stderr;
        let d = Serve.Daemon.create () in
        let v, _ =
          send d (req {|{"op":"pack","model":%S,"out":%S}|} model out_d)
        in
        check Alcotest.bool "ok" true (rbool "ok" v);
        check Alcotest.string "identical snapshot bytes" (read_file out_cli)
          (read_file out_d));
    tc "every op in the table has a differential case" (fun () ->
        let covered =
          List.map
            (fun (args, _request) -> List.hd args)
            (op_cases ~model:"m" ~snap:"s" ~pack_out:"o"
            @ failure_cases ~model:"m" ~missing:"x" ~garbage:"g"
                ~no_fsm:"n")
        in
        List.iter
          (fun spec ->
            let op = Serve.Op_spec.name spec in
            check Alcotest.bool op true (List.mem op covered))
          Serve.Op_spec.table);
    tc "gen answers each language from one entry, in any order" (fun () ->
        let model = Lazy.force demo_model in
        let d = Serve.Daemon.create () in
        List.iter
          (fun lang ->
            let v =
              differential d ~args:[ "gen"; model; lang ]
                ~request:
                  (req {|{"op":"gen","model":%S,"lang":%S}|} model lang)
            in
            match rmember "cache" v with
            | Some (Serve.Json.List [ entry ]) ->
              check Alcotest.bool "one warm entry after the first" true
                (lang = "vhdl" || rstr "state" entry = "hit")
            | _other -> Alcotest.fail "expected one cache entry")
          [ "vhdl"; "verilog"; "vhdl" ]);
  ]

(* ------------------------------------------------------------------ *)
(* Encoded gen answers                                                *)

let answer_tests =
  [
    tc "a stored answer encodes every byte value, cold and warm" (fun () ->
        let bytes = String.init 256 Char.chr in
        let art = Serve.Artifacts.of_model (Uml.Model.create "bytes") in
        let raw =
          { Serve.Artifacts.out = bytes ^ "out"; err = "err" ^ bytes; exit = 3 }
        in
        let expect a =
          let out, err = Serve.Artifacts.encoded a in
          check Alcotest.string "stdout" (Oracles.Json_escape_ref.quoted raw.out)
            (out :> string);
          check Alcotest.string "stderr" (Oracles.Json_escape_ref.quoted raw.err)
            (err :> string)
        in
        let cold = art.Serve.Artifacts.gen ~lang:"vhdl" (fun () -> raw) in
        expect cold;
        let warm =
          art.Serve.Artifacts.gen ~lang:"vhdl" (fun () ->
              Alcotest.fail "a warm hit rendered again")
        in
        check Alcotest.bool "the warm hit is the stored answer" true (warm == cold);
        expect warm;
        check Alcotest.bool "the encoding is stored, not redone" true
          (Serve.Artifacts.encoded warm == Serve.Artifacts.encoded cold));
    tc "gen responses print as the plain printer would, cold and warm"
      (fun () ->
        let model = Lazy.force demo_model in
        let d = Serve.Daemon.create () in
        let line = req {|{"id":7,"op":"gen","model":%S,"lang":"vhdl"}|} model in
        List.iter
          (fun state ->
            match Serve.Daemon.handle_line d line with
            | Some r, _ -> (
              match Serve.Json.parse r with
              | Ok v ->
                check Alcotest.string "state" state
                  (match rmember "cache" v with
                   | Some (Serve.Json.List [ entry ]) -> rstr "state" entry
                   | _other -> "none");
                check Alcotest.string "bytes" (Serve.Json.to_string v) r
              | Error e -> Alcotest.failf "unparseable response: %s" e)
            | None, _ -> Alcotest.fail "no response")
          [ "miss"; "hit" ]);
    tc "a failed render replays identical bytes on its second ask" (fun () ->
        let no_fsm =
          tiny_model "no_fsm" (Filename.concat tmp "serve_answer_no_fsm.xmi")
        in
        let d = Serve.Daemon.create () in
        let line = req {|{"op":"gen","model":%S,"lang":"vhdl"}|} no_fsm in
        let ask () =
          match Serve.Daemon.handle_line d line with
          | Some r, _ -> r
          | None, _ -> Alcotest.fail "no response"
        in
        let cold = ask () in
        let warm = ask () in
        let v, _ = send d line in
        check Alcotest.int "exit" 1 (rint "exit" v);
        check Alcotest.bool "a diagnostic" true (rstr "error" v <> "");
        (* the lines differ only in the reported cache state *)
        let miss = {|"state":"miss"|} in
        let i =
          let rec find i =
            if String.sub cold i (String.length miss) = miss then i
            else find (i + 1)
          in
          find 0
        in
        check Alcotest.string "warm bytes"
          (String.sub cold 0 i ^ {|"state":"hit"|}
          ^ String.sub cold (i + String.length miss)
              (String.length cold - i - String.length miss))
          warm);
  ]

(* ------------------------------------------------------------------ *)
(* Racy-clean stat memo                                               *)

(* [info] on one model through the daemon, byte-checked against the
   one-shot CLI; the reported cache (state, key), or [None] when the
   load failed and the response lists no cache entry. *)
let memo_info d path =
  let v =
    differential d ~args:[ "info"; path ]
      ~request:(req {|{"op":"info","model":%S}|} path)
  in
  match rmember "cache" v with
  | Some (Serve.Json.List [ entry ]) ->
    Some (rstr "state" entry, rstr "key" entry)
  | Some (Serve.Json.List []) -> None
  | Some _ | None -> Alcotest.fail "expected at most one cache entry"

let memo_state d path =
  match memo_info d path with
  | Some (state, _key) -> state
  | None -> Alcotest.failf "info %s: load failed" path

(* Prime a fresh path: a miss, then a hit. *)
let prime d path =
  check Alcotest.string "cold" "miss" (memo_state d path);
  check Alcotest.string "warm" "hit" (memo_state d path)

let remove_path path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } -> Unix.rmdir path
  | _st -> Sys.remove path
  | exception Unix.Unix_error _ -> ()

(* A tiny model stamped with a whole-second mtime, which [Unix.utimes]
   can put back exactly (sub-second stamps lose their nanoseconds). *)
let memo_model name path =
  let p = tiny_model name path in
  let stamp = Float.of_int (int_of_float (Unix.gettimeofday ())) in
  Unix.utimes p stamp stamp;
  p

(* Rewrite in place (same inode, truncated) and stamp the previous
   mtime back on, so only ctime can tell the edit apart. *)
let rewrite_keeping_mtime path name =
  let before = Unix.stat path in
  ignore (tiny_model name path);
  Unix.utimes path before.Unix.st_atime before.Unix.st_mtime;
  let after = Unix.stat path in
  check Alcotest.int "same inode" before.Unix.st_ino after.Unix.st_ino;
  check Alcotest.int "same size" before.Unix.st_size after.Unix.st_size;
  check (Alcotest.float 0.) "same mtime" before.Unix.st_mtime
    after.Unix.st_mtime

(* Model files whose mtime and ctime are already past the racy window,
   so their memos are trusted from the second load on.  Built once:
   the suite pays one sleep for every case that needs a settled file. *)
let settled_dir =
  lazy
    (let dir = Filename.concat tmp "serve_memo_settled" in
     if not (Sys.file_exists dir) then Unix.mkdir dir 0o755;
     Array.iter (fun f -> remove_path (Filename.concat dir f))
       (Sys.readdir dir);
     List.iter
       (fun name ->
         ignore
           (memo_model (name ^ "_1")
              (Filename.concat dir (name ^ ".xmi"))))
       [ "quiet"; "rename"; "touch"; "deleted"; "dir"; "clear"; "evict_a";
         "evict_b" ];
     Unix.sleepf (Serve.Cache.racy_window_s +. 0.1);
     dir)

let settled name = Filename.concat (Lazy.force settled_dir) (name ^ ".xmi")

let memo_tests =
  [
    tc "same-size rewrite with the old mtime right after a hit" (fun () ->
        let p =
          memo_model "racy_1" (Filename.concat tmp "serve_memo_racy.xmi")
        in
        let d = Serve.Daemon.create () in
        prime d p;
        rewrite_keeping_mtime p "racy_2";
        check Alcotest.string "new content" "miss" (memo_state d p));
    tc "same-size rewrite with the old mtime after the window" (fun () ->
        let p = settled "quiet" in
        let d = Serve.Daemon.create () in
        prime d p;
        rewrite_keeping_mtime p "quiet_2";
        check Alcotest.string "new content" "miss" (memo_state d p));
    tc "atomic replace by rename answers the new content" (fun () ->
        let p = settled "rename" in
        let d = Serve.Daemon.create () in
        prime d p;
        let before = Unix.stat p in
        let staged = tiny_model "rename_2" (p ^ ".new") in
        Unix.utimes staged before.Unix.st_atime before.Unix.st_mtime;
        Unix.rename staged p;
        check Alcotest.string "new content" "miss" (memo_state d p));
    tc "touch alone re-hashes to the same key" (fun () ->
        let p = settled "touch" in
        let d = Serve.Daemon.create () in
        let key =
          match (memo_info d p, memo_info d p) with
          | Some ("miss", k1), Some ("hit", k2) when k1 = k2 -> k1
          | _cold, _warm -> Alcotest.fail "expected miss then hit"
        in
        Unix.utimes p 0. 0.;
        match memo_info d p with
        | Some (state, k) ->
          check Alcotest.string "state" "hit" state;
          check Alcotest.string "key" key k
        | None -> Alcotest.fail "touched file failed to load");
    tc "a deleted file gives the standard diagnostic" (fun () ->
        let p = settled "deleted" in
        let d = Serve.Daemon.create () in
        prime d p;
        Sys.remove p;
        check Alcotest.bool "no cache entry" true (memo_info d p = None));
    tc "a file replaced by a directory gives the standard diagnostic"
      (fun () ->
        let p = settled "dir" in
        let d = Serve.Daemon.create () in
        prime d p;
        Sys.remove p;
        Unix.mkdir p 0o755;
        check Alcotest.bool "no cache entry" true (memo_info d p = None));
    tc "a cleared cache misses, never a stale hit" (fun () ->
        let p = settled "clear" in
        let d = Serve.Daemon.create () in
        prime d p;
        let crashes = ref 1 in
        (match
           Serve.Daemon.with_degradation d (fun () ->
               if !crashes > 0 then begin
                 decr crashes;
                 raise Out_of_memory
               end)
         with
         | Ok () -> ()
         | Error e -> Alcotest.failf "expected recovery, got: %s" e);
        check Alcotest.string "after clear" "miss" (memo_state d p);
        check Alcotest.string "then resident" "hit" (memo_state d p));
    tc "an evicted entry misses, never a stale hit" (fun () ->
        let a = settled "evict_a" and b = settled "evict_b" in
        let d = Serve.Daemon.create ~max_entries:1 () in
        prime d a;
        check Alcotest.string "b evicts a" "miss" (memo_state d b);
        check Alcotest.string "a after eviction" "miss" (memo_state d a);
        check Alcotest.string "then resident" "hit" (memo_state d a));
  ]

(* ------------------------------------------------------------------ *)
(* Request decoding, generated from the op table                      *)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec at i = i + nn <= nh && (String.sub hay i nn = needle || at (i + 1)) in
  at 0

(* The op's required fields with well-typed values, so a request built
   on it fails only on the field under test. *)
let base_request spec =
  let op = Serve.Op_spec.name spec in
  ("op", Serve.Json.Str op)
  :: ("model", Serve.Json.Str "x.xmi")
  ::
  (if List.mem "lang" (Serve.Op_spec.json_fields spec) then
     [ ("lang", Serve.Json.Str "vhdl") ]
   else [])

let request_fields spec =
  Serve.Op_spec.json_fields spec
  @ if Serve.Op_spec.budgeted spec then [ "fuel"; "deadline_ms" ] else []

let op_table_tests =
  [
    tc "an ill-typed value for any field of any op is a protocol error"
      (fun () ->
        let d = Serve.Daemon.create () in
        List.iter
          (fun spec ->
            List.iter
              (fun field ->
                let members =
                  List.filter
                    (fun (key, _v) ->
                      key <> field && not (field = "models" && key = "model"))
                    (base_request spec)
                  @ [ (field, Serve.Json.Obj []) ]
                in
                let line = Serve.Json.to_string (Serve.Json.Obj members) in
                let v, _ = send d line in
                check Alcotest.bool
                  (line ^ ": error names the field")
                  true
                  (contains (rstr "error" v) (Printf.sprintf "field %S" field));
                assert_protocol_error d line)
              (request_fields spec))
          Serve.Op_spec.table);
    tc "an unknown field is rejected by every op" (fun () ->
        let d = Serve.Daemon.create () in
        List.iter
          (fun spec ->
            let op = Serve.Op_spec.name spec in
            (* budget fields are unknown to the ops that take no budget *)
            let unknown =
              "bogus_field"
              ::
              (if Serve.Op_spec.budgeted spec then []
               else [ "fuel"; "deadline_ms" ])
            in
            List.iter
              (fun field ->
                let line =
                  Serve.Json.to_string
                    (Serve.Json.Obj
                       (base_request spec @ [ (field, Serve.Json.Int 1) ]))
                in
                let v, _ = send d line in
                check Alcotest.string line
                  (Printf.sprintf "unknown field %S for op %S" field op)
                  (rstr "error" v);
                assert_protocol_error d line)
              unknown)
          Serve.Op_spec.table);
  ]

(* ------------------------------------------------------------------ *)
(* Per-request telemetry isolation                                    *)

let metrics_tests =
  [
    tc "identical metrics requests report identical counters" (fun () ->
        let model = Lazy.force demo_model in
        let d = Serve.Daemon.create () in
        let request =
          Printf.sprintf
            {|{"op":"simulate","model":%S,"metrics":true,"events":"toggle,toggle"}|}
            model
        in
        let v1, _ = send d request in
        (* an interleaved metrics-carrying request must not leak into
           the next one's report *)
        ignore
          (send d
             (Printf.sprintf {|{"op":"analyze","model":%S,"metrics":true}|}
                model));
        let v2, _ = send d request in
        check Alcotest.string "identical output" (rstr "output" v1)
          (rstr "output" v2);
        check Alcotest.bool "metrics present in output" true
          (String.length (rstr "output" v1) > 0));
    tc "metrics reports match the one-shot CLI at any cache state"
      (fun () ->
        let model = Lazy.force demo_model in
        let d = Serve.Daemon.create () in
        let args = [ "analyze"; "--metrics"; model ] in
        let request =
          Printf.sprintf {|{"op":"analyze","model":%S,"metrics":true}|} model
        in
        assert_differential d ~args ~request;
        assert_differential d ~args ~request);
  ]

(* ------------------------------------------------------------------ *)
(* Resilience: deadlines, degradation, health, quarantine, shutdown   *)

let serve_counter v key =
  match rmember "serve" v with
  | Some s -> rint key s
  | None -> Alcotest.fail "stats response lacks the serve ledger"

(* The ledger invariant the chaos suite holds the daemon to. *)
let assert_ledger_reconciles v =
  check Alcotest.int "ledger reconciles" (rint "requests" v)
    (rint "protocol_errors" v
    + serve_counter v "completed"
    + serve_counter v "timeouts"
    + serve_counter v "resource_exhausted"
    + serve_counter v "sheds"
    + serve_counter v "drained")

let resilience_tests =
  [
    tc "health answers protocol version and occupancy" (fun () ->
        let d = Serve.Daemon.create ~deadline_ms:5000 ~max_queue:7 () in
        let model = Lazy.force demo_model in
        ignore (send d (Printf.sprintf {|{"op":"info","model":%S}|} model));
        let v, continue = send d {|{"op":"health","id":3}|} in
        check Alcotest.bool "ok" true (rbool "ok" v);
        check Alcotest.bool "keeps serving" true continue;
        check Alcotest.int "protocol version"
          Serve.Daemon.protocol_version (rint "protocol" v);
        check Alcotest.int "uptime counts this request" 2
          (rint "uptime_requests" v);
        check Alcotest.int "configured deadline" 5000 (rint "deadline_ms" v);
        check Alcotest.int "configured queue bound" 7 (rint "max_queue" v);
        (match rmember "cache" v with
         | Some cache ->
           check Alcotest.int "one resident entry" 1 (rint "entries" cache);
           check Alcotest.bool "bytes charged" true (rint "bytes" cache > 0)
         | None -> Alcotest.fail "no cache occupancy");
        match rmember "asl_memo" v with
        | Some memo -> ignore (rint "cap" memo)
        | None -> Alcotest.fail "no asl_memo occupancy");
    tc "fuel expiry answers a typed timeout, warm retry is byte-identical"
      (fun () ->
        let model = Lazy.force demo_model in
        let d = Serve.Daemon.create () in
        let v, continue =
          send d
            (Printf.sprintf
               {|{"op":"simulate","model":%S,"rtl":true,"fuel":2}|} model)
        in
        check Alcotest.bool "ok:false" false (rbool "ok" v);
        check Alcotest.string "typed code" "timeout" (rstr "code" v);
        check Alcotest.string "deterministic diagnostic"
          "budget expired: fuel limit 2 exhausted\n" (rstr "error" v);
        check Alcotest.bool "daemon keeps serving" true continue;
        (* the expired request must not have poisoned the cache: the
           warm retry matches the one-shot CLI byte-for-byte *)
        assert_differential d
          ~args:[ "simulate"; "--rtl"; model ]
          ~request:
            (Printf.sprintf {|{"op":"simulate","model":%S,"rtl":true}|} model);
        let v, _ = send d {|{"op":"stats"}|} in
        check Alcotest.int "timeout counted" 1 (serve_counter v "timeouts");
        assert_ledger_reconciles v);
    tc "fuel cancels analyze and inject too" (fun () ->
        let model = Lazy.force demo_model in
        let d = Serve.Daemon.create () in
        List.iter
          (fun req ->
            let v, _ = send d req in
            check Alcotest.string "typed code" "timeout" (rstr "code" v))
          [
            Printf.sprintf {|{"op":"analyze","model":%S,"fuel":1}|} model;
            Printf.sprintf
              {|{"op":"inject","model":%S,"faults":3,"fuel":1}|} model;
          ];
        let v, _ = send d {|{"op":"stats"}|} in
        check Alcotest.int "both counted" 2 (serve_counter v "timeouts"));
    tc "wall-clock deadline requests stay well-formed" (fun () ->
        let model = Lazy.force demo_model in
        let d = Serve.Daemon.create () in
        (* can't pin whether 1 ms suffices on this machine — pin the
           protocol: either a clean success or a typed timeout *)
        let v, continue =
          send d
            (Printf.sprintf
               {|{"op":"analyze","model":%S,"deadline_ms":1}|} model)
        in
        check Alcotest.bool "keeps serving" true continue;
        (if rbool "ok" v then ()
         else check Alcotest.string "typed code" "timeout" (rstr "code" v));
        let v, _ = send d {|{"op":"stats"}|} in
        assert_ledger_reconciles v);
    tc "budget fields are validated" (fun () ->
        let d = Serve.Daemon.create () in
        List.iter (assert_protocol_error d)
          [
            {|{"op":"simulate","model":"x.xmi","fuel":3,"deadline_ms":5}|};
            {|{"op":"analyze","model":"x.xmi","fuel":-1}|};
            {|{"op":"inject","model":"x.xmi","deadline_ms":0}|};
            (* only the long-running ops take budgets *)
            {|{"op":"validate","model":"x.xmi","fuel":3}|};
            {|{"op":"lint","model":"x.xmi","deadline_ms":5}|};
          ]);
    tc "degradation evicts caches, retries once, answers typed error"
      (fun () ->
        let d = Serve.Daemon.create () in
        let model = Lazy.force demo_model in
        ignore (send d (Printf.sprintf {|{"op":"info","model":%S}|} model));
        (* first crash: caches evicted, thunk retried and succeeds *)
        let crashes = ref 1 in
        (match
           Serve.Daemon.with_degradation d (fun () ->
               if !crashes > 0 then begin
                 decr crashes;
                 raise Out_of_memory
               end
               else 42)
         with
         | Ok n -> check Alcotest.int "retry succeeded" 42 n
         | Error e -> Alcotest.failf "expected recovery, got: %s" e);
        (* the crash evicted the resident artifact cache *)
        let v, _ = send d (Printf.sprintf {|{"op":"info","model":%S}|} model) in
        (match rmember "cache" v with
         | Some (Serve.Json.List [ entry ]) ->
           check Alcotest.string "cache was evicted" "miss"
             (rstr "state" entry)
         | Some _ | None -> Alcotest.fail "expected one cache entry");
        (* a double crash is a typed error, not a dead daemon *)
        (match Serve.Daemon.with_degradation d (fun () -> raise Out_of_memory)
         with
         | Ok _ -> Alcotest.fail "expected Error"
         | Error msg ->
           check Alcotest.bool "diagnostic names the crash" true
             (String.length msg > 0));
        (* budget expiry passes through untouched *)
        (match
           Serve.Daemon.with_degradation d (fun () ->
               raise (Exec.Budget.Expired "x"))
         with
         | Ok _ | Error _ -> Alcotest.fail "Expired must pass through"
         | exception Exec.Budget.Expired _ -> ());
        let v, _ = send d {|{"op":"stats"}|} in
        check Alcotest.int "degradations counted" 2
          (serve_counter v "degradations"));
    tc "corrupt persisted snapshots are quarantined and counted" (fun () ->
        let dir = fresh_dir (Filename.concat tmp "serve_quarantine") in
        let p =
          tiny_model "quarantine_me"
            (Filename.concat tmp "serve_quarantine_src.xmi")
        in
        let c1 = Serve.Cache.create ~persist_dir:dir () in
        check Alcotest.string "cold" "miss" (load_state c1 p);
        Array.iter
          (fun f ->
            if Filename.check_suffix f ".sumb" then
              ignore (write_file (Filename.concat dir f) "\xd3SUMBgarbage"))
          (Sys.readdir dir);
        let c2 = Serve.Cache.create ~persist_dir:dir () in
        check Alcotest.string "falls back to parsing" "miss"
          (load_state c2 p);
        check Alcotest.int "quarantine counted" 1
          (Serve.Cache.stats c2).Serve.Cache.cs_quarantined;
        check Alcotest.bool "rotten file renamed aside" true
          (Array.exists
             (fun f -> Filename.check_suffix f ".corrupt")
             (Sys.readdir dir));
        (* the reparse self-heals: a fresh, valid snapshot replaces the
           quarantined one, and the next cold start refills from it
           without touching quarantine again *)
        let c3 = Serve.Cache.create ~persist_dir:dir () in
        check Alcotest.string "healed snapshot refills" "snap"
          (load_state c3 p);
        check Alcotest.int "inspected at most once" 0
          (Serve.Cache.stats c3).Serve.Cache.cs_quarantined);
    tc "request_stop is observable and sticky" (fun () ->
        let d = Serve.Daemon.create () in
        check Alcotest.bool "initially live" false
          (Serve.Daemon.stop_requested d);
        Serve.Daemon.request_stop d;
        check Alcotest.bool "stopping" true (Serve.Daemon.stop_requested d);
        Serve.Daemon.request_stop d;
        check Alcotest.bool "idempotent" true
          (Serve.Daemon.stop_requested d));
  ]

(* ------------------------------------------------------------------ *)
(* Protocol boundary properties                                       *)

let qcheck_depth_cap =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:50
       ~name:"json: nesting accepted through depth 129, rejected past it"
       QCheck.(int_range 1 40)
       (fun extra ->
         let nest n =
           String.concat "" (List.init n (fun _ -> "["))
           ^ String.concat "" (List.init n (fun _ -> "]"))
         in
         let accepted n =
           match Serve.Json.parse (nest n) with
           | Ok _ -> true
           | Error _ -> false
         in
         accepted 129 && (not (accepted 130)) && not (accepted (129 + extra))))

let qcheck_line_cap =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:20
       ~name:"daemon: line cap accepts exactly-at-limit, refuses one past"
       QCheck.(int_range 0 64)
       (fun slack ->
         let d = Serve.Daemon.create () in
         (* pad a healthy request with trailing blanks (trimmed by the
            protocol) to hit an exact byte length *)
         let padded target =
           let body = {|{"op":"stats"}|} in
           body ^ String.make (target - String.length body) ' '
         in
         let at_limit, _ =
           send d (padded (Serve.Daemon.max_line_bytes - slack))
         in
         let over, _ =
           send d
             (padded (Serve.Daemon.max_line_bytes + 1 + slack))
         in
         rbool "ok" at_limit
         && (not (rbool "ok" over))
         && rstr "error" over
            = Printf.sprintf "request line exceeds %d bytes"
                Serve.Daemon.max_line_bytes))

let () =
  Alcotest.run "serve"
    [
      ("json", json_tests);
      ("cache", cache_tests);
      ("daemon", daemon_tests);
      ("differential", differential_tests);
      ("answers", answer_tests);
      ("stat memo", memo_tests);
      ("op table", op_table_tests);
      ("metrics", metrics_tests);
      ("resilience", resilience_tests @ [ qcheck_depth_cap; qcheck_line_cap ]);
    ]
