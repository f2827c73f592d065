(* Hostile-input hardening of the socuml CLI: every subcommand driven
   against corrupt fixtures (missing path, directory-as-file, truncated
   XMI, garbage bytes, empty file) must print a one-line diagnostic and
   exit 1 — never an exception trace, never cmdliner's exit 124. *)

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

(* Run one fully-formed argument list; return (exit_code, stderr). *)
let run_cli args =
  let err = Filename.temp_file "socuml_cli" ".err" in
  let cmd =
    Printf.sprintf "%s %s >/dev/null 2>%s"
      (Filename.quote exe)
      (String.concat " " (List.map Filename.quote args))
      (Filename.quote err)
  in
  let code = Sys.command cmd in
  let stderr = read_file err in
  Sys.remove err;
  (code, stderr)

(* Every subcommand with its required arguments around the model path. *)
let subcommands model =
  [
    [ "validate"; model ]; [ "lint"; model ]; [ "info"; model ];
    [ "gen"; model; "vhdl" ]; [ "simulate"; model ]; [ "trace"; model ];
    [ "partition"; model ]; [ "analyze"; model ]; [ "inject"; model ];
    [ "pack"; model ];
  ]

let assert_graceful label model =
  List.iter
    (fun args ->
      let sub = String.concat " " args in
      let code, stderr = run_cli args in
      if code <> 1 then
        Alcotest.failf "%s on %s: exit %d, want 1 (stderr: %s)" sub label code
          stderr;
      if String.trim stderr = "" then
        Alcotest.failf "%s on %s: no diagnostic on stderr" sub label;
      let contains hay needle =
        let nh = String.length hay and nn = String.length needle in
        let rec at i =
          i + nn <= nh && (String.sub hay i nn = needle || at (i + 1))
        in
        at 0
      in
      List.iter
        (fun marker ->
          if contains stderr marker then
            Alcotest.failf "%s on %s: exception trace leaked: %s" sub label
              stderr)
        [ "Fatal error"; "Raised at"; "Raised by"; "Called from" ])
    (subcommands model)

let corrupt_fixture_tests =
  [
    tc "nonexistent path" (fun () ->
        assert_graceful "missing file"
          (Filename.concat tmp "no_such_model_socuml.xmi"));
    tc "directory passed as model" (fun () ->
        let dir = Filename.concat tmp "socuml_cli_dir.xmi" in
        if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
        assert_graceful "directory" dir);
    tc "empty file" (fun () ->
        assert_graceful "empty file"
          (write_file (Filename.concat tmp "socuml_cli_empty.xmi") ""));
    tc "garbage bytes" (fun () ->
        assert_graceful "garbage"
          (write_file
             (Filename.concat tmp "socuml_cli_garbage.xmi")
             "\x00\xffnot xml at all \x01\x02<<<"));
    tc "truncated xmi" (fun () ->
        assert_graceful "truncated"
          (write_file
             (Filename.concat tmp "socuml_cli_trunc.xmi")
             "<?xml version=\"1.0\"?>\n<xmi:XMI xmlns:xmi=\"http://www.omg\
              .org/XMI\"><uml:Model name=\"t"));
    tc "elements nested past the depth limit" (fun () ->
        (* 200 000 levels: well past the cap, so the rejection must come
           from the cap (fast, one line) rather than the stack *)
        let depth = 200_000 in
        let path =
          write_file
            (Filename.concat tmp "socuml_cli_deep.xmi")
            (String.concat ""
               [
                 "<xmi:XMI>";
                 String.concat "" (List.init depth (fun _ -> "<a>"));
                 String.concat "" (List.init depth (fun _ -> "</a>"));
                 "</xmi:XMI>";
               ])
        in
        assert_graceful "deep nesting" path;
        let code, stderr = run_cli [ "validate"; path ] in
        check Alcotest.int "exit" 1 code;
        check Alcotest.string "diagnostic"
          (Printf.sprintf
             "cannot import %s: XML parse error at 1:3079: elements nested \
              deeper than 1024 levels"
             path)
          (String.trim stderr));
    tc "well-formed xml that is not a model" (fun () ->
        assert_graceful "wrong schema"
          (write_file
             (Filename.concat tmp "socuml_cli_schema.xmi")
             "<?xml version=\"1.0\"?><root><child attr=\"1\"/></root>"));
  ]

(* Binary snapshots must be exactly as hard to crash as XMI: every
   subcommand gets the same one-line-diagnostic-and-exit-1 treatment on
   truncated, corrupt and future-version snapshot bytes, and accepts a
   healthy `.sumb` transparently. *)
let snapshot_tests =
  let packed_demo () =
    let out = Filename.concat tmp "socuml_cli_snap" in
    let code =
      Sys.command
        (Printf.sprintf "%s demo --out %s >/dev/null 2>&1"
           (Filename.quote exe) (Filename.quote out))
    in
    check Alcotest.int "demo exit" 0 code;
    let model = Filename.concat out "demo_soc.xmi" in
    let code, stderr = run_cli [ "pack"; model ] in
    if code <> 0 then
      Alcotest.failf "pack: exit %d (stderr: %s)" code stderr;
    Filename.concat out "demo_soc.sumb"
  in
  [
    tc "truncated snapshot header" (fun () ->
        assert_graceful "truncated header"
          (write_file (Filename.concat tmp "socuml_cli_hdr.sumb") "\xd3SU"));
    tc "future snapshot version" (fun () ->
        let snap = read_file (packed_demo ()) in
        let data = Bytes.of_string snap in
        Bytes.set data 5 '\x63';
        assert_graceful "future version"
          (write_file
             (Filename.concat tmp "socuml_cli_ver.sumb")
             (Bytes.to_string data)));
    tc "snapshot truncated mid-stream" (fun () ->
        let snap = read_file (packed_demo ()) in
        assert_graceful "mid-stream truncation"
          (write_file
             (Filename.concat tmp "socuml_cli_cut.sumb")
             (String.sub snap 0 (String.length snap / 2))));
    tc "snapshot with trailing bytes" (fun () ->
        let snap = read_file (packed_demo ()) in
        assert_graceful "trailing bytes"
          (write_file
             (Filename.concat tmp "socuml_cli_tail.sumb")
             (snap ^ "\x00\x01")));
    tc "every subcommand accepts a healthy snapshot" (fun () ->
        let snap = packed_demo () in
        List.iter
          (fun args ->
            let code, stderr = run_cli args in
            if code <> 0 then
              Alcotest.failf "%s: exit %d (stderr: %s)"
                (String.concat " " args)
                code stderr)
          [
            [ "validate"; snap ]; [ "lint"; snap ]; [ "info"; snap ];
            [ "gen"; snap; "vhdl" ]; [ "simulate"; snap ];
            [ "partition"; snap ]; [ "analyze"; snap ];
            [ "inject"; snap; "--seed"; "1"; "--faults"; "3" ];
          ]);
    tc "packing a snapshot reproduces it byte-for-byte" (fun () ->
        let snap = packed_demo () in
        let again = Filename.concat tmp "socuml_cli_repack.sumb" in
        let code, stderr = run_cli [ "pack"; snap; "-o"; again ] in
        if code <> 0 then
          Alcotest.failf "re-pack: exit %d (stderr: %s)" code stderr;
        check Alcotest.string "identical bytes" (read_file snap)
          (read_file again));
  ]

(* A healthy model must still work after the hardening: generate the
   demo SoC once and push it through the read-only subcommands. *)
let demo_roundtrip_tests =
  [
    tc "demo model still passes through every subcommand" (fun () ->
        let out = Filename.concat tmp "socuml_cli_demo" in
        let code =
          Sys.command
            (Printf.sprintf "%s demo --out %s >/dev/null 2>&1"
               (Filename.quote exe) (Filename.quote out))
        in
        check Alcotest.int "demo exit" 0 code;
        let model = Filename.concat out "demo_soc.xmi" in
        List.iter
          (fun args ->
            let code, stderr = run_cli args in
            if code <> 0 then
              Alcotest.failf "%s: exit %d (stderr: %s)"
                (String.concat " " args)
                code stderr)
          [
            [ "validate"; model ]; [ "lint"; model ]; [ "info"; model ];
            [ "analyze"; model ];
            [ "inject"; model; "--seed"; "1"; "--faults"; "3" ];
          ]);
    tc "inject refuses fault counts past the plan limit" (fun () ->
        let out = Filename.concat tmp "socuml_cli_demo" in
        let code =
          Sys.command
            (Printf.sprintf "%s demo --out %s >/dev/null 2>&1"
               (Filename.quote exe) (Filename.quote out))
        in
        check Alcotest.int "demo exit" 0 code;
        let model = Filename.concat out "demo_soc.xmi" in
        List.iter
          (fun count ->
            let code, stderr = run_cli [ "inject"; "--faults"; count; model ] in
            check Alcotest.int ("exit at " ^ count) 1 code;
            check Alcotest.string ("diagnostic at " ^ count)
              "--faults must be at most 100000\n" stderr)
          [ "100001"; "200000000" ];
        let code, stderr = run_cli [ "inject"; "--faults=-1"; model ] in
        check Alcotest.int "negative exit" 1 code;
        check Alcotest.string "negative diagnostic"
          "--faults must be non-negative\n" stderr);
  ]

(* Rule-selector hygiene: bogus --only/--disable strings are typos and
   must be rejected with a one-line diagnostic before any model loads;
   valid family selectors keep working; `socuml rules` documents the
   accepted codes in both formats. *)
let selector_tests =
  let demo_model () =
    let out = Filename.concat tmp "socuml_cli_sel" in
    let code =
      Sys.command
        (Printf.sprintf "%s demo --out %s >/dev/null 2>&1"
           (Filename.quote exe) (Filename.quote out))
    in
    check Alcotest.int "demo exit" 0 code;
    Filename.concat out "demo_soc.xmi"
  in
  [
    tc "lint rejects an unknown selector" (fun () ->
        let model = demo_model () in
        let code, stderr = run_cli [ "lint"; "--only"; "DF-99"; model ] in
        check Alcotest.int "exit" 1 code;
        check Alcotest.bool "one-line diagnostic" true
          (String.trim stderr <> ""
          && not (String.contains (String.trim stderr) '\n')));
    tc "analyze rejects an unknown selector" (fun () ->
        let model = demo_model () in
        let code, stderr =
          run_cli [ "analyze"; "--disable"; "BOGUS"; model ]
        in
        check Alcotest.int "exit" 1 code;
        check Alcotest.bool "diagnostic names the selector" true
          (String.trim stderr <> "");
        (* rejection happens before the model is read *)
        let code, _ =
          run_cli
            [ "lint"; "--only"; "NOPE";
              Filename.concat tmp "no_such_model_socuml.xmi" ]
        in
        check Alcotest.int "rejected before load" 1 code);
    tc "family selectors still work" (fun () ->
        let model = demo_model () in
        List.iter
          (fun args ->
            let code, stderr = run_cli args in
            if code <> 0 then
              Alcotest.failf "%s: exit %d (stderr: %s)"
                (String.concat " " args)
                code stderr)
          [
            [ "lint"; "--only"; "ASL"; model ];
            [ "lint"; "--only"; "DF"; "--disable"; "DF-02"; model ];
            [ "analyze"; "--only"; "SC,DF"; model ];
          ]);
    tc "rules prints the table in both formats" (fun () ->
        List.iter
          (fun args ->
            let code, stderr = run_cli args in
            if code <> 0 then
              Alcotest.failf "%s: exit %d (stderr: %s)"
                (String.concat " " args)
                code stderr)
          [ [ "rules" ]; [ "rules"; "--format"; "json" ] ]);
  ]

(* The serve daemon under the same hostile-input discipline as the
   one-shot subcommands: every malformed request line must answer
   exactly one JSON error line, never kill the process, and EOF must
   end the loop cleanly.  (In-process protocol coverage lives in
   test_serve.ml; this drives the real subprocess over a pipe.) *)
let serve_tests =
  let run_serve ?(final_newline = true) requests =
    let req =
      write_file
        (Filename.concat tmp "socuml_cli_serve.req")
        (String.concat "\n" requests ^ if final_newline then "\n" else "")
    in
    let out = Filename.concat tmp "socuml_cli_serve.out" in
    let code =
      Sys.command
        (Printf.sprintf "%s serve <%s >%s 2>/dev/null" (Filename.quote exe)
           (Filename.quote req) (Filename.quote out))
    in
    let body = String.trim (read_file out) in
    (code, if body = "" then [] else String.split_on_char '\n' body)
  in
  [
    tc "hostile request lines each answer one JSON line, daemon survives"
      (fun () ->
        let corrupt_snap =
          write_file
            (Filename.concat tmp "socuml_cli_serve_bad.sumb")
            "\xd3SUMBgarbage"
        in
        let oversized =
          Printf.sprintf {|{"op":"info","model":"%s"}|}
            (String.make (1024 * 1024 + 1) 'a')
        in
        let requests =
          [
            "garbage bytes";
            "[1,2,3]";
            {|{"op":"frobnicate"}|};
            {|{"op":"info"}|};
            {|{"op":"info","model":"/no/such/model.xmi"}|};
            Printf.sprintf {|{"op":"validate","model":%S}|} corrupt_snap;
            oversized;
            "";
            {|{"op":"stats"}|};
            {|{"op":"quit"}|};
          ]
        in
        let code, lines = run_serve requests in
        check Alcotest.int "daemon exit" 0 code;
        (* one response per non-blank request line *)
        check Alcotest.int "one response per request" 9 (List.length lines);
        List.iter
          (fun l ->
            check Alcotest.bool "every response is a JSON object" true
              (String.length l > 0 && l.[0] = '{'))
          lines);
    tc "EOF without quit ends the loop cleanly" (fun () ->
        let code, lines = run_serve [ {|{"op":"stats"}|} ] in
        check Alcotest.int "daemon exit" 0 code;
        check Alcotest.int "one response" 1 (List.length lines));
    tc "an over-limit inject is refused and the daemon keeps serving"
      (fun () ->
        let out = Filename.concat tmp "socuml_cli_serve_demo" in
        let code =
          Sys.command
            (Printf.sprintf "%s demo --out %s >/dev/null 2>&1"
               (Filename.quote exe) (Filename.quote out))
        in
        check Alcotest.int "demo exit" 0 code;
        let model = Filename.concat out "demo_soc.xmi" in
        let code, lines =
          run_serve
            [
              Printf.sprintf {|{"op":"inject","model":%S,"faults":200000000}|}
                model;
              Printf.sprintf {|{"op":"inject","model":%S,"faults":3}|} model;
              {|{"op":"quit"}|};
            ]
        in
        check Alcotest.int "daemon exit" 0 code;
        let contains hay needle =
          let nh = String.length hay and nn = String.length needle in
          let rec at i =
            i + nn <= nh && (String.sub hay i nn = needle || at (i + 1))
          in
          at 0
        in
        match lines with
        | [ refused; served; _quit ] ->
          check Alcotest.bool "refused with the limit" true
            (contains refused {|"exit":1|}
            && contains refused "--faults must be at most 100000");
          check Alcotest.bool "next request served" true
            (contains served {|"exit":0|})
        | _ -> Alcotest.failf "want 3 responses, got %d" (List.length lines));
    (* EOF ends an unterminated last line; it is answered like any
       other line, exactly once. *)
    tc "a last request without a newline is answered once" (fun () ->
        let code, lines =
          run_serve ~final_newline:false
            [ {|{"op":"health"}|}; {|{"op":"stats"}|} ]
        in
        check Alcotest.int "daemon exit" 0 code;
        match lines with
        | [ _health; stats ] ->
          check Alcotest.bool "stats answered, counting both lines" true
            (String.starts_with ~prefix:{|{"op":"stats","ok":true,"exit":0,"requests":2,|}
               stats)
        | _ -> Alcotest.failf "want 2 responses, got %d" (List.length lines));
    tc "an oversized last line without a newline is answered once"
      (fun () ->
        let code, lines =
          run_serve ~final_newline:false
            [ {|{"op":"health"}|}; String.make (1024 * 1024 + 1) 'a' ]
        in
        check Alcotest.int "daemon exit" 0 code;
        match lines with
        | [ _health; refused ] ->
          check Alcotest.string "oversized refusal"
            {|{"ok":false,"error":"request line exceeds 1048576 bytes"}|}
            refused
        | _ -> Alcotest.failf "want 2 responses, got %d" (List.length lines));
  ]

(* ------------------------------------------------------------------ *)
(* Daemon lifecycle: signals, socket files, health probes             *)

(* Spawn [socuml serve] with the given extra args; returns the pid. *)
let spawn_daemon args =
  let null_in = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let null_out = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  let pid =
    Unix.create_process exe
      (Array.of_list (exe :: "serve" :: args))
      null_in null_out null_out
  in
  Unix.close null_in;
  Unix.close null_out;
  pid

(* Poll for a condition with a bounded wait — daemon startup/shutdown
   is asynchronous, so lifecycle assertions need a grace window. *)
let wait_for ?(timeout = 5.0) what f =
  let t0 = Unix.gettimeofday () in
  let rec loop () =
    if f () then ()
    else if Unix.gettimeofday () -. t0 > timeout then
      Alcotest.failf "timed out waiting for %s" what
    else begin
      Unix.sleepf 0.02;
      loop ()
    end
  in
  loop ()

(* One request/response exchange against a daemon socket. *)
let socket_request path line =
  let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close sock with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.connect sock (Unix.ADDR_UNIX path);
      let msg = line ^ "\n" in
      let _n = Unix.write_substring sock msg 0 (String.length msg) in
      let ic = Unix.in_channel_of_descr sock in
      input_line ic)

let lifecycle_tests =
  [
    tc "SIGTERM drains, removes the socket file and exits 0" (fun () ->
        let path = Filename.concat tmp "socuml_cli_sigterm.sock" in
        if Sys.file_exists path then Sys.remove path;
        let pid = spawn_daemon [ "--socket"; path ] in
        wait_for "socket to appear" (fun () -> Sys.file_exists path);
        (* the daemon serves before the signal *)
        let resp = socket_request path {|{"op":"health"}|} in
        check Alcotest.bool "health answered" true
          (String.length resp > 0 && resp.[0] = '{');
        Unix.kill pid Sys.sigterm;
        let _pid, status = Unix.waitpid [] pid in
        check Alcotest.bool "clean exit" true (status = Unix.WEXITED 0);
        check Alcotest.bool "socket file removed" false
          (Sys.file_exists path));
    tc "a stale socket file is reclaimed on restart" (fun () ->
        let path = Filename.concat tmp "socuml_cli_stale.sock" in
        if Sys.file_exists path then Sys.remove path;
        (* leave a dead socket file behind, as a crashed daemon would *)
        let dead = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        Unix.bind dead (Unix.ADDR_UNIX path);
        Unix.close dead;
        check Alcotest.bool "stale file present" true (Sys.file_exists path);
        let pid = spawn_daemon [ "--socket"; path ] in
        wait_for "daemon to claim the stale socket" (fun () ->
            match socket_request path {|{"op":"health"}|} with
            | _resp -> true
            | exception Unix.Unix_error _ -> false
            | exception End_of_file -> false);
        ignore (socket_request path {|{"op":"quit"}|});
        let _pid, status = Unix.waitpid [] pid in
        check Alcotest.bool "clean exit" true (status = Unix.WEXITED 0);
        check Alcotest.bool "socket removed on quit" false
          (Sys.file_exists path));
    tc "a live daemon's socket is never stolen" (fun () ->
        let path = Filename.concat tmp "socuml_cli_live.sock" in
        if Sys.file_exists path then Sys.remove path;
        let pid = spawn_daemon [ "--socket"; path ] in
        wait_for "daemon to listen" (fun () ->
            match socket_request path {|{"op":"health"}|} with
            | _resp -> true
            | exception Unix.Unix_error _ -> false
            | exception End_of_file -> false);
        (* a second daemon must refuse with one diagnostic, exit 1 *)
        let code, stderr = run_cli [ "serve"; "--socket"; path ] in
        check Alcotest.int "second daemon refuses" 1 code;
        check Alcotest.bool "diagnostic names the conflict" true
          (String.length stderr > 0
          && String.index stderr '\n' = String.length stderr - 1);
        (* the probe one-shot reaches the live daemon *)
        let code, _stderr =
          run_cli [ "serve"; "--socket"; path; "--health-check" ]
        in
        check Alcotest.int "health probe exits 0" 0 code;
        ignore (socket_request path {|{"op":"quit"}|});
        ignore (Unix.waitpid [] pid));
    tc "serve refuses to replace a non-socket file" (fun () ->
        let path =
          write_file (Filename.concat tmp "socuml_cli_notasock") "data"
        in
        let code, stderr = run_cli [ "serve"; "--socket"; path ] in
        check Alcotest.int "exit 1" 1 code;
        check Alcotest.bool "one-line diagnostic" true
          (String.length stderr > 0
          && String.index stderr '\n' = String.length stderr - 1);
        check Alcotest.bool "file untouched" true (Sys.file_exists path));
    tc "health-check without a socket reports in-process" (fun () ->
        let out = Filename.concat tmp "socuml_cli_health.out" in
        let code =
          Sys.command
            (Printf.sprintf "%s serve --health-check >%s 2>/dev/null"
               (Filename.quote exe) (Filename.quote out))
        in
        check Alcotest.int "exit 0" 0 code;
        let body = String.trim (read_file out) in
        check Alcotest.bool "one JSON line" true
          (String.length body > 0
          && body.[0] = '{'
          && not (String.contains body '\n')));
  ]

let () =
  Alcotest.run "cli"
    [
      ("corrupt inputs", corrupt_fixture_tests);
      ("snapshot inputs", snapshot_tests);
      ("healthy model", demo_roundtrip_tests);
      ("rule selectors", selector_tests);
      ("serve protocol", serve_tests);
      ("serve lifecycle", lifecycle_tests);
    ]
