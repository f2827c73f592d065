(* socuml — command-line front end for the UML-2.0-for-SoC toolchain.

   The model-op subcommands are generated from [Serve.Op_spec], the
   table the serve daemon decodes its requests from, so one-shot and
   daemon flags, defaults and output are identical by construction;
   this file only adds the subcommands that are not model ops
   ([rules], [serve], [demo]). *)

open Cmdliner

let guarded f = Serve.Ops.guarded Serve.Ops.std_sink f

(* --- demo ------------------------------------------------------------- *)

let out_dir_arg =
  let doc = "Output directory for demo artifacts." in
  Arg.(value & opt string "_demo" & info [ "out" ] ~docv:"DIR" ~doc)

let demo_cmd =
  let run dir =
    guarded @@ fun () ->
    if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
    let m = Uml.Model.create "demo_soc" in
    let profile = Profiles.Soc_profile.install m in
    let instances =
      [ ("timer0", Iplib.Cores.timer ()); ("gpio0", Iplib.Cores.gpio ());
        ("fifo0", Iplib.Cores.fifo4 ()) ]
    in
    let _soc = Iplib.Soc.component m ~profile ~name:"DemoSoc" instances in
    (* a behavioral slice too, so analyze/simulate/partition have work *)
    Uml.Model.add m
      (Uml.Model.E_activity
         (Workload.Gen_activity.series_parallel ~seed:42 ~size:12
            ~max_width:3));
    let a = Uml.Smachine.simple_state "Off" in
    let b = Uml.Smachine.simple_state "On" in
    let init = Uml.Smachine.pseudostate Uml.Smachine.Initial in
    let region =
      Uml.Smachine.region
        [ Uml.Smachine.Pseudo init; Uml.Smachine.State a; Uml.Smachine.State b ]
        [
          Uml.Smachine.transition ~source:init.Uml.Smachine.ps_id
            ~target:a.Uml.Smachine.st_id ();
          Uml.Smachine.transition
            ~triggers:[ Uml.Smachine.Signal_trigger "toggle" ]
            ~source:a.Uml.Smachine.st_id ~target:b.Uml.Smachine.st_id ();
          Uml.Smachine.transition
            ~triggers:[ Uml.Smachine.Signal_trigger "toggle" ]
            ~source:b.Uml.Smachine.st_id ~target:a.Uml.Smachine.st_id ();
        ]
    in
    Uml.Model.add m
      (Uml.Model.E_state_machine (Uml.Smachine.make "Power" [ region ]));
    let xmi_path = Filename.concat dir "demo_soc.xmi" in
    Xmi.Write.write_file m xmi_path;
    let d = Iplib.Soc.design ~name:"demo_soc" instances in
    let vhdl_path = Filename.concat dir "demo_soc.vhd" in
    let oc = open_out vhdl_path in
    output_string oc (Codegen.Vhdl.of_design d);
    close_out oc;
    let flat = Hdl.Elaborate.flatten d in
    let sim = Dsim.Fast.create flat in
    let vcd = Dsim.Vcd.create sim in
    Dsim.Fast.set_input sim "rst" 1;
    Dsim.Fast.clock_edge sim "clk";
    Dsim.Fast.set_input sim "rst" 0;
    Dsim.Fast.set_input sim "timer0_enable" 1;
    for t = 0 to 19 do
      Dsim.Fast.clock_edge sim "clk";
      Dsim.Vcd.sample vcd ~time:t
    done;
    let vcd_path = Filename.concat dir "demo_soc.vcd" in
    Dsim.Vcd.write_file vcd vcd_path;
    Printf.printf "wrote %s, %s, %s\n" xmi_path vhdl_path vcd_path;
    Printf.printf "timer count after 20 cycles: %d\n"
      (Dsim.Fast.get sim "timer0_count");
    0
  in
  let doc = "Build the demo SoC and write XMI, VHDL and VCD artifacts." in
  Cmd.v (Cmd.info "demo" ~doc) Term.(const run $ out_dir_arg)

let rules_cmd =
  let run format =
    guarded @@ fun () ->
    (match format with
     | `Text -> print_string (Lint.Report.rules_to_text ())
     | `Json -> print_string (Lint.Report.rules_to_json ()));
    0
  in
  let doc =
    "Print the registered lint rule table (code, severity, summary). \
     The codes listed here are exactly the selectors accepted by \
     $(b,--only) and $(b,--disable)."
  in
  Cmd.v (Cmd.info "rules" ~doc) Term.(const run $ Serve.Op_spec.format_term)

(* --- serve ------------------------------------------------------------- *)

let socket_arg =
  let doc =
    "Listen on a Unix-domain socket at $(docv) instead of serving \
     stdin/stdout (one connection at a time; a $(b,quit) request stops \
     the daemon)."
  in
  Arg.(value & opt (some string) None & info [ "socket" ] ~docv:"PATH" ~doc)

let cache_entries_arg =
  let doc = "Maximum number of models resident in the artifact cache." in
  Arg.(value & opt int 64 & info [ "cache-entries" ] ~docv:"N" ~doc)

let cache_bytes_arg =
  let doc =
    "Byte budget for the artifact cache (entries are charged their \
     source-file size)."
  in
  Arg.(
    value
    & opt int (256 * 1024 * 1024)
    & info [ "cache-bytes" ] ~docv:"BYTES" ~doc)

let cache_dir_arg =
  let doc =
    "Persist cache entries as $(b,.sumb) snapshots under $(docv) (created \
     if missing) and refill from them on later misses — a restarted \
     daemon warms up without re-parsing XMI."
  in
  Arg.(value & opt (some string) None & info [ "cache-dir" ] ~docv:"DIR" ~doc)

let asl_memo_cap_arg =
  let doc =
    "Cap the process-global ASL compilation memo at $(docv) entries per \
     table (least-recently-used eviction; default 4096)."
  in
  Arg.(
    value & opt (some int) None & info [ "asl-memo-cap" ] ~docv:"N" ~doc)

let deadline_ms_arg =
  let doc =
    "Server-wide wall-clock budget in milliseconds for \
     $(b,simulate)/$(b,analyze)/$(b,inject) requests (0 disables; a \
     request's own $(b,fuel)/$(b,deadline_ms) field overrides it).  \
     Expired requests answer a typed $(b,timeout) error; the daemon and \
     its caches keep serving."
  in
  Arg.(value & opt int 0 & info [ "deadline-ms" ] ~docv:"MS" ~doc)

let max_queue_arg =
  let doc =
    "Bound on buffered pending request lines; lines past it are \
     answered immediately with an $(b,overloaded) error instead of \
     buffering without bound."
  in
  Arg.(value & opt int 64 & info [ "max-queue" ] ~docv:"N" ~doc)

let health_check_arg =
  let doc =
    "Don't serve: answer one $(b,health) probe and exit.  With \
     $(b,--socket), connects to the running daemon at that path; \
     otherwise reports an in-process daemon built from the given flags \
     (a configuration check)."
  in
  Arg.(value & flag & info [ "health-check" ] ~doc)

(* One health probe against a live daemon: connect, send the op, print
   the single response line.  Any failure (no daemon, refused, dead
   peer) is the standard one-line diagnostic + exit 1 via [guarded]. *)
let health_probe path =
  let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close sock with Unix.Unix_error _ -> ())
    (fun () ->
      (match Unix.connect sock (Unix.ADDR_UNIX path) with
       | () -> ()
       | exception Unix.Unix_error (err, _, _) ->
         failwith
           (Printf.sprintf "cannot connect to daemon at %s: %s" path
              (Unix.error_message err)));
      let req = "{\"op\":\"health\"}\n" in
      let _ = Unix.write_substring sock req 0 (String.length req) in
      let ic = Unix.in_channel_of_descr sock in
      match input_line ic with
      | line ->
        print_endline line;
        0
      | exception End_of_file ->
        failwith "daemon closed the connection without answering")

let serve_cmd =
  let run socket cache_entries cache_bytes cache_dir asl_cap deadline_ms
      max_queue health_check =
    guarded @@ fun () ->
    if health_check && socket <> None then
      health_probe (Option.get socket)
    else begin
      (match asl_cap with
       | Some cap -> Asl.Compiled.set_memo_cap cap
       | None -> ());
      let deadline_ms = if deadline_ms = 0 then None else Some deadline_ms in
      let daemon =
        Serve.Daemon.create ~max_entries:cache_entries ~max_bytes:cache_bytes
          ?persist_dir:cache_dir ?deadline_ms ~max_queue ()
      in
      if health_check then begin
        (match Serve.Daemon.handle_line daemon "{\"op\":\"health\"}" with
         | Some line, _ -> print_endline line
         | None, _ -> ());
        0
      end
      else begin
        (* graceful shutdown: drain pending lines with [shutting_down],
           flush persistence, remove the socket file *)
        let stop _ = Serve.Daemon.request_stop daemon in
        Sys.set_signal Sys.sigterm (Sys.Signal_handle stop);
        Sys.set_signal Sys.sigint (Sys.Signal_handle stop);
        (match socket with
         | Some path -> Serve.Daemon.serve_socket daemon path
         | None -> Serve.Daemon.serve_channel daemon stdin stdout);
        0
      end
    end
  in
  let doc =
    "Run a persistent daemon: newline-delimited JSON requests mirroring \
     the subcommands (one response line per request, output \
     byte-identical to the one-shot CLI), with a content-hash LRU cache \
     of loaded models and their compiled artifacts so repeated requests \
     skip the load and lowering entirely.  Per-request deadlines, \
     overload shedding and SIGTERM/SIGINT draining are built in.  See \
     DESIGN.md for the protocol and its error-code table."
  in
  Cmd.v (Cmd.info "serve" ~doc)
    Term.(
      const run $ socket_arg $ cache_entries_arg $ cache_bytes_arg
      $ cache_dir_arg $ asl_memo_cap_arg $ deadline_ms_arg $ max_queue_arg
      $ health_check_arg)

let main =
  let doc = "UML 2.0 modeling and MDA toolchain for SoC design" in
  Cmd.group
    (Cmd.info "socuml" ~version:"1.0.0" ~doc)
    (List.map Serve.Op_spec.cmd Serve.Op_spec.table
    @ [ rules_cmd; serve_cmd; demo_cmd ])

let () = exit (Cmd.eval' main)
