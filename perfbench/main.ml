(* Serve-path benchmark: drives a real `socuml serve` over its
   stdin/stdout pipe with one closed-loop client, checks every response
   against the one-shot CLI path, and prints end-to-end metrics
   (--trace 0) or the per-layer decomposition of an in-process traced
   replay (--trace 1).  The last line of stdout is one JSON object:
   {"correct","attempted","failed","metrics"}.  See README.md. *)

open Workloads

let usage =
  "main.exe --workload warm|edit|verify --seed N --seconds S --trace 0|1 [--socuml PATH]"

type args = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  socuml : string;
}

let parse_args () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let socuml = ref "_build/default/bin/socuml.exe" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N seed the inputs are generated from");
      ("--seconds", Arg.Set_float seconds, "S length of the timed loop");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end metrics or per-layer metrics");
      ("--socuml", Arg.Set_string socuml, "PATH the socuml executable to serve with");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  if not (List.mem !workload Workloads.names) then raise (Arg.Bad ("unknown workload " ^ !workload));
  if !trace <> 0 && !trace <> 1 then raise (Arg.Bad "--trace must be 0 or 1");
  { workload = !workload; seed = !seed; seconds = !seconds; trace = !trace = 1; socuml = !socuml }

(* --- statistics --------------------------------------------------------- *)

let sorted_array l =
  let a = Array.of_list l in
  Array.sort compare a;
  a

(* Nearest-rank percentile, with the number of samples above it. *)
let percentile sorted p =
  let n = Array.length sorted in
  let rank = max 1 (min n (int_of_float (Float.ceil (p *. float_of_int n)))) in
  (sorted.(rank - 1), n - rank)

let median l = fst (percentile (sorted_array l) 0.5)
let mean l = List.fold_left ( +. ) 0. l /. float_of_int (max 1 (List.length l))
let ratio a b = if b = 0. then 0. else a /. b

(* --- checking responses ------------------------------------------------- *)

(* A request fails if its response line is missing, is a protocol error
   or carries a [code], or if its exit/output differ from the
   reference. *)
let response_ok refs r resp =
  match resp with
  | None -> false
  | Some line -> (
    let expected = Reference.find refs r in
    let open Serve.Json in
    match parse line with
    | Error _msg -> false
    | Ok v -> (
      match (member "op" v, member "code" v, member "exit" v, member "output" v) with
      | Some _op, None, Some (Int exit), Some (Str output) ->
        exit = expected.Reference.exit && output = expected.Reference.output
      | _other -> false))

(* Daemon counters from a [stats] response. *)
type counts = {
  hits : int;
  misses : int;
  evictions : int;
  entries : int;
  asl_hits : int;
  asl_misses : int;
}

let counts_of line =
  let open Serve.Json in
  let get path =
    let rec walk v keys =
      match keys with
      | [] -> Option.value (to_int v) ~default:(-1)
      | k :: rest -> (
        match member k v with
        | Some v -> walk v rest
        | None -> -1)
    in
    match Option.map parse line with
    | Some (Ok v) -> walk v path
    | Some (Error _) | None -> -1
  in
  {
    hits = get [ "cache"; "hits" ];
    misses = get [ "cache"; "misses" ];
    evictions = get [ "cache"; "evictions" ];
    entries = get [ "cache"; "entries" ];
    asl_hits = get [ "asl_memo"; "hits" ];
    asl_misses = get [ "asl_memo"; "misses" ];
  }

let delta a b =
  {
    hits = b.hits - a.hits;
    misses = b.misses - a.misses;
    evictions = b.evictions - a.evictions;
    entries = b.entries;
    asl_hits = b.asl_hits - a.asl_hits;
    asl_misses = b.asl_misses - a.asl_misses;
  }

let show_counts c =
  Printf.sprintf "cache hits %d misses %d evictions %d entries %d, asl memo hits %d misses %d"
    c.hits c.misses c.evictions c.entries c.asl_hits c.asl_misses

(* Scratch space in the working directory: generated inputs (removed at
   exit) and the span dumps of traced runs. *)
let work_root = ".perfbench"

(* --- file installs -------------------------------------------------------- *)

(* Installs a request's file content in place.  A same-tick edit gets
   the mtime of the previous write to that path, which lies within a
   request's time of the daemon's last read of it: a cache keyed by
   (dev, inode, size, mtime) cannot tell the two contents apart. *)
let install stamps r =
  match r.write with
  | None -> ()
  | Some w ->
    Reference.write_file w.w_path w.w_bytes;
    let stamp =
      match Hashtbl.find_opt stamps w.w_path with
      | Some t when w.w_same_tick -> t
      | Some _ | None -> Unix.gettimeofday ()
    in
    Unix.utimes w.w_path stamp stamp;
    Hashtbl.replace stamps w.w_path stamp

(* --- the piped daemon ------------------------------------------------------ *)

type tally = {
  mutable attempted : int;
  mutable failed : int;
}

type piped = {
  daemon : Client.t;
  stamps : (string, float) Hashtbl.t;
  refs : Reference.table;
  tally : tally;
  mutable next_id : int;
}

let send p r =
  install p.stamps r;
  let line = Workloads.line ~id:p.next_id r in
  p.next_id <- p.next_id + 1;
  line

let check p r resp =
  p.tally.attempted <- p.tally.attempted + 1;
  if not (response_ok p.refs r resp) then p.tally.failed <- p.tally.failed + 1

let untimed p r =
  let resp = Client.roundtrip p.daemon (send p r) in
  check p r resp

(* One pass of the stream; returns the latencies in µs, stream order. *)
let timed_pass p (w : Workloads.t) =
  Array.map
    (fun r ->
      let line = send p r in
      let resp, us = Client.timed_roundtrip p.daemon line in
      check p r resp;
      us)
    w.stream

let stats p = counts_of (Client.roundtrip p.daemon {|{"op":"stats"}|})

(* Spawn a daemon and prime it: every cache and memo the stream uses is
   filled.  Returns the daemon and the seconds from spawn to the last
   priming answer. *)
let start ~exe ~refs ~tally (w : Workloads.t) =
  let t0 = Client.now_ns () in
  let p = { daemon = Client.spawn exe; stamps = Hashtbl.create 2; refs; tally; next_id = 0 } in
  List.iter (untimed p) w.priming;
  (p, Client.seconds_since t0)

(* --- result line ------------------------------------------------------------ *)

let print_result ~correct ~tally metrics =
  let open Serve.Json in
  let metric (name, value, unit) = (name, Obj [ ("value", Float value); ("unit", Str unit) ]) in
  print_endline
    (to_string
       (Obj
          [
            ("correct", Bool correct);
            ("attempted", Int tally.attempted);
            ("failed", Int tally.failed);
            ("metrics", Obj (List.map metric metrics));
          ]))

(* --- --trace 0: end-to-end ----------------------------------------------------- *)

let setups = 7

let end_to_end a (w : Workloads.t) refs =
  let tally = { attempted = 0; failed = 0 } in
  (* [setups] daemons in turn: each is timed from spawn to primed, then
     serves its share of the timed loop, so one daemon's luck (core,
     heap layout) moves the sample by a share, not all of it.  The first
     two also run an untimed counted pass before timing. *)
  let setup_s = ref [] and observed = ref [] and rss = ref [] and passes = ref [] in
  let timed = ref 0. in
  for k = 1 to setups do
    let p, s = start ~exe:a.socuml ~refs ~tally w in
    setup_s := s :: !setup_s;
    if k <= 2 then begin
      let c0 = stats p in
      ignore (timed_pass p w);
      observed := delta c0 (stats p) :: !observed
    end;
    (* whole passes, so the sample has exactly the stream's op mix *)
    let share = a.seconds *. float_of_int k /. float_of_int setups in
    let t0 = Client.now_ns () in
    let first = ref true in
    while !first || !timed +. Client.seconds_since t0 < share do
      passes := timed_pass p w :: !passes;
      (* peak memory after the same work on every daemon: priming and
         one pass *)
      if !first && k > 2 then rss := Client.peak_rss_mb p.daemon :: !rss;
      first := false
    done;
    timed := !timed +. Client.seconds_since t0;
    Client.stop p.daemon
  done;
  let lat = List.concat_map Array.to_list !passes in
  let sorted = sorted_array lat in
  let n = Array.length sorted in
  let p50, _ = percentile sorted 0.5 and p90, beyond = percentile sorted 0.9 in
  let busy_s = Array.fold_left ( +. ) 0. sorted *. 1e-6 in
  let repeat = List.for_all (fun c -> c = List.hd !observed) !observed in
  Printf.printf "workload %s seed %d: %d passes of %d requests on %d daemons (%s)\n" w.name
    a.seed (List.length !passes) (Array.length w.stream) setups
    (String.concat ", " (List.map (fun (op, k) -> Printf.sprintf "%s %d" op k) (Workloads.mix w)));
  Printf.printf "latency p50 %.3f ms, p90 %.3f ms (%d of %d samples beyond p90), %.1f req/s\n"
    (p50 /. 1e3) (p90 /. 1e3) beyond n (float_of_int n /. busy_s);
  Printf.printf "median latency by op:%s\n"
    (String.concat ""
       (List.map
          (fun (op, _k) ->
            let mine =
              List.concat_map
                (fun pass ->
                  List.filteri (fun i _us -> op_name w.stream.(i).op = op) (Array.to_list pass))
                !passes
            in
            Printf.sprintf " %s %.3f ms" op (median mine /. 1e3))
          (Workloads.mix w)));
  Printf.printf "set-up %s s (median %.3f), peak rss %s MiB, failed %d of %d requests\n"
    (String.concat " " (List.rev_map (Printf.sprintf "%.3f") !setup_s))
    (median !setup_s)
    (String.concat " " (List.rev_map (Printf.sprintf "%.1f") !rss))
    tally.failed tally.attempted;
  Printf.printf "counted pass: %s (%s on %d daemons)\n" (show_counts (List.hd !observed))
    (if repeat then "repeats exactly" else "DIFFERS") (List.length !observed);
  print_result ~correct:(tally.failed = 0 && repeat) ~tally
    [
      ("latency_p50_ms", p50 /. 1e3, "ms");
      ("latency_p90_ms", p90 /. 1e3, "ms");
      ("throughput_rps", float_of_int n /. busy_s, "1/s");
      ("setup_s", median !setup_s, "s");
      ("peak_rss_mb", median !rss, "MiB");
    ]

(* --- --trace 1: per layer --------------------------------------------------------- *)

(* Stated tolerances of the parts-add-up check, in percent: replayed
   child spans must account for handle_line, and handle_line plus
   transport for the piped latency. *)
let parts_tolerance_pct = 25.
let e2e_tolerance_pct = 15.

let per_layer a (w : Workloads.t) refs =
  let tally = { attempted = 0; failed = 0 } in
  Asl.Compiled.clear_memo ();
  Gc.compact ();
  (* a piped daemon and an in-process one, primed identically *)
  let p, _setup = start ~exe:a.socuml ~refs ~tally w in
  let daemon = Serve.Daemon.create () in
  let sh = Traced.shadow () in
  let stamps = Hashtbl.create 2 in
  let handle line =
    match Serve.Daemon.handle_line daemon line with
    | Some resp, _continue -> resp
    | None, _continue -> ""
  in
  let in_process r ~id =
    install stamps r;
    Workloads.line ~id r
  in
  let judge r resp =
    tally.attempted <- tally.attempted + 1;
    if not (response_ok refs r (Some resp)) then tally.failed <- tally.failed + 1
  in
  (* priming warms the shadow's memos too: replay untimed *)
  let scratch = Traced.recorder () in
  List.iteri
    (fun i r ->
      let line = in_process r ~id:i in
      let resp = handle line in
      judge r resp;
      ignore
        (Traced.replay scratch sh ~req:i ~root:(-1) r ~line ~response:resp
           ~expected:(Reference.find refs r)))
    w.priming;
  (* interleaved pass: each request through the pipe, then the same
     request through handle_line in-process, so transport (the
     difference) is taken at the same moment and cache state; the
     piped daemon also reports the exact counters of one pass *)
  let c0 = stats p in
  let pipe = Array.make (Array.length w.stream) 0. in
  let plain =
    Array.mapi
      (fun i r ->
        let resp, us = Client.timed_roundtrip p.daemon (send p r) in
        check p r resp;
        pipe.(i) <- us;
        let line = Workloads.line ~id:i r in
        let t0 = Client.now_ns () in
        let resp = handle line in
        let us = Int64.to_float (Int64.sub (Client.now_ns ()) t0) *. 1e-3 in
        judge r resp;
        ignore (Serve.Cache.load sh.Traced.cache r.path);
        us)
      w.stream
  in
  let exact = delta c0 (stats p) in
  Client.stop p.daemon;
  (* traced passes, whole ones, for [seconds]: request [req] is stream
     entry [req mod n] *)
  let n = Array.length w.stream in
  let s0 = counts_of (Some (handle {|{"op":"stats"}|})) in
  let rc = Traced.recorder () in
  let mismatches = ref 0 and memo_hits = ref 0 and memo_misses = ref 0 in
  let traced = ref 0 and t0 = Client.now_ns () in
  while !traced = 0 || Client.seconds_since t0 < a.seconds do
    Array.iteri
      (fun i r ->
        let req = !traced + i in
        let line = in_process r ~id:req in
        let m0 = Asl.Compiled.memo_stats () in
        let resp, root =
          Traced.record rc ~req ~parent:(-1) (fun id -> ((handle line, id), "handle_line"))
        in
        let m1 = Asl.Compiled.memo_stats () in
        memo_hits := !memo_hits + m1.Asl.Compiled.st_hits - m0.Asl.Compiled.st_hits;
        memo_misses := !memo_misses + m1.Asl.Compiled.st_misses - m0.Asl.Compiled.st_misses;
        judge r resp;
        mismatches :=
          !mismatches
          + Traced.replay rc sh ~req ~root r ~line ~response:resp ~expected:(Reference.find refs r))
      w.stream;
    traced := !traced + n
  done;
  let s1 = delta s0 (counts_of (Some (handle {|{"op":"stats"}|}))) in
  tally.failed <- tally.failed + !mismatches;
  let spans = rc.Traced.spans in
  let spans_file = Filename.concat work_root (Printf.sprintf "spans-%s-%d.tsv" w.name a.seed) in
  Out_channel.with_open_text spans_file (fun oc ->
      output_string oc "req\tspan\tparent\tname\tstart_ns\tstop_ns\n";
      List.iter
        (fun (s : Traced.span) ->
          Printf.fprintf oc "%d\t%d\t%d\t%s\t%Ld\t%Ld\n" s.Traced.sp_req s.Traced.sp_id
            s.Traced.sp_parent s.Traced.sp_name s.Traced.sp_start s.Traced.sp_stop)
        (List.rev spans));
  (* --- aggregate spans *)
  let by_name = Hashtbl.create 64 and child_sum = Hashtbl.create 1024 in
  List.iter
    (fun (s : Traced.span) ->
      let d = Traced.dur_us s in
      let n, total = Option.value (Hashtbl.find_opt by_name s.Traced.sp_name) ~default:(0, 0.) in
      Hashtbl.replace by_name s.Traced.sp_name (n + 1, total +. d);
      if s.Traced.sp_parent >= 0 then
        Hashtbl.replace child_sum s.Traced.sp_parent
          (d +. Option.value (Hashtbl.find_opt child_sum s.Traced.sp_parent) ~default:0.))
    spans;
  let self_by_name = Hashtbl.create 64 in
  List.iter
    (fun (s : Traced.span) ->
      let self =
        Traced.dur_us s -. Option.value (Hashtbl.find_opt child_sum s.Traced.sp_id) ~default:0.
      in
      Hashtbl.replace self_by_name s.Traced.sp_name
        (self +. Option.value (Hashtbl.find_opt self_by_name s.Traced.sp_name) ~default:0.))
    spans;
  let total name = snd (Option.value (Hashtbl.find_opt by_name name) ~default:(0, 0.)) in
  let calls name = fst (Option.value (Hashtbl.find_opt by_name name) ~default:(0, 0.)) in
  let mean_us name = ratio (total name) (float_of_int (calls name)) in
  let reqs = float_of_int !traced in
  let handle_total = total "handle_line" in
  let unattributed = Option.value (Hashtbl.find_opt self_by_name "handle_line") ~default:0. in
  (* transport: piped latency minus in-process handle_line, per request *)
  let transport = median (Array.to_list (Array.mapi (fun i us -> us -. plain.(i)) pipe)) in
  let mean_plain = mean (Array.to_list plain) and mean_pipe = mean (Array.to_list pipe) in
  let e2e_residual = 100. *. ratio (mean_plain +. transport -. mean_pipe) mean_pipe in
  let parts_residual = 100. *. ratio unattributed handle_total in
  let overhead = 100. *. ratio ((handle_total /. reqs) -. mean_plain) mean_plain in
  (* load share: read + hash against handle_line, per source format *)
  let share pick =
    let load = ref 0. and whole = ref 0. in
    List.iter
      (fun (s : Traced.span) ->
        if pick w.stream.(s.Traced.sp_req mod n) then begin
          let n = s.Traced.sp_name in
          if n = "handle_line" then whole := !whole +. Traced.dur_us s
          else if String.starts_with ~prefix:"load.read." n || String.starts_with ~prefix:"load.hash." n
          then load := !load +. Traced.dur_us s
        end)
      spans;
    100. *. ratio !load !whole
  in
  let fmt_share fmt = share (fun r -> fmt = None || fmt = Some r.fmt) in
  let lint_share fmt = share (fun r -> r.fmt = fmt && r.op = Lint) in
  let cnt name = Traced.counter rc name in
  (* engine work counts are reported per pass of the stream *)
  let per_pass name = cnt name /. (reqs /. float_of_int n) in
  let per_call name calls = ratio (cnt name) calls in
  let parts_ok = Float.abs parts_residual <= parts_tolerance_pct in
  let e2e_ok = Float.abs e2e_residual <= e2e_tolerance_pct in
  (* --- report *)
  Printf.printf "workload %s seed %d: %d requests traced, %d spans (%s per pass)\n" w.name
    a.seed !traced (List.length spans)
    (String.concat ", " (List.map (fun (op, k) -> Printf.sprintf "%s %d" op k) (Workloads.mix w)));
  Printf.printf "%-24s %8s %12s %12s %7s\n" "span" "calls" "us/call" "self us/req" "self %";
  let names = List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) by_name []) in
  List.iter
    (fun name ->
      let self = Option.value (Hashtbl.find_opt self_by_name name) ~default:0. in
      Printf.printf "%-24s %8d %12.1f %12.1f %6.1f%%\n" name (calls name) (mean_us name) (self /. reqs)
        (100. *. ratio self handle_total))
    names;
  Printf.printf
    "parts add up: unattributed %.1f%% of handle_line (tolerance %.0f%%: %s); handle_line %.1f us + \
     transport %.1f us vs piped %.1f us: residual %.1f%% (tolerance %.0f%%: %s)\n"
    parts_residual parts_tolerance_pct (if parts_ok then "ok" else "EXCEEDED") mean_plain transport
    mean_pipe e2e_residual e2e_tolerance_pct (if e2e_ok then "ok" else "EXCEEDED");
  Printf.printf
    "read + hash share of handle_line: %.1f%% overall, %.1f%% on xmi, %.1f%% on sumb requests; \
     lint requests only: %.1f%% on xmi, %.1f%% on sumb\n"
    (fmt_share None) (fmt_share (Some Xmi)) (fmt_share (Some Sumb)) (lint_share Xmi)
    (lint_share Sumb);
  Printf.printf "piped pass counters: %s\n" (show_counts exact);
  Printf.printf "spans written to %s\n" spans_file;
  Printf.printf "failed %d of %d (replay mismatches %d)\n" tally.failed tally.attempted !mismatches;
  let lint_calls = cnt "lint.calls" in
  let us v = (v, "us") and count v = (v, "count") in
  let m name (v, unit) = (name, v, unit) in
  let ops = [ "validate"; "lint"; "info"; "gen"; "simulate"; "analyze"; "inject" ] in
  print_result ~correct:(tally.failed = 0) ~tally
    ([
       m "transport.us_per_req" (us transport);
       m "json.parse_us" (us (mean_us "json.parse"));
       m "json.print_us" (us (mean_us "json.print"));
       m "json.response_bytes" (per_call "json.response_bytes" reqs, "bytes");
       m "cache.load_us.hit" (us (mean_us "cache.load.hit"));
       m "cache.load_us.miss" (us (mean_us "cache.load.miss"));
       m "cache.hit_ratio" (ratio (float_of_int s1.hits) (float_of_int (s1.hits + s1.misses)), "ratio");
       m "cache.evictions" (count (float_of_int s1.evictions));
       m "cache.resident_entries" (count (float_of_int s1.entries));
       m "load.read_us.xmi" (us (mean_us "load.read.xmi"));
       m "load.read_us.sumb" (us (mean_us "load.read.sumb"));
       m "load.hash_us.xmi" (us (mean_us "load.hash.xmi"));
       m "load.hash_us.sumb" (us (mean_us "load.hash.sumb"));
       m "load.bytes.xmi" (per_call "load.bytes.xmi" (cnt "load.calls.xmi"), "bytes");
       m "load.bytes.sumb" (per_call "load.bytes.sumb" (cnt "load.calls.sumb"), "bytes");
       m "load.share_pct" (fmt_share None, "%");
       m "load.share_pct.xmi" (fmt_share (Some Xmi), "%");
       m "load.share_pct.sumb" (fmt_share (Some Sumb), "%");
       m "xmi.decode_us" (us (mean_us "xmi.decode"));
       m "snap.decode_us" (us (mean_us "snap.decode"));
       m "derive.design_us" (us (mean_us "derive.design"));
       m "derive.flatten_us" (us (mean_us "derive.flatten"));
       m "derive.fsm_compile_us" (us (mean_us "derive.fsm_compile"));
       m "derive.netlist_us" (us (mean_us "derive.netlist"));
       m "derive.petri_us" (us (mean_us "derive.petri"));
       m "lint.check_us" (us (mean_us "lint.check"));
       m "lint.sc_us" (us (mean_us "lint.sc"));
       m "lint.act_us" (us (mean_us "lint.act"));
       m "lint.asl_us" (us (mean_us "lint.asl"));
       m "lint.comp_us" (us (mean_us "lint.comp"));
       m "lint.df_us" (us (mean_us "lint.df"));
       m "lint.hdl_us" (us (mean_us "lint.hdl"));
       m "lint.diagnostics" (count (per_call "lint.diagnostics" lint_calls));
       m "wfr.check_us" (us (mean_us "wfr.check"));
       m "profiles.soc_check_us" (us (mean_us "profiles.soc_check"));
       m "profiles.rt_check_us" (us (mean_us "profiles.rt_check"));
       m "statechart.us_per_event"
         (us (ratio (total "statechart.dispatch") (cnt "statechart.events")));
       m "statechart.events" (count (per_pass "statechart.events"));
       m "asl.memo_hit_ratio"
         (ratio (float_of_int !memo_hits) (float_of_int (!memo_hits + !memo_misses)), "ratio");
       m "dsim.us_per_cycle" (us (ratio (total "dsim.clock_edge") (cnt "dsim.cycles")));
       m "dsim.events" (count (per_pass "dsim.events"));
       m "dsim.delta_cycles" (count (per_pass "dsim.delta_cycles"));
       m "dsim.skipped_evals" (count (per_pass "dsim.skipped_evals"));
       m "petri.reach_us" (us (mean_us "petri.reach"));
       m "petri.states" (count (per_pass "petri.states"));
       m "petri.states_per_s" (ratio (cnt "petri.states") (total "petri.reach" *. 1e-6), "1/s");
       m "petri.coverability_us" (us (mean_us "petri.coverability"));
       m "petri.invariants_us" (us (mean_us "petri.invariants"));
       m "fault.campaign_us" (us (mean_us "fault.campaign"));
       m "fault.runs" (count (per_pass "fault.runs"));
       m "fault.runs_per_s" (ratio (cnt "fault.runs") (total "fault.campaign" *. 1e-6), "1/s");
       m "mda.to_psm_us" (us (mean_us "mda.to_psm"));
       m "codegen.emit_us" (us (mean_us "codegen.emit"));
       m "codegen.bytes" (per_call "codegen.bytes" (cnt "codegen.calls"), "bytes");
       m "render.us" (us (mean_us "render"));
       m "render.bytes" (per_call "render.bytes" (cnt "render.calls"), "bytes");
     ]
    @ List.map (fun op -> m (Printf.sprintf "ops.%s_us" op) (us (mean_us ("ops." ^ op)))) ops
    @ [
        m "handle_line_us" (us (mean_us "handle_line"));
        m "daemon.unattributed_us" (us (unattributed /. reqs));
        m "parts.residual_pct" (parts_residual, "%");
        m "e2e.residual_pct" (e2e_residual, "%");
        m "trace.overhead_pct" (overhead, "%");
        m "daemon.cache_hits" (count (float_of_int exact.hits));
        m "daemon.cache_misses" (count (float_of_int exact.misses));
        m "daemon.cache_evictions" (count (float_of_int exact.evictions));
        m "daemon.asl_memo_hits" (count (float_of_int exact.asl_hits));
        m "daemon.asl_memo_misses" (count (float_of_int exact.asl_misses));
        m "failed_ratio" (ratio (float_of_int tally.failed) (float_of_int tally.attempted), "ratio");
      ])

(* --- main -------------------------------------------------------------------------- *)

let rec remove_tree path =
  match Sys.is_directory path with
  | true ->
    Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let () =
  let a =
    match parse_args () with
    | a -> a
    | exception Arg.Bad msg ->
      prerr_endline msg;
      prerr_endline usage;
      exit 2
  in
  if not (Sys.file_exists a.socuml) then begin
    Printf.eprintf "%s: no such executable (build it first)\n" a.socuml;
    exit 2
  end;
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  (* exit through [at_exit] on a signal, so no daemon is left behind *)
  List.iter
    (fun signal -> Sys.set_signal signal (Sys.Signal_handle (fun _ -> exit 3)))
    [ Sys.sigterm; Sys.sigint ];
  if not (Sys.file_exists work_root) then Sys.mkdir work_root 0o755;
  let dir = Filename.concat work_root (Printf.sprintf "%s-%d" a.workload (Unix.getpid ())) in
  Sys.mkdir dir 0o755;
  at_exit (fun () ->
      Client.kill_all ();
      remove_tree dir);
  let w = Option.get (Workloads.make a.workload ~dir ~seed:a.seed) in
  List.iter (fun (path, bytes) -> Reference.write_file path bytes) w.files;
  let refs = Reference.compute w in
  if a.trace then per_layer a w refs else end_to_end a w refs
