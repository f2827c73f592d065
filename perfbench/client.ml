(* One `socuml serve` process driven over its stdin/stdout pipe by a
   single closed-loop client: the next request line is written only
   after the previous response line has been read. *)

type t = {
  pid : int;
  to_daemon : Unix.file_descr;
  from_daemon : in_channel;
  mutable alive : bool;
}

let live : t list ref = ref []

let now_ns () = Monotonic_clock.now ()
let seconds_since t0 = Int64.to_float (Int64.sub (now_ns ()) t0) *. 1e-9

let spawn exe =
  let in_r, in_w = Unix.pipe ~cloexec:true () in
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let pid = Unix.create_process exe [| exe; "serve" |] in_r out_w Unix.stderr in
  Unix.close in_r;
  Unix.close out_w;
  let t = { pid; to_daemon = in_w; from_daemon = Unix.in_channel_of_descr out_r; alive = true } in
  live := t :: !live;
  t

let rec write_all fd s off len =
  if len > 0 then begin
    let n = Unix.write_substring fd s off len in
    write_all fd s (off + n) (len - n)
  end

(* Send one line, wait for one line; [None] when the daemon is gone. *)
let roundtrip t line =
  let msg = line ^ "\n" in
  match
    write_all t.to_daemon msg 0 (String.length msg);
    input_line t.from_daemon
  with
  | resp -> Some resp
  | exception (End_of_file | Sys_error _ | Unix.Unix_error _) -> None

(* Latency as the client sees it: from writing the request line to
   having read the whole response line. *)
let timed_roundtrip t line =
  let t0 = now_ns () in
  let resp = roundtrip t line in
  (resp, Int64.to_float (Int64.sub (now_ns ()) t0) *. 1e-3)

(* Peak resident set of the daemon, in MiB ([VmHWM]). *)
let peak_rss_mb t =
  let ic = open_in (Printf.sprintf "/proc/%d/status" t.pid) in
  Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
  let rec scan () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
      Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" (fun kb ->
          float_of_int kb /. 1024.)
    | _other -> scan ()
    | exception End_of_file -> nan
  in
  scan ()

let reap t =
  if t.alive then begin
    t.alive <- false;
    (try Unix.close t.to_daemon with Unix.Unix_error _ -> ());
    (try close_in t.from_daemon with Sys_error _ -> ());
    let rec wait () =
      match Unix.waitpid [] t.pid with
      | _ -> ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
      | exception Unix.Unix_error _ -> ()
    in
    wait ();
    live := List.filter (fun d -> d != t) !live
  end

(* Ask the daemon to quit, then wait for it to exit. *)
let stop t =
  if t.alive then ignore (roundtrip t {|{"op":"quit"}|});
  reap t

(* Last resort on an abnormal exit: no daemon outlives the benchmark. *)
let kill_all () =
  List.iter
    (fun t ->
      (try Unix.kill t.pid Sys.sigkill with Unix.Unix_error _ -> ());
      reap t)
    !live
