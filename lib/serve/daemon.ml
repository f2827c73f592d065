(* How a request line ended.  Every non-blank line ends in exactly one
   outcome, counted in the ledger under [ledger_key]; the typed failures
   also answer a response [code] — the protocol's error-code table
   (DESIGN.md §5). *)
type outcome =
  | Completed
  | Protocol_error
  | Timeout
  | Resource_exhausted
  | Shed
  | Drained

let code_name o =
  match o with
  | Completed | Protocol_error -> None
  | Timeout -> Some "timeout"
  | Resource_exhausted -> Some "resource_exhausted"
  | Shed -> Some "overloaded"
  | Drained -> Some "shutting_down"

let ledger_key o =
  match o with
  | Completed -> "completed"
  | Protocol_error -> "protocol_errors"
  | Timeout -> "timeouts"
  | Resource_exhausted -> "resource_exhausted"
  | Shed -> "sheds"
  | Drained -> "drained"

type t = {
  cache : Cache.t;
  deadline_ms : int option;
  max_queue : int;
  stop_requested : bool Atomic.t;
  mutable requests : int;
  ledger : (outcome, int) Hashtbl.t;  (** lines per outcome *)
  mutable degradations : int;
}

let protocol_version = 1

let create ?max_entries ?max_bytes ?persist_dir ?deadline_ms
    ?(max_queue = 64) () =
  (match deadline_ms with
   | Some ms when ms <= 0 ->
     invalid_arg "Serve.Daemon.create: deadline_ms <= 0"
   | Some _ | None -> ());
  if max_queue < 1 then invalid_arg "Serve.Daemon.create: max_queue < 1";
  {
    cache = Cache.create ?max_entries ?max_bytes ?persist_dir ();
    deadline_ms;
    max_queue;
    stop_requested = Atomic.make false;
    requests = 0;
    ledger = Hashtbl.create 8;
    degradations = 0;
  }

(* Ledger rule: every counter update happens before the response line
   is rendered, so a [stats] response reports a ledger that includes
   itself and always reconciles: [requests] is the sum of the outcome
   counters. *)
let count t o = Option.value (Hashtbl.find_opt t.ledger o) ~default:0
let record t o = Hashtbl.replace t.ledger o (count t o + 1)
let ledger_entry t o = (ledger_key o, Json.Int (count t o))

let request_stop t = Atomic.set t.stop_requested true
let stop_requested t = Atomic.get t.stop_requested
let max_line_bytes = 1024 * 1024

(* --- graceful degradation --------------------------------------------- *)

(* A single request hitting the memory wall must not take the daemon
   (and every cached artifact) with it: shed the retained graphs, give
   the collector a chance to return the pages, and retry the request
   once against the now-cold cache.  A second crash is answered as a
   typed [resource_exhausted] error — the daemon itself keeps serving.
   [Exec.Budget.Expired] deliberately passes through untouched: a
   timeout is not memory pressure. *)
let crash_name e =
  match e with
  | Out_of_memory -> "out-of-memory"
  | _ -> "stack overflow"

let with_degradation t f =
  match f () with
  | v -> Ok v
  | exception (Out_of_memory | Stack_overflow) -> (
    t.degradations <- t.degradations + 1;
    Cache.clear t.cache;
    Asl.Compiled.clear_memo ();
    Gc.compact ();
    match f () with
    | v -> Ok v
    | exception ((Out_of_memory | Stack_overflow) as e2) ->
      Error
        (Printf.sprintf
           "request failed with %s twice; caches evicted, giving up"
           (crash_name e2)))

(* --- request decoding ------------------------------------------------- *)

let ( let* ) = Result.bind

(* The request envelope: the optional echo id and the op name.  Each
   op's own fields are decoded by its [Op_spec] entry. *)
let id_of members =
  match List.assoc_opt "id" members with
  | None -> Ok None
  | Some (Json.Int _ as v) -> Ok (Some v)
  | Some (Json.Str _ as v) -> Ok (Some v)
  | Some (Json.Null | Json.Bool _ | Json.Float _ | Json.List _ | Json.Obj _)
    ->
    Error "field \"id\" must be a string or integer"

let op_of members =
  let* op = Op_spec.field Json.to_str "a string" members "op" in
  Option.to_result op ~none:"missing \"op\" field"

(* How a long-running op may be cancelled.  [fuel] (a deterministic
   checkpoint count, for tests and golden gates) beats the request's
   [deadline_ms], which beats the server-wide default; a fresh budget
   is built per attempt so the degradation retry starts with full
   allowance. *)
type budget_spec =
  | B_default
  | B_fuel of int
  | B_deadline_ms of int

let budget_spec_of members =
  let int key = Op_spec.field Json.to_int "an integer" members key in
  let* fuel = int "fuel" in
  let* deadline = int "deadline_ms" in
  match (fuel, deadline) with
  | Some _, Some _ -> Error "give either \"fuel\" or \"deadline_ms\", not both"
  | Some n, None ->
    if n < 0 then Error "field \"fuel\" must be non-negative"
    else Ok (B_fuel n)
  | None, Some ms ->
    if ms <= 0 then Error "field \"deadline_ms\" must be positive"
    else Ok (B_deadline_ms ms)
  | None, None -> Ok B_default

let budget_of_spec t spec =
  match spec with
  | B_fuel n -> Exec.Budget.fuel n
  | B_deadline_ms ms -> Exec.Budget.deadline ~now:Unix.gettimeofday ~ms
  | B_default -> (
    match t.deadline_ms with
    | Some ms -> Exec.Budget.deadline ~now:Unix.gettimeofday ~ms
    | None -> Exec.Budget.unlimited)

(* --- op execution ----------------------------------------------------- *)

type op_result = {
  oc_op : string;
  oc_exit : int;
  oc_outcome : outcome;  (** [Completed], [Timeout] or [Resource_exhausted] *)
  oc_cache : (string * string * Cache.state) list;
  oc_answer : Json.encoded * Json.encoded;  (** output and error *)
}

let no_output = Json.encode ""

(* Run one decoded op with buffer sinks.  Model paths are pre-resolved
   through the cache sequentially, in request order, before the body
   runs — so the reported cache states (and the hit/miss counters) are
   deterministic even when the body fans the models out over a pool.
   The body then loads from the per-request snapshot, never the live
   cache.

   The whole attempt (resolution included) runs under the degradation
   wrapper, and [Exec.Budget.Expired] from an engine checkpoint is
   answered as a typed timeout with whatever output the op produced
   before the budget ran out — deterministic under fuel budgets.  Each
   attempt instantiates the op afresh, metrics registry included. *)
let run_op t ~op ~budget_spec (make : unit -> Op_spec.run) =
  (* Each stream is escaped as it is written, into an encoder made at
     its first write: a [Stored] reply allocates none. *)
  let out = ref None and err = ref None in
  let write stream size s =
    match !stream with
    | Some e -> Json.add_piece e s
    | None ->
      let e = Json.encoder size in
      stream := Some e;
      Json.add_piece e s
  in
  let sink = { Ops.s_out = write out 1024; Ops.s_err = write err 256 } in
  let cache_info = ref [] in
  let attempt () =
    out := None;
    err := None;
    cache_info := [];
    let budget = budget_of_spec t budget_spec in
    let r = make () in
    let resolved =
      List.map (fun p -> (p, Cache.load t.cache p)) r.Op_spec.paths
    in
    cache_info :=
      List.filter_map
        (fun (path, r) ->
          match r with
          | Ok (_art, key, state) -> Some (path, key, state)
          | Error _msg -> None)
        resolved;
    let loader path =
      match List.assoc_opt path resolved with
      | Some (Ok (art, _key, _state)) -> Ok art
      | Some (Error msg) -> Error msg
      | None -> (
        match Cache.load t.cache path with
        | Ok (art, _key, _state) -> Ok art
        | Error msg -> Error msg)
    in
    Ops.guarded_reply sink (fun () -> r.Op_spec.exec ~budget sink loader)
  in
  (* A stored reply carries its own encoded streams. *)
  let finish ?(outcome = Completed) reply =
    let exit, answer =
      match reply with
      | Ops.Exit code ->
        let encoded stream =
          match !stream with
          | Some e -> Json.encoded e
          | None -> no_output
        in
        (code, (encoded out, encoded err))
      | Ops.Stored a ->
        ((Artifacts.rendered a).Artifacts.exit, Artifacts.encoded a)
    in
    {
      oc_op = op;
      oc_exit = exit;
      oc_outcome = outcome;
      oc_cache = !cache_info;
      oc_answer = answer;
    }
  in
  match with_degradation t attempt with
  | Ok reply -> finish reply
  | Error msg ->
    Ops.errl sink msg;
    finish ~outcome:Resource_exhausted (Ops.Exit 1)
  | exception Exec.Budget.Expired msg ->
    Ops.errl sink msg;
    finish ~outcome:Timeout (Ops.Exit 1)

(* --- response assembly ------------------------------------------------ *)

let with_id ~id fields =
  match id with
  | Some v -> ("id", v) :: fields
  | None -> fields

let respond ~id fields = Json.to_string (Json.Obj (with_id ~id fields))

let code_field o =
  match code_name o with
  | Some c -> [ ("code", Json.Str c) ]
  | None -> []

let protocol_error t ~id msg =
  record t Protocol_error;
  respond ~id [ ("ok", Json.Bool false); ("error", Json.Str msg) ]

(* Fast-path refusals for lines the daemon never parses: shed under
   overload, drained at shutdown.  Counted as requests (one response
   per line, always) under their own ledger columns. *)
let refusal t o msg =
  t.requests <- t.requests + 1;
  record t o;
  respond ~id:None
    (("ok", Json.Bool false) :: code_field o @ [ ("error", Json.Str msg) ])

let shed_response t ~depth =
  refusal t Shed
    (Printf.sprintf "server overloaded: %d requests pending" depth)

let drain_response t = refusal t Drained "daemon is shutting down"

(* The op's streams go in already encoded, each with one copy. *)
let outcome_response ~id oc =
  let output, error = oc.oc_answer in
  let cache (path, key, state) =
    Json.Obj
      [
        ("path", Json.Str path);
        ("key", Json.Str key);
        ("state", Json.Str (Cache.state_name state));
      ]
  in
  Json.splice
    (with_id ~id
       ([
          ("op", Json.Str oc.oc_op);
          ("ok", Json.Bool (oc.oc_exit = 0));
          ("exit", Json.Int oc.oc_exit);
        ]
       @ code_field oc.oc_outcome
       @ [ ("cache", Json.List (List.map cache oc.oc_cache)) ]))
    [ ("output", output); ("error", error) ]

(* Occupancy of both caches: what [health] reports, and the prefix of
   the blocks [stats] extends with its counters. *)
let cache_occupancy (c : Cache.stats) =
  [
    ("entries", Json.Int c.Cache.cs_entries);
    ("bytes", Json.Int c.Cache.cs_bytes);
    ("max_entries", Json.Int c.Cache.cs_max_entries);
    ("max_bytes", Json.Int c.Cache.cs_max_bytes);
  ]

let memo_occupancy (a : Asl.Compiled.stats) =
  [
    ("guards", Json.Int a.Asl.Compiled.st_guards);
    ("programs", Json.Int a.Asl.Compiled.st_programs);
    ("cap", Json.Int a.Asl.Compiled.st_cap);
  ]

let stats_response t ~id =
  let c = Cache.stats t.cache in
  let a = Asl.Compiled.memo_stats () in
  respond ~id
    [
      ("op", Json.Str "stats");
      ("ok", Json.Bool true);
      ("exit", Json.Int 0);
      ("requests", Json.Int t.requests);
      ledger_entry t Protocol_error;
      ( "serve",
        Json.Obj
          [
            ledger_entry t Completed;
            ledger_entry t Timeout;
            ledger_entry t Resource_exhausted;
            ("degradations", Json.Int t.degradations);
            ledger_entry t Shed;
            ledger_entry t Drained;
          ] );
      ( "cache",
        Json.Obj
          (cache_occupancy c
          @ [
              ("hits", Json.Int c.Cache.cs_hits);
              ("misses", Json.Int c.Cache.cs_misses);
              ("snap_refills", Json.Int c.Cache.cs_snap_refills);
              ("evictions", Json.Int c.Cache.cs_evictions);
              ("persisted", Json.Int c.Cache.cs_persisted);
              ("quarantined", Json.Int c.Cache.cs_quarantined);
            ]) );
      ( "asl_memo",
        Json.Obj
          (memo_occupancy a
          @ [
              ("hits", Json.Int a.Asl.Compiled.st_hits);
              ("misses", Json.Int a.Asl.Compiled.st_misses);
              ("evictions", Json.Int a.Asl.Compiled.st_evictions);
            ]) );
    ]

(* The supervisor probe: protocol version, logical uptime (requests
   served so far — the daemon's only monotonic clock) and occupancy of
   both caches, cheap enough to answer under load. *)
let health_response t ~id =
  respond ~id
    [
      ("op", Json.Str "health");
      ("ok", Json.Bool true);
      ("exit", Json.Int 0);
      ("protocol", Json.Int protocol_version);
      ("uptime_requests", Json.Int t.requests);
      ( "deadline_ms",
        Json.Int (Option.value t.deadline_ms ~default:0) );
      ("max_queue", Json.Int t.max_queue);
      ("cache", Json.Obj (cache_occupancy (Cache.stats t.cache)));
      ("asl_memo", Json.Obj (memo_occupancy (Asl.Compiled.memo_stats ())));
    ]

(* --- request processing ----------------------------------------------- *)

(* One decoded request to its response line and whether to keep
   serving. *)
let dispatch t ~id members ~op =
  let control respond_with continue =
    let* () = Op_spec.reject_unknown ~op [] members in
    record t Completed;
    Ok (respond_with (), continue)
  in
  match op with
  | "stats" -> control (fun () -> stats_response t ~id) true
  | "health" -> control (fun () -> health_response t ~id) true
  | "quit" ->
    control
      (fun () ->
        respond ~id
          [
            ("op", Json.Str "quit"); ("ok", Json.Bool true); ("exit", Json.Int 0);
          ])
      false
  | _model_op -> (
    match Op_spec.find op with
    | None -> Error (Printf.sprintf "unknown op %S" op)
    | Some spec ->
      let* make = Op_spec.decode spec members in
      let* budget_spec =
        if Op_spec.budgeted spec then budget_spec_of members else Ok B_default
      in
      let oc = run_op t ~op ~budget_spec make in
      record t oc.oc_outcome;
      Ok (outcome_response ~id oc, true))

let handle_line t line =
  if String.length line > max_line_bytes then begin
    t.requests <- t.requests + 1;
    ( Some
        (protocol_error t ~id:None
           (Printf.sprintf "request line exceeds %d bytes" max_line_bytes)),
      true )
  end
  else
    let trimmed = String.trim line in
    if trimmed = "" then (None, true)
    else begin
      t.requests <- t.requests + 1;
      match Json.parse trimmed with
      | Error e ->
        (Some (protocol_error t ~id:None ("invalid request: " ^ e)), true)
      | Ok (Json.Obj members) -> (
        match id_of members with
        | Error msg -> (Some (protocol_error t ~id:None msg), true)
        | Ok id -> (
          match op_of members with
          | Error msg -> (Some (protocol_error t ~id msg), true)
          | Ok op -> (
            match dispatch t ~id members ~op with
            | Error msg -> (Some (protocol_error t ~id msg), true)
            | Ok (response, continue) -> (Some response, continue)
            (* a bug below the protocol layer must not kill the daemon:
               answer an error line and keep serving *)
            | exception e ->
              ( Some
                  (protocol_error t ~id
                     ("internal error: " ^ Printexc.to_string e)),
                true ))))
      | Ok
          (( Json.Null | Json.Bool _ | Json.Int _ | Json.Float _
           | Json.Str _ | Json.List _ ) as _v) ->
        ( Some (protocol_error t ~id:None "request must be a JSON object"),
          true )
    end

(* --- transport: chunked line reader with a byte high-water mark ------- *)

(* A consumed input line.  Oversized lines are dropped as they stream
   in — the reader never buffers more than [max_line_bytes] (+ one
   chunk) per line — and surface as [L_oversized] so the protocol
   still answers exactly one error line for them. *)
type in_line =
  | L_line of string
  | L_oversized

type reader = {
  r_fd : Unix.file_descr;
  r_chunk : Bytes.t;
  r_acc : Buffer.t;  (* current partial line *)
  mutable r_discarding : bool;  (* past the byte high-water mark *)
  mutable r_eof : bool;
  r_lines : in_line Queue.t;  (* completed, not yet consumed *)
}

let reader_create fd =
  {
    r_fd = fd;
    r_chunk = Bytes.create 65536;
    r_acc = Buffer.create 256;
    r_discarding = false;
    r_eof = false;
    r_lines = Queue.create ();
  }

let reader_feed r bytes n =
  let finish_line () =
    if r.r_discarding then begin
      r.r_discarding <- false;
      Queue.push L_oversized r.r_lines
    end
    else begin
      Queue.push (L_line (Buffer.contents r.r_acc)) r.r_lines;
      Buffer.clear r.r_acc
    end
  in
  let i = ref 0 in
  while !i < n do
    match Bytes.index_from_opt bytes !i '\n' with
    | Some j when j < n ->
      if not r.r_discarding then begin
        Buffer.add_subbytes r.r_acc bytes !i (j - !i);
        if Buffer.length r.r_acc > max_line_bytes then begin
          r.r_discarding <- true;
          Buffer.clear r.r_acc
        end
      end;
      finish_line ();
      i := j + 1
    | Some _ | None ->
      if not r.r_discarding then begin
        Buffer.add_subbytes r.r_acc bytes !i (n - !i);
        if Buffer.length r.r_acc > max_line_bytes then begin
          r.r_discarding <- true;
          Buffer.clear r.r_acc
        end
      end;
      i := n
  done

(* One read(2).  [blocking = false] polls with select first and reads
   only if data is ready (regular files are always ready, so file-fed
   stdin drains deterministically).  EINTR — a signal landed — returns
   without data so the caller can re-check the stop flag. *)
let reader_fill r ~blocking =
  if r.r_eof then ()
  else
    let ready =
      if blocking then true
      else
        match Unix.select [ r.r_fd ] [] [] 0.0 with
        | [], _, _ -> false
        | _ :: _, _, _ -> true
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> false
    in
    if ready then
      match Unix.read r.r_fd r.r_chunk 0 (Bytes.length r.r_chunk) with
      | 0 ->
        r.r_eof <- true;
        (* a final unterminated line still counts as a line *)
        if Buffer.length r.r_acc > 0 || r.r_discarding then begin
          if r.r_discarding then begin
            r.r_discarding <- false;
            Queue.push L_oversized r.r_lines
          end
          else begin
            Queue.push (L_line (Buffer.contents r.r_acc)) r.r_lines;
            Buffer.clear r.r_acc
          end
        end
      | n -> reader_feed r r.r_chunk n
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()

(* --- the loop --------------------------------------------------------- *)

let oversized_line = String.make (max_line_bytes + 1) 'x'

(* The serve loop over a raw fd pair.  One request is processed at a
   time; between requests every already-available input line is pulled
   into a bounded pending queue, and lines past [max_queue] are
   answered immediately with [overloaded] instead of buffering without
   bound.  A stop request (SIGTERM/SIGINT or [quit]) drains the
   pending queue with [shutting_down] answers so the one-response-per
   -line invariant survives shutdown.  Returns [true] when a [quit]
   request ended the session (as opposed to EOF or a stop signal). *)
let serve_fd t in_fd emit =
  let r = reader_create in_fd in
  let pending = Queue.create () in
  let quit_seen = ref false in
  (* move completed lines into [pending], shedding past the cap; blank
     lines are dropped here so they never consume a slot and never get
     an answer, overloaded or not *)
  let absorb () =
    while not (Queue.is_empty r.r_lines) do
      match Queue.pop r.r_lines with
      | L_line line when String.trim line = "" -> ()
      | (L_line _ | L_oversized) as item ->
        if Queue.length pending >= t.max_queue then
          emit (shed_response t ~depth:(Queue.length pending))
        else Queue.push item pending
    done
  in
  let drain_pending () =
    while not (Queue.is_empty pending) do
      match Queue.pop pending with
      | L_oversized | L_line _ -> emit (drain_response t)
    done
  in
  let stopping = ref false in
  while not !stopping do
    if stop_requested t then begin
      drain_pending ();
      stopping := true
    end
    else if Queue.is_empty pending then begin
      if r.r_eof then stopping := true
      else begin
        reader_fill r ~blocking:true;
        absorb ()
      end
    end
    else begin
      let continue =
        match Queue.pop pending with
        | L_oversized -> (
          (* re-enter the protocol path so oversized lines are counted
             and answered exactly like a buffered oversized line *)
          match handle_line t oversized_line with
          | Some resp, cont ->
            emit resp;
            cont
          | None, cont -> cont)
        | L_line line -> (
          match handle_line t line with
          | Some resp, cont ->
            emit resp;
            cont
          | None, cont -> cont)
      in
      if not continue then begin
        (* quit: answer everything already consumed, then stop *)
        quit_seen := true;
        drain_pending ();
        stopping := true
      end
      else begin
        (* opportunistic drain of whatever arrived while we worked *)
        reader_fill r ~blocking:false;
        absorb ()
      end
    end
  done;
  !quit_seen

let serve_channel t ic oc =
  let emit resp =
    output_string oc resp;
    output_char oc '\n';
    flush oc
  in
  let (_quit : bool) = serve_fd t (Unix.descr_of_in_channel ic) emit in
  ()

(* Probe-then-unlink: a leftover socket file from a crashed daemon must
   not block restart, but a live daemon's socket (or an unrelated
   file) must never be stolen.  Connecting distinguishes the two — a
   live listener accepts, a stale path refuses. *)
let claim_socket_path path =
  if Sys.file_exists path then begin
    (match (Unix.stat path).Unix.st_kind with
     | Unix.S_SOCK -> ()
     | Unix.S_REG | Unix.S_DIR | Unix.S_CHR | Unix.S_BLK | Unix.S_LNK
     | Unix.S_FIFO ->
       failwith
         (Printf.sprintf "refusing to replace %s: not a socket" path));
    let probe = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    let live =
      match Unix.connect probe (Unix.ADDR_UNIX path) with
      | () -> true
      | exception Unix.Unix_error _ -> false
    in
    (try Unix.close probe with Unix.Unix_error _ -> ());
    if live then
      failwith
        (Printf.sprintf "socket %s is in use by a running daemon" path);
    try Sys.remove path with Sys_error _ -> ()
  end

let serve_socket t path =
  claim_socket_path path;
  let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close sock with Unix.Unix_error _ -> ());
      try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Unix.bind sock (Unix.ADDR_UNIX path);
      Unix.listen sock 8;
      let stop = ref false in
      while not !stop do
        if stop_requested t then stop := true
        else
          match Unix.accept sock with
          | exception Unix.Unix_error (Unix.EINTR, _, _) ->
            (* signal landed while listening: loop re-checks the flag *)
            ()
          | conn, _addr ->
            let oc = Unix.out_channel_of_descr conn in
            let emit resp =
              output_string oc resp;
              output_char oc '\n';
              flush oc
            in
            (* a dropped connection only ends this client, not the
               daemon *)
            let quit =
              try serve_fd t conn emit with
              | Sys_error _ -> false
              | Unix.Unix_error _ -> false
            in
            (try flush oc with Sys_error _ -> ());
            (try Unix.close conn with Unix.Unix_error _ -> ());
            (* [quit] (or a stop signal observed inside the session)
               stops the daemon, not just the connection *)
            if quit || stop_requested t then stop := true
      done)
