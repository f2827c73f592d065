(** The [socuml serve] request loop.

    A daemon reads newline-delimited JSON requests — one object per
    line — and writes exactly one JSON response line per request, in
    order.  Model-consuming requests mirror the CLI subcommands and
    their flags; the response embeds the op's captured stdout/stderr,
    byte-identical to the one-shot CLI, plus per-model cache outcomes
    from the daemon's content-hash {!Cache}.

    A request is one object: ["op"], an optional ["id"] (int or
    string, echoed verbatim in the response) and the op's fields.  The
    model ops and their fields are {!Op_spec.table} — the same table
    the CLI subcommands are built from; [simulate], [analyze] and
    [inject] also take ["fuel"] (non-negative checkpoint count) or
    ["deadline_ms"] (positive wall-clock budget), overriding the
    server-wide [deadline_ms].  Control ops: [stats], [health],
    [quit].

    Executed ops answer
    [{"id"?,"op","ok","exit","cache":[{"path","key","state"}...],
    "output","error"}] where [ok] is [exit = 0] and [state] is
    ["hit"], ["snap"] or ["miss"].  Malformed lines — unparseable or
    oversized JSON, a non-object, an unknown op, a missing or
    ill-typed field — answer [{"id"?,"ok":false,"error":"..."}]; the
    daemon keeps serving after every error.  [stats] reports the
    request ledger and cache/ASL-memo counters; [health] answers the
    cheap supervisor probe; [quit] acknowledges, answers any already
    -consumed pending lines with [shutting_down], and stops the loop.

    {2 Error codes}

    Failure classes beyond a nonzero op exit carry a ["code"] field
    (table in DESIGN.md §5):

    - ["timeout"] — the request's budget expired at an engine
      checkpoint; partial output is kept, caches stay consistent.
    - ["overloaded"] — the pending queue was full; the line was
      refused without being parsed.
    - ["shutting_down"] — the line was consumed but the daemon stopped
      (signal or [quit]) before running it.
    - ["resource_exhausted"] — the op crashed the memory wall twice
      (caches were evicted and the op retried once in between).

    The request ledger always reconciles:
    [requests = protocol_errors + completed + timeouts +
    resource_exhausted + sheds + drained] — the chaos suite
    ([test/test_serve_chaos.ml]) holds the daemon to it. *)

type t

val create :
  ?max_entries:int ->
  ?max_bytes:int ->
  ?persist_dir:string ->
  ?deadline_ms:int ->
  ?max_queue:int ->
  unit ->
  t
(** A daemon with a fresh {!Cache} (same defaults).  [deadline_ms] (default: none) is the server-wide
    wall-clock budget applied to [simulate]/[analyze]/[inject]
    requests that don't carry their own; [max_queue] (default 64)
    bounds the pending-line queue — lines past it are shed with an
    [overloaded] answer.
    @raise Invalid_argument when [deadline_ms <= 0] or
    [max_queue < 1]. *)

val protocol_version : int
(** Wire-protocol version reported by the [health] op. *)

val max_line_bytes : int
(** Request-line size cap (1 MiB); longer lines answer a protocol
    error without being parsed, and the transports never buffer more
    than this (plus one read chunk) per line. *)

val request_stop : t -> unit
(** Ask the serve loops to stop: in-flight work finishes, every
    already-consumed pending line is answered with [shutting_down],
    and the loops return.  Async-signal-safe (a single atomic store) —
    this is what the CLI's SIGTERM/SIGINT handlers call. *)

val stop_requested : t -> bool
(** Whether {!request_stop} has been called. *)

val with_degradation : t -> (unit -> 'a) -> ('a, string) result
(** Run a thunk under the daemon's crash/degradation policy: on
    [Out_of_memory] or [Stack_overflow], evict the artifact cache and
    the ASL memo, compact the heap, and retry once; a second crash
    returns [Error] with a one-line diagnostic.  Any other exception —
    including {!Exec.Budget.Expired} — passes through.  Exposed for
    the resilience tests; [handle_line] applies it to every op. *)

val handle_line : t -> string -> string option * bool
(** Process one request line.  Returns the response line (without the
    trailing newline; [None] for blank lines, which are skipped) and
    whether the daemon should keep serving ([false] after [quit]). *)

val serve_channel : t -> in_channel -> out_channel -> unit
(** Serve requests from the channel until EOF, [quit] or
    {!request_stop}, flushing after every response line.  Reads the
    channel's file descriptor directly (chunked, with the byte
    high-water mark) — don't interleave other reads on [ic]. *)

val serve_socket : t -> string -> unit
(** Listen on a Unix-domain socket at the given path, serving one
    connection at a time; a [quit] request or {!request_stop} shuts
    the daemon down and removes the socket file.  A pre-existing path
    is claimed only if it is a socket no live daemon answers on
    (probe-then-unlink); otherwise raises [Failure] with a one-line
    diagnostic. *)
