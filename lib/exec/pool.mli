(** Domain fan-out for deterministic parallel batches.

    A pool is a job count.  Each {!parallel_for} batch spawns up to
    [jobs - 1] domains for its own duration and the caller participates
    as the remaining worker, so a pool with [jobs = 1] spawns no domains
    at all and runs every task inline, in index order — byte-identical
    to a plain [for] loop.  This is the substrate behind [--jobs N] on
    the CLI: callers shard independent tasks (injected faults, models to
    lint) across the pool and merge results in a stable order, so output
    never depends on the number of domains.

    {2 Scheduling}

    Every participant claims the next unclaimed index from one shared
    atomic cursor, one task at a time, so skewed task sizes balance
    without per-domain queues.  Tasks therefore run in an unspecified
    order on unspecified domains — they must be independent and must
    not mutate shared state (give each task its own accumulator and
    merge after; see DESIGN.md on the accumulate-then-merge rule).

    {2 Exceptions}

    If tasks raise, the exception of the lowest-index raising task is
    re-raised in the caller after the whole batch has drained (every
    task is still attempted), so the surfaced diagnostic does not depend
    on scheduling.  On the inline path ([jobs = 1] or a single task)
    the first raise propagates at once, as from a [for] loop — it is
    the same lowest-index exception.  The pool stays usable
    afterwards. *)

type t

val max_jobs : int
(** Upper bound on the job count (64); [create] clamps to it. *)

val create : jobs:int -> t
(** A pool executing up to [jobs] tasks concurrently ([jobs - 1]
    domains per batch plus the calling domain, clamped to
    {!max_jobs}).  Spawns nothing itself.
    @raise Invalid_argument when [jobs < 1]. *)

val jobs : t -> int
(** The (clamped) concurrency of the pool.  [1] means fully inline:
    callers can keep their sequential code path. *)

val parallel_for : t -> n:int -> (int -> unit) -> unit
(** [parallel_for pool ~n f] runs [f 0 .. f (n - 1)], each exactly
    once, on [min (jobs pool) n] participants, and returns when all
    have finished and the spawned domains are joined.  With
    [jobs pool = 1] this is exactly [for i = 0 to n - 1 do f i done]. *)

val map_array : t -> ('a -> 'b) -> 'a array -> 'b array
(** Like {!Array.map} but sharded over the pool; the result array is in
    input order regardless of execution order. *)

val map_list : t -> ('a -> 'b) -> 'a list -> 'b list
(** {!map_array} over a list, preserving order. *)

val with_pool : jobs:int -> (t -> 'a) -> 'a
(** [with_pool ~jobs f] is [f (create ~jobs)]. *)
