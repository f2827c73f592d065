(** Parse-once ASL behaviors.

    The metamodel stores guards and effects as opaque source strings
    (mirroring UML's [OpaqueBehavior]); historically every evaluation
    reparsed its string.  This module compiles a source string to its
    AST exactly once and memoizes the result in a table keyed by the
    source text, so the statechart and activity engines can dispatch
    events without ever touching the parser again.

    Next to the AST each entry keeps the slot-resolved handle of
    {!Resolve}, built the first time the entry runs: engines take one
    entry per behavior when they are created and never come back to
    this table while they run.

    Parse errors are captured inside the compiled value rather than
    raised here: a behavior that never runs must not fail at
    compile/warm-up time, exactly as the parse-per-eval scheme only
    surfaced errors on evaluation.  {!guard_code}, {!program_code} and
    the {!Interp} functions that run compiled values raise
    [Interp.Runtime_error] when handed a captured error.

    Both memo tables are bounded LRU caches (default cap 4096 entries
    each, see {!set_memo_cap}): a long-running process — notably the
    [socuml serve] daemon — can stream arbitrarily many distinct
    behaviors through the parser without unbounded growth.  Eviction
    never changes a result (compiled values are pure functions of the
    source text); it only costs a re-parse on the next miss. *)

type guard
(** A compiled boolean guard expression (or its captured parse error). *)

type program
(** A compiled statement sequence (or its captured parse error). *)

val guard : string -> guard
(** Memoized [Parser.parse_expression]: physically the same compiled
    value for the same source string while the entry stays resident. *)

val program : string -> program
(** Memoized [Parser.parse_program]. *)

val of_program : Ast.program -> program
(** A compiled value for a program no source text stands for; nothing
    is memoized. *)

val guard_result : guard -> (Ast.expr, string) result
(** The parse outcome; [Error] carries the rendered parse error. *)

val program_result : program -> (Ast.program, string) result

val guard_code : guard -> Resolve.guard
(** The resolved handle, built on the first call and shared after.
    @raise Resolve.Runtime_error with the parse error's text when the
    source did not parse. *)

val program_code : program -> Resolve.program

(** Lifetime statistics of the memo tables (monotonic counters are
    process-global, never reset by eviction or {!clear_memo}). *)
type stats = {
  st_guards : int;  (** guard entries currently resident *)
  st_programs : int;  (** program entries currently resident *)
  st_cap : int;  (** per-table entry cap *)
  st_hits : int;
  st_misses : int;
  st_evictions : int;
}

val memo_stats : unit -> stats
(** Current residency, cap and lifetime hit/miss/eviction counts — for
    tests, benches and the [socuml serve] stats endpoint. *)

val memo_cap : unit -> int
(** The per-table entry cap currently in force. *)

val set_memo_cap : int -> unit
(** Change the per-table entry cap (evicting immediately when a table
    is over the new cap).
    @raise Invalid_argument when the cap is below 1. *)

val clear_memo : unit -> unit
(** Drop both memo tables (benchmark cold-start measurements).  The
    lifetime counters are preserved. *)
