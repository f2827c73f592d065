(** ASL interpreter.

    Executes programs against an object {!Store}, an environment of
    local variables, and a method registry.  Signals raised by [send]
    are collected in an outbox for the behavioral engines (statechart,
    activity) to dispatch; [print] output is collected as lines.

    Execution is fuel-limited so that model-supplied programs cannot
    hang the host: each evaluated statement or expression node costs one
    unit. *)

exception Runtime_error of string

type signal_out = {
  sig_name : string;
  sig_args : Value.t list;
  sig_target : Value.t option;
}

(** How an operation body is provided. *)
type method_impl =
  | Builtin of (t -> self:Value.t -> Value.t list -> Value.t)
  | Body of string list * Ast.program
      (** parameter names and parsed body *)

and t

val create :
  ?fuel:int ->
  ?resolve:(string -> string -> method_impl option) ->
  ?attr_defaults:(string -> (string * Value.t) list) ->
  ?metrics:Telemetry.Metrics.t ->
  Store.t ->
  t
(** [create store] builds an interpreter.  [fuel] (default 1_000_000)
    bounds the total number of evaluation steps per [run]/[eval] call.
    [resolve class op] supplies operation bodies.  [attr_defaults class]
    supplies initial attribute values for [new].  [metrics] (default
    {!Telemetry.Metrics.null}) receives the [asl.statements],
    [asl.store_reads] and [asl.store_writes] counters. *)

val store : t -> Store.t

val metrics : t -> Telemetry.Metrics.t
(** The registry supplied at creation time. *)

val run :
  ?self_:Value.t -> ?params:(string * Value.t) list -> t -> Ast.program ->
  Value.t option
(** Execute; [Some v] when a [return v] was executed.
    @raise Runtime_error on a dynamic error or fuel exhaustion. *)

val run_source :
  ?self_:Value.t -> ?params:(string * Value.t) list -> t -> string ->
  Value.t option
(** Parse (memoized via {!Compiled.program}) then {!run}.
    @raise Runtime_error also on parse errors. *)

val run_compiled :
  ?self_:Value.t -> ?params:(string * Value.t) list -> t ->
  Compiled.program -> Value.t option
(** {!run} a precompiled program.
    @raise Runtime_error when the compiled value captured a parse
    error. *)

val eval :
  ?self_:Value.t -> ?params:(string * Value.t) list -> t -> Ast.expr ->
  Value.t

val eval_guard :
  ?self_:Value.t -> ?params:(string * Value.t) list -> t -> string -> bool
(** Parse (memoized via {!Compiled.guard}) and evaluate a boolean guard.
    @raise Runtime_error if the result is not a boolean. *)

val eval_guard_compiled :
  ?self_:Value.t -> ?params:(string * Value.t) list -> t ->
  Compiled.guard -> bool
(** Evaluate a precompiled guard.
    @raise Runtime_error if the result is not a boolean or the compiled
    value captured a parse error. *)

val drain_signals : t -> signal_out list
(** Signals emitted since the last drain, oldest first. *)

val output : t -> string list
(** [print] lines so far, oldest first. *)
