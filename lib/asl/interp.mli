(** ASL interpreter.

    Executes programs against an object {!Store}, an environment of
    local variables, and a method registry.  Signals raised by [send]
    are collected in an outbox for the behavioral engines (statechart,
    activity) to dispatch; [print] output is collected as lines.

    Bodies run as the slot-resolved closures of {!Resolve}, taken from
    the {!Compiled} memo: a run allocates one frame array and looks up
    no name.

    Execution is fuel-limited so that model-supplied programs cannot
    hang the host: each evaluated statement or expression node costs one
    unit. *)

exception Runtime_error of string

type signal_out = Resolve.signal_out = {
  sig_name : string;
  sig_args : Value.t list;
  sig_target : Value.t option;
}

type t

type body
(** An operation body with its parameters bound to slots. *)

(** How an operation body is provided. *)
type method_impl =
  | Builtin of (t -> self:Value.t -> Value.t list -> Value.t)
  | Body of body

val create :
  ?fuel:int ->
  ?resolve:(string -> string -> method_impl option) ->
  ?attr_defaults:(string -> (string * Value.t) list) ->
  ?metrics:Telemetry.Metrics.t ->
  Store.t ->
  t
(** [create store] builds an interpreter.  [fuel] (default 1_000_000)
    bounds the total number of evaluation steps per run or evaluation.
    [resolve class op] supplies operation bodies.  [attr_defaults class]
    supplies initial attribute values for [new].  [metrics] (default
    {!Telemetry.Metrics.null}) receives the [asl.statements],
    [asl.store_reads] and [asl.store_writes] counters. *)

val store : t -> Store.t

val metrics : t -> Telemetry.Metrics.t
(** The registry supplied at creation time. *)

val body : string list -> Compiled.program -> body
(** [body params p] is an operation body taking [params].
    @raise Runtime_error when [p] captured a parse error. *)

val run_compiled :
  ?self_:Value.t -> ?params:(string * Value.t) list -> t ->
  Compiled.program -> Value.t option
(** Execute; [Some v] when a [return v] was executed.
    @raise Runtime_error on a dynamic error, fuel exhaustion, or when
    the compiled value captured a parse error. *)

val eval :
  ?self_:Value.t -> ?params:(string * Value.t) list -> t -> Ast.expr ->
  Value.t
(** Resolve and evaluate an expression that no memo holds. *)

val eval_guard_compiled :
  ?self_:Value.t -> ?params:(string * Value.t) list -> t ->
  Compiled.guard -> bool
(** Evaluate a precompiled guard.
    @raise Runtime_error if the result is not a boolean or the compiled
    value captured a parse error. *)

val run_event :
  ?self_:Value.t -> t -> Compiled.program -> event:string ->
  args:Value.t list -> Value.t option
(** {!run_compiled} with [event] bound to the event name and [e1], [e2],
    ... to [args]: the statechart engine's calling convention. *)

val eval_guard_event :
  ?self_:Value.t -> t -> Compiled.guard -> event:string ->
  args:Value.t list -> bool
(** {!eval_guard_compiled} under {!run_event}'s bindings. *)

val drain_signals : t -> signal_out list
(** Signals emitted since the last drain, oldest first. *)

val output : t -> string list
(** [print] lines so far, oldest first. *)
