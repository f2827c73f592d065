(** Slot resolution and closure compilation of ASL bodies.

    [program] and [guard] walk a parsed body once.  Every name the body
    mentions ([var] declarations, assignments, reads, [for] variables)
    gets one frame slot, by the flat-frame rule: a name declared
    anywhere in a body is one variable for the whole run, visible after
    the block that declared it.  Each node then becomes a closure over
    its slots, so a run reads and writes an array, never a table of
    names.

    The closures account for a run node by node as the reference tree
    walker ([test/oracles/asl_interp_ref.ml]) does: one unit of fuel
    per evaluated expression node, statement, [while] test and [for]
    iteration; [asl.statements], [asl.store_reads] and
    [asl.store_writes] counted at the same steps; the same
    {!Runtime_error} text raised at the same point.

    Handles are immutable and frames are built per run, so one handle
    may run on any number of interpreters and domains at once.
    {!Interp} is the public face of this module: {!ctx} is [Interp.t]. *)

exception Runtime_error of string

type signal_out = {
  sig_name : string;
  sig_args : Value.t list;
  sig_target : Value.t option;
}

(** The interpreter state a run mutates. *)
type ctx = {
  store : Store.t;
  methods : string -> string -> method_impl option;
      (** class name -> operation name -> implementation *)
  attr_defaults : string -> (string * Value.t) list;
  initial_fuel : int;
  mutable fuel : int;
  mutable signals : signal_out list;  (** reverse order *)
  mutable out_lines : string list;  (** reverse order *)
  metrics : Telemetry.Metrics.t;
  m_stmts : Telemetry.Metrics.counter;
  m_reads : Telemetry.Metrics.counter;
  m_writes : Telemetry.Metrics.counter;
}

and method_impl =
  | Builtin of (ctx -> self:Value.t -> Value.t list -> Value.t)
  | Body of body

and body
(** An operation body with its parameters bound to slots. *)

type frame
(** The slots of one run, with the interpreter and [self]. *)

type 'a handle
(** A resolved body: its slot table and the closure that runs it. *)

type program = unit handle
type guard = Value.t handle

val program : Ast.program -> program
val guard : Ast.expr -> guard

val body : string list -> program -> body
(** [body params p]: argument [i] of a call binds the slot of the
    [i]-th name of [params] (of repeated names, the last one written
    wins, as in a sequence of assignments). *)

(** {2 Runs} *)

val new_frame : ctx -> Value.t -> 'a handle -> frame
(** Every slot unbound; [self] bound to the value given. *)

val bind_named : frame -> 'a handle -> (string * Value.t) list -> unit
(** Bind parameters by name, in order; names the body never mentions
    are dropped (no read can see them). *)

val bind_event :
  frame -> 'a handle -> event:string -> args:Value.t list -> unit
(** The statechart convention: [event] is the event name and [e1],
    [e2], ... its arguments.  The slots were found at resolution, so
    binding names no string. *)

val exec : frame -> program -> Value.t option
(** Run; [Some v] when a [return v] executed. *)

val eval : frame -> guard -> Value.t

val as_bool : Value.t -> bool
(** @raise Runtime_error on a non-Boolean, with the tree walker's text. *)
