(** The model ops as data: one declarative table, two interpreters.

    Each entry is one model-consuming op: its name, its doc, its typed
    parameters (request field, CLI spelling, default, doc) and its
    {!Ops} body.  The table is the only place op parameters and their
    defaults are written down.  {!cmd} interprets an entry as the
    one-shot CLI subcommand; {!decode} interprets it as the serve
    request decoder.  A flag and its request field therefore cannot
    disagree on a name, a type or a default. *)

(** An op with its parameters decoded. *)
type run = {
  paths : string list;
      (** models the daemon pre-resolves through its cache, in request
          order; empty when the op refuses to run before loading
          (unknown rule selectors) *)
  exec : budget:Exec.Budget.t -> Ops.sink -> Ops.loader -> Ops.reply;
      (** the op body: writes through the sink and answers the exit
          code, or answers a stored reply ([gen]) *)
}

type t
(** One model op. *)

val table : t list
(** Every model op, in the CLI's subcommand order. *)

val find : string -> t option
val name : t -> string

val budgeted : t -> bool
(** Whether the request also takes ["fuel"] / ["deadline_ms"]. *)

val json_fields : t -> string list
(** The request fields of the op's parameters, in table order. *)

val cmd : t -> int Cmdliner.Cmd.t
(** The CLI subcommand: runs the body on stdout/stderr under
    {!Ops.guarded} with an unlimited budget, printing a stored reply. *)

val format_term : Ops.format Cmdliner.Term.t
(** The [--format] option, for the [rules] subcommand. *)

val field :
  (Json.t -> 'a option) ->
  string ->
  (string * Json.t) list ->
  string ->
  ('a option, string) result
(** [field conv what members key]: the optional member [key] converted
    by [conv]; a value [conv] refuses is an error naming the field and
    the expected type [what] (["a string"], ["an integer"], ...). *)

val reject_unknown :
  op:string -> string list -> (string * Json.t) list -> (unit, string) result
(** Fail on the first member that is neither ["op"], ["id"] nor in the
    allowed list. *)

val decode : t -> (string * Json.t) list -> (unit -> run, string) result
(** Decode a request's members: unknown fields first, then each
    parameter in table order.  Each call of the result builds the op
    afresh — a fresh metrics registry when ["metrics"] is set — so a
    retried attempt never sees a failed attempt's counters. *)
