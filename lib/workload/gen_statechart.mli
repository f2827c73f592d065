(** Random state machine generation.

    All generated machines are well-formed (pass {!Uml.Wfr.check}) and
    flattenable by construction when [flat]-friendly options are used. *)

val flat :
  seed:int -> states:int -> events:int -> Uml.Smachine.t
(** A flat machine: [states] simple states in a cycle-ish topology with
    [events] distinct signal events; every state has at least one
    outgoing transition, so any event sequence keeps the machine live. *)

val hierarchical :
  seed:int -> depth:int -> breadth:int -> events:int -> Uml.Smachine.t
(** A nested machine: composite states down to [depth] levels with
    [breadth] children per composite; inner and outer transitions on
    shared events exercise conflict priority.  No orthogonal regions or
    history (flattenable). *)

val asl_heavy : seed:int -> states:int -> events:int -> Uml.Smachine.t
(** A flat machine whose behaviors exercise the ASL tier: two
    complementary guarded transitions per (state, event), each effect
    running a [for] and a [while] loop over seeded constants, so every
    guard and effect text is distinct.  [states * events * 2] looping
    effects in all. *)

val event_names : int -> string list
(** [ev0 .. evN-1] — the event alphabet used by the generators. *)

val event_sequence : seed:int -> length:int -> int -> string list
(** Random sequence over {!event_names}. *)
