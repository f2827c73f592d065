(** Differential oracle: activity engine runs vs the translated net
    (used by [test_activity], [test_compiled] and bench E3).

    Because [Activity.Exec] labels every firing with the
    [Activity.Translate] transition name, an engine run conforms to
    UML-token-semantics-as-Petri-nets iff the label sequence is an
    occurrence sequence of the translated net and both sides end in the
    same marking. *)

type report = {
  steps : int;
  conforms : bool;
  mismatch : string option;  (** description of the first divergence *)
}

val check_trace : Uml.Activityg.t -> string list -> report
(** Replay the labels on the translated net. *)

val run_and_check :
  ?seed:int -> ?max_steps:int -> Uml.Activityg.t -> report
(** Run a fresh engine with the given seed, then {!check_trace} the
    produced labels and compare final markings. *)
