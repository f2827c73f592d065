(** The activity lint pass: token-flow analysis through the
    Activity→Petri translation ({!Activity.Translate}) and the [petri]
    analyses.

    Rules:
    - [ACT-01] (error): the activity can reach a stuck marking — tokens
      remain but no node can fire and no activity-final was reached
      (e.g. a join whose branches cannot all complete);
    - [ACT-02] (warning): the token flow is unbounded (tokens accumulate
      without limit, per Karp–Miller coverability);
    - [ACT-03] (warning): a node can never fire in any execution.

    Activities whose edges reference unknown nodes are skipped here —
    reference resolution is {!Uml.Wfr}'s job ([AC-xx]).  Verdicts
    requiring a complete state space ([ACT-01], [ACT-03]) are suppressed
    when exploration hits the state limit (4 096 markings).

    Each activity is explored once, to 10 000 markings; the rules read
    their 4 096-marking answers off that exploration, and Karp–Miller
    runs for [ACT-02] only when it does not settle boundedness (see
    {!Petri.Analysis.coverability}). *)

val check :
  ?explore:(Uml.Activityg.t -> Petri.Analysis.exploration) ->
  Uml.Model.t ->
  Uml.Wfr.diagnostic list
(** [explore] supplies each activity's exploration (default: translate
    it and explore to 10 000 markings), so a caller that has explored
    the activities already shares that work.  It must explore the
    activity's {!Activity.Translate.to_petri} net to at least 4 096
    markings; [Invalid_argument] from it skips the activity. *)
