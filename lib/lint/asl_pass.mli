(** The ASL lint pass: parse and typecheck every embedded behavior
    string in the model against its owning classifier.

    Covered behaviors: transition guards and effects, state
    entry/exit/do actions, operation bodies, activity action bodies, and
    activity edge guards.

    Rules: [ASL-01] (parse failure), [ASL-02] (type error, including
    unknown identifiers and non-Boolean guards), [ASL-03] (guard with a
    side effect: [new], [print], or a non-query operation call).

    Guards and statechart behaviors are checked in the environment the
    statechart engine provides ({!Asl.Sites.event_env}); activity
    action bodies are checked in node order with top-level variable
    bindings threaded from earlier actions, matching the engine's shared
    interpreter store. *)

val check : Uml.Model.t -> Uml.Wfr.diagnostic list
