(** Rendering of diagnostic reports, shared by [socuml lint] and
    [socuml validate].

    Both renderers are deterministic: identical diagnostics produce
    byte-identical output. *)

val summary_line : Uml.Wfr.diagnostic list -> string
(** ["N diagnostics (E errors, W warnings)"], without a newline. *)

val to_text : ?model:string -> Uml.Wfr.diagnostic list -> string
(** One {!Uml.Wfr.to_string} line per diagnostic, then the
    {!summary_line}.  Ends with a newline. *)

val rules_to_text : unit -> string
(** The registered rule table ([socuml rules]): one
    ["CODE  severity  summary"] line per rule in {!Rules.all} order,
    then a count line.  Sourced from the registry, so it cannot drift
    from the rules the passes enforce. *)

val rules_to_json : unit -> string
(** The same table as a JSON object [{rules: [{code, severity,
    summary}], count}], printed by {!Sjson.Json.to_report}: one line per
    member and one per rule. *)

val to_json : ?model:string -> Uml.Wfr.diagnostic list -> string
(** A JSON object with [model] (when given), [errors], [warnings] and a
    [diagnostics] array of [{severity, rule, element, message}]
    ([element] only when the diagnostic names one), printed by
    {!Sjson.Json.to_report} — the escaper and layout every report
    shares.  Ends with a newline. *)
