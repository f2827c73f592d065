(** Well-formedness rules (WFR).

    A static checker over whole models, approximating the OMG
    superstructure constraints for the subset this kernel implements:
    reference resolution, namespace uniqueness, generalization
    compatibility and acyclicity, state machine topology, activity
    topology, interaction consistency, use-case include cycles, profile
    application typing, and diagram content resolution. *)

type severity =
  | Error
  | Warning

val equal_severity : severity -> severity -> bool
val compare_severity : severity -> severity -> int
val pp_severity : Format.formatter -> severity -> unit
val show_severity : severity -> string

val severity_name : severity -> string
(** ["error"] or ["warning"]: the spelling of every text and JSON
    report. *)

type diagnostic = {
  diag_severity : severity;
  diag_rule : string;  (** stable rule identifier, e.g. ["SM-02"] *)
  diag_element : Ident.t option;  (** offending element, when known *)
  diag_message : string;
}
[@@deriving eq, show]

val check : Model.t -> diagnostic list
(** All diagnostics for the model, in deterministic order. *)

val errors : diagnostic list -> diagnostic list
val warnings : diagnostic list -> diagnostic list

val is_valid : Model.t -> bool
(** No [Error]-severity diagnostics. *)

val to_string : diagnostic -> string
