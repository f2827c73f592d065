open Uml

let severity_of code =
  match Rules.find code with
  | Some ru -> ru.Rules.rule_severity
  | None -> Wfr.Error

let diag ~code ?element message =
  {
    Wfr.diag_severity = severity_of code;
    diag_rule = code;
    diag_element = element;
    diag_message = message;
  }

let diagf ~code ?element fmt = Printf.ksprintf (diag ~code ?element) fmt

let sort diags =
  List.sort
    (fun (a : Wfr.diagnostic) (b : Wfr.diagnostic) ->
      match compare a.Wfr.diag_rule b.Wfr.diag_rule with
      | 0 -> (
        match compare a.Wfr.diag_element b.Wfr.diag_element with
        | 0 -> compare a.Wfr.diag_message b.Wfr.diag_message
        | c -> c)
      | c -> c)
    diags
