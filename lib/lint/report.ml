open Uml
open Sjson

let summary_line diags =
  Printf.sprintf "%d diagnostics (%d errors, %d warnings)"
    (List.length diags)
    (List.length (Wfr.errors diags))
    (List.length (Wfr.warnings diags))

let to_text ?model diags =
  let buf = Buffer.create 256 in
  (match model with
   | Some name -> Buffer.add_string buf (Printf.sprintf "lint: %s\n" name)
   | None -> ());
  List.iter
    (fun d ->
      Buffer.add_string buf (Wfr.to_string d);
      Buffer.add_char buf '\n')
    diags;
  Buffer.add_string buf (summary_line diags);
  Buffer.add_char buf '\n';
  Buffer.contents buf

(* --- rule table (socuml rules) ---------------------------------------- *)

let rules_to_text () =
  let buf = Buffer.create 1024 in
  List.iter
    (fun (r : Rules.rule) ->
      Buffer.add_string buf
        (Printf.sprintf "%-8s %-8s %s\n" r.Rules.rule_code
           (Wfr.severity_name r.Rules.rule_severity)
           r.Rules.rule_summary))
    Rules.all;
  Buffer.add_string buf (Printf.sprintf "%d rules\n" (List.length Rules.all));
  Buffer.contents buf

let rules_to_json () =
  let rule (r : Rules.rule) =
    Json.Obj
      [
        ("code", Json.Str r.Rules.rule_code);
        ("severity", Json.Str (Wfr.severity_name r.Rules.rule_severity));
        ("summary", Json.Str r.Rules.rule_summary);
      ]
  in
  Json.to_report
    [
      ("rules", Json.List (List.map rule Rules.all));
      ("count", Json.Int (List.length Rules.all));
    ]

let json_diag (d : Wfr.diagnostic) =
  let element id = ("element", Json.Str (Ident.to_string id)) in
  Json.Obj
    (("severity", Json.Str (Wfr.severity_name d.Wfr.diag_severity))
     :: ("rule", Json.Str d.Wfr.diag_rule)
     :: Option.to_list (Option.map element d.Wfr.diag_element)
    @ [ ("message", Json.Str d.Wfr.diag_message) ])

let to_json ?model diags =
  Json.to_report
    (Option.to_list (Option.map (fun name -> ("model", Json.Str name)) model)
    @ [
        ("errors", Json.Int (List.length (Wfr.errors diags)));
        ("warnings", Json.Int (List.length (Wfr.warnings diags)));
        ("diagnostics", Json.List (List.map json_diag diags));
      ])
