let apply selection diags =
  Model_info.sort
    (List.filter
       (fun (d : Uml.Wfr.diagnostic) ->
         Rules.enabled selection d.Uml.Wfr.diag_rule)
       diags)

let model_diags ?metrics ?explore m =
  Asl_pass.check m @ Sc_pass.check m
  @ Act_pass.check ?explore m
  @ Comp_pass.check m
  @ Df_pass.check_model ?metrics m

let check_model ?(selection = Rules.default_selection) ?metrics ?explore m =
  apply selection (model_diags ?metrics ?explore m)

let check_design ?(selection = Rules.default_selection) ?metrics design =
  apply selection
    (Hdl_pass.check_design design @ Df_pass.check_design ?metrics design)

let check ?(selection = Rules.default_selection) ?metrics ?design m =
  let hdl =
    match design with
    | None -> []
    | Some d -> Hdl_pass.check_design d @ Df_pass.check_design ?metrics d
  in
  apply selection (model_diags ?metrics m @ hdl)
