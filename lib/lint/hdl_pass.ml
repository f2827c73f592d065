(* Lift netlist diagnostics into lint diagnostics: the registry owns the
   severity, [Hdl.Check] owns the analysis. *)

let lift (d : Hdl.Check.diagnostic) =
  Model_info.diag ~code:d.Hdl.Check.diag_code d.Hdl.Check.diag_message

let check_design design = List.map lift (Hdl.Check.check_design design)
