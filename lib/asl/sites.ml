open Uml

let ty_of_dtype m (d : Dtype.t) : Typecheck.ty =
  match d with
  | Dtype.Boolean -> Typecheck.T_bool
  | Dtype.Integer | Dtype.Unlimited_natural -> Typecheck.T_int
  | Dtype.Real -> Typecheck.T_real
  | Dtype.String_type -> Typecheck.T_string
  | Dtype.Void -> Typecheck.T_void
  | Dtype.Ref id -> (
    match Model.find_classifier m id with
    | Some cl -> Typecheck.T_obj (Some cl.Classifier.cl_name)
    | None -> Typecheck.T_obj None)

let in_params (op : Classifier.operation) =
  List.filter
    (fun (p : Classifier.parameter) ->
      p.Classifier.param_direction <> Classifier.Return)
    op.Classifier.op_params

let class_info_of_model m : Typecheck.class_info =
  let find_class = Model.classifier_named m in
  let ty_of_dtype = ty_of_dtype m in
  {
    Typecheck.class_exists = (fun n -> find_class n <> None);
    attr_type =
      (fun cname aname ->
        match find_class cname with
        | None -> None
        | Some cl ->
          Option.map
            (fun (p : Classifier.property) -> ty_of_dtype p.Classifier.prop_type)
            (Classifier.find_attribute cl aname));
    op_signature =
      (fun cname oname ->
        match find_class cname with
        | None -> None
        | Some cl -> (
          match Classifier.find_operation cl oname with
          | None -> None
          | Some op ->
            let params =
              List.map
                (fun (p : Classifier.parameter) ->
                  ty_of_dtype p.Classifier.param_type)
                (in_params op)
            in
            Some (params, ty_of_dtype (Classifier.result_type op))));
  }

let self_class m context =
  match context with
  | None -> None
  | Some id ->
    Option.map
      (fun cl -> cl.Classifier.cl_name)
      (Model.find_classifier m id)

let event_env =
  List.init 9 (fun i -> (Printf.sprintf "e%d" (i + 1), Typecheck.T_int))
  @ [ ("event", Typecheck.T_string) ]

type body =
  | Guard of (Ast.expr, string) result
  | Program of (Ast.program, string) result

type site = {
  site_element : Ident.t;
  site_what : string;
  site_self : string option;
  site_env : (string * Typecheck.ty) list;
  site_body : body;
}

let guard src = Guard (Compiled.guard_result (Compiled.guard src))
let program src = Program (Compiled.program_result (Compiled.program src))

let fold f acc m =
  let visit element self env what parse src acc =
    match src with
    | None -> acc
    | Some src ->
      f acc
        {
          site_element = element;
          site_what = what;
          site_self = self;
          site_env = env;
          site_body = parse src;
        }
  in
  let machine acc (sm : Smachine.t) =
    let self = self_class m sm.Smachine.sm_context in
    let acc =
      List.fold_left
        (fun acc (tr : Smachine.transition) ->
          let id = tr.Smachine.tr_id in
          acc
          |> visit id self event_env "transition guard" guard
               tr.Smachine.tr_guard
          |> visit id self event_env "transition effect" program
               tr.Smachine.tr_effect)
        acc
        (Smachine.all_transitions sm)
    in
    List.fold_left
      (fun acc v ->
        match v with
        | Smachine.Pseudo _ | Smachine.Final _ -> acc
        | Smachine.State st ->
          let id = st.Smachine.st_id in
          acc
          |> visit id self event_env "state entry behavior" program
               st.Smachine.st_entry
          |> visit id self event_env "state exit behavior" program
               st.Smachine.st_exit
          |> visit id self event_env "state do behavior" program
               st.Smachine.st_do)
      acc (Smachine.all_vertices sm)
  in
  let classifier acc (cl : Classifier.t) =
    let self = Some cl.Classifier.cl_name in
    List.fold_left
      (fun acc (op : Classifier.operation) ->
        match op.Classifier.op_body with
        | None -> acc
        | Some _ as src ->
          let env =
            List.map
              (fun (p : Classifier.parameter) ->
                (p.Classifier.param_name, ty_of_dtype m p.Classifier.param_type))
              (in_params op)
          in
          let what =
            "body of " ^ cl.Classifier.cl_name ^ "." ^ op.Classifier.op_name
          in
          visit op.Classifier.op_id self env what program src acc)
      acc cl.Classifier.cl_operations
  in
  let acc = List.fold_left machine acc (Model.state_machines m) in
  List.fold_left classifier acc (Model.classifiers m)
