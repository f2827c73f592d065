open Uml

(* Diagnostics accumulate in reverse; the driver sorts the final list,
   so only per-behavior determinism matters here. *)

let parse_failure ~element ~what msg acc =
  Model_info.diagf ~code:"ASL-01" ~element "%s does not parse: %s" what msg
  :: acc

let type_errors ~element ~what msgs acc =
  List.fold_left
    (fun acc msg ->
      Model_info.diagf ~code:"ASL-02" ~element "%s: %s" what msg :: acc)
    acc msgs

(* --- guard side effects (ASL-03) ------------------------------------- *)

(* Static receiver class of an expression, for query-ness lookup.  Uses
   the typechecker so resolution agrees with ASL-02. *)
let receiver_class info ~self_class ~env recv =
  match recv with
  | None -> self_class
  | Some r -> (
    match Asl.Typecheck.check_expression ?self_class ~env info r with
    | Ok (Asl.Typecheck.T_obj c) -> c
    | Ok
        ( Asl.Typecheck.T_int | Asl.Typecheck.T_real | Asl.Typecheck.T_bool
        | Asl.Typecheck.T_string | Asl.Typecheck.T_null | Asl.Typecheck.T_void
          )
    | Error _ ->
      None)

let rec first_effect m info ~self_class ~env (e : Asl.Ast.expr) =
  match e with
  | Asl.Ast.Int_lit _ | Asl.Ast.Real_lit _ | Asl.Ast.Bool_lit _
  | Asl.Ast.String_lit _ | Asl.Ast.Null_lit | Asl.Ast.Self | Asl.Ast.Var _ ->
    None
  | Asl.Ast.New cname -> Some (Printf.sprintf "creates a %s instance" cname)
  | Asl.Ast.Attr (obj, _attr) -> first_effect m info ~self_class ~env obj
  | Asl.Ast.Unop (_, e1) -> first_effect m info ~self_class ~env e1
  | Asl.Ast.Binop (_, e1, e2) -> (
    match first_effect m info ~self_class ~env e1 with
    | Some _ as eff -> eff
    | None -> first_effect m info ~self_class ~env e2)
  | Asl.Ast.Call (recv, name, args) -> (
    let sub = (match recv with None -> [] | Some r -> [ r ]) @ args in
    match List.find_map (first_effect m info ~self_class ~env) sub with
    | Some _ as eff -> eff
    | None ->
      if recv = None && name = "print" then Some "calls print"
      else (
        match receiver_class info ~self_class ~env recv with
        | None -> None
        | Some cname -> (
          match Model.classifier_named m cname with
          | None -> None
          | Some cl -> (
            match Classifier.find_operation cl name with
            | Some op when not op.Classifier.op_is_query ->
              Some
                (Printf.sprintf "calls non-query operation %s.%s" cname name)
            | Some _ | None -> None))))

(* --- per-behavior checks --------------------------------------------- *)

let check_guard info ~self_class ~env ~element ~what parsed acc =
  match parsed with
  | Error msg -> parse_failure ~element ~what msg acc
  | Ok ast -> (
    match Asl.Typecheck.check_guard ?self_class ~env info ast with
    | Ok () -> acc
    | Error msgs -> type_errors ~element ~what msgs acc)

let check_program info ~env ~self_class ~element ~what parsed acc =
  match parsed with
  | Error msg -> parse_failure ~element ~what msg acc
  | Ok prog -> (
    match Asl.Typecheck.check_program ?self_class ~env info prog with
    | Ok () -> acc
    | Error msgs -> type_errors ~element ~what msgs acc)

(* --- state machines and operation bodies ------------------------------ *)

let check_site m info acc (s : Asl.Sites.site) =
  let self_class = s.Asl.Sites.site_self and env = s.Asl.Sites.site_env in
  let element = s.Asl.Sites.site_element and what = s.Asl.Sites.site_what in
  match s.Asl.Sites.site_body with
  | Asl.Sites.Program parsed ->
    check_program info ~env ~self_class ~element ~what parsed acc
  | Asl.Sites.Guard parsed -> (
    let acc = check_guard info ~self_class ~env ~element ~what parsed acc in
    match parsed with
    | Error _ -> acc
    | Ok ast -> (
      match first_effect m info ~self_class ~env ast with
      | None -> acc
      | Some eff ->
        Model_info.diagf ~code:"ASL-03" ~element "%s %s" what eff :: acc))

(* --- activities -------------------------------------------------------- *)

(* Top-level variable bindings a program leaves in the interpreter's
   shared store, typed under [env] (matches Typecheck's block scoping:
   nested assignments do not escape). *)
let program_bindings info ~self_class ~env prog =
  List.fold_left
    (fun env (s : Asl.Ast.stmt) ->
      match s with
      | Asl.Ast.Var_decl (name, e) | Asl.Ast.Assign (Asl.Ast.L_var name, e)
        -> (
        match Asl.Typecheck.check_expression ?self_class ~env info e with
        | Ok t -> (name, t) :: env
        | Error _ -> env)
      | Asl.Ast.Skip
      | Asl.Ast.Assign (Asl.Ast.L_attr _, _)
      | Asl.Ast.Expr_stmt _ | Asl.Ast.If _ | Asl.Ast.While _ | Asl.Ast.For _
      | Asl.Ast.Return _ | Asl.Ast.Send _ | Asl.Ast.Delete _ ->
        env)
    env prog

let check_activity m info (ac : Activityg.t) acc =
  let self_class = Asl.Sites.self_class m ac.Activityg.ac_context in
  (* Action bodies run against one shared interpreter store, in token
     order; checking in node order with threaded bindings approximates
     that. *)
  let acc, env =
    List.fold_left
      (fun (acc, env) node ->
        match node with
        | Activityg.Action a -> (
          match a.Activityg.act_body with
          | None -> (acc, env)
          | Some src ->
            let what =
              Printf.sprintf "body of action %s"
                a.Activityg.act_head.Activityg.nd_name
            in
            let parsed =
              Asl.Compiled.program_result (Asl.Compiled.program src)
            in
            let acc =
              check_program info ~env ~self_class
                ~element:a.Activityg.act_head.Activityg.nd_id ~what parsed acc
            in
            let env =
              match parsed with
              | Error _ -> env
              | Ok prog -> program_bindings info ~self_class ~env prog
            in
            (acc, env))
        | Activityg.Call_behavior _ | Activityg.Send_signal _
        | Activityg.Accept_event _ | Activityg.Object_node _
        | Activityg.Initial_node _ | Activityg.Activity_final _
        | Activityg.Flow_final _ | Activityg.Fork_node _
        | Activityg.Join_node _ | Activityg.Decision_node _
        | Activityg.Merge_node _ ->
          (acc, env))
      (acc, []) ac.Activityg.ac_nodes
  in
  List.fold_left
    (fun acc (e : Activityg.edge) ->
      match e.Activityg.ed_guard with
      | None -> acc
      | Some src ->
        check_guard info ~self_class ~env ~element:e.Activityg.ed_id
          ~what:"edge guard"
          (Asl.Compiled.guard_result (Asl.Compiled.guard src))
          acc)
    acc ac.Activityg.ac_edges

let check m =
  let info = Asl.Sites.class_info_of_model m in
  List.fold_left
    (fun acc ac -> check_activity m info ac acc)
    (Asl.Sites.fold (check_site m info) [] m)
    (Model.activities m)
