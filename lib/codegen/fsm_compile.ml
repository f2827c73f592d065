open Hdl

let sanitize = Hdl_text.sanitize
let state_name = sanitize
let event_input e = "ev_" ^ sanitize e

exception Not_compilable of string

let fail fmt = Printf.ksprintf (fun m -> raise (Not_compilable m)) fmt

(* --- ASL subset compilation ------------------------------------------ *)

let rec compile_expr vars (e : Asl.Ast.expr) : Expr.t =
  match e with
  | Asl.Ast.Int_lit i ->
    if i < 0 then fail "negative literals not synthesizable";
    Expr.of_int i
  | Asl.Ast.Bool_lit b -> Expr.of_bool b
  | Asl.Ast.Var name ->
    if List.mem name vars then Expr.Ref (sanitize name)
    else fail "guard/effect references unknown variable %s" name
  | Asl.Ast.Unop (Asl.Ast.Not, e1) -> Expr.Unop (Expr.Not, compile_expr vars e1)
  | Asl.Ast.Unop (Asl.Ast.Neg, _) -> fail "negative values not synthesizable"
  | Asl.Ast.Binop (op, e1, e2) ->
    let c1 = compile_expr vars e1 in
    let c2 = compile_expr vars e2 in
    let hop =
      match op with
      | Asl.Ast.Add -> Expr.Add
      | Asl.Ast.Sub -> Expr.Sub
      | Asl.Ast.Mul -> Expr.Mul
      | Asl.Ast.Eq -> Expr.Eq
      | Asl.Ast.Ne -> Expr.Neq
      | Asl.Ast.Lt -> Expr.Lt
      | Asl.Ast.Le -> Expr.Le
      | Asl.Ast.Gt -> Expr.Gt
      | Asl.Ast.Ge -> Expr.Ge
      | Asl.Ast.And -> Expr.And
      | Asl.Ast.Or -> Expr.Or
      | Asl.Ast.Div | Asl.Ast.Mod -> fail "division not synthesizable here"
      | Asl.Ast.Concat -> fail "string concatenation not synthesizable"
    in
    Expr.Binop (hop, c1, c2)
  | Asl.Ast.Real_lit _ | Asl.Ast.String_lit _ | Asl.Ast.Null_lit
  | Asl.Ast.Self | Asl.Ast.Attr _ | Asl.Ast.Call _ | Asl.Ast.New _ ->
    fail "expression not in the synthesizable ASL subset"

let compile_effect vars src : Stmt.t list =
  let prog =
    match Asl.Compiled.program_result (Asl.Compiled.program src) with
    | Ok p -> p
    | Error m -> fail "effect does not parse: %s" m
  in
  List.map
    (fun (s : Asl.Ast.stmt) ->
      match s with
      | Asl.Ast.Skip -> Stmt.Null
      | Asl.Ast.Assign (Asl.Ast.L_var name, e) ->
        Stmt.Assign (sanitize name, compile_expr vars e)
      | Asl.Ast.Var_decl _ | Asl.Ast.Assign _ | Asl.Ast.Expr_stmt _
      | Asl.Ast.If _ | Asl.Ast.While _ | Asl.Ast.For _ | Asl.Ast.Return _
      | Asl.Ast.Send _ | Asl.Ast.Delete _ ->
        fail "effect statement not in the synthesizable ASL subset")
    prog

let compile_guard vars src : Expr.t =
  match Asl.Compiled.guard_result (Asl.Compiled.guard src) with
  | Ok e -> compile_expr vars e
  | Error m -> fail "guard does not parse: %s" m

(* Variables assigned in any effect = output registers. *)
let effect_variables (flat : Statechart.Flatten.t) =
  let vars = ref [] in
  let add name = if not (List.mem name !vars) then vars := name :: !vars in
  List.iter
    (fun (tr : Statechart.Flatten.flat_transition) ->
      List.iter
        (fun src ->
          match Asl.Compiled.program_result (Asl.Compiled.program src) with
          | Ok prog ->
            List.iter
              (fun (s : Asl.Ast.stmt) ->
                match s with
                | Asl.Ast.Assign (Asl.Ast.L_var name, _) -> add name
                | _other -> ())
              prog
          | Error _ -> ())
        tr.Statechart.Flatten.ft_effects)
    flat.Statechart.Flatten.fm_transitions;
  List.rev !vars

let compile ?(var_width = 8) (flat : Statechart.Flatten.t) =
  match
    let open Statechart.Flatten in
    let states = List.map state_name flat.fm_states in
    if states = [] then fail "machine has no states";
    let state_ty = Htype.Enum states in
    let events = events_of flat in
    let vars = effect_variables flat in
    let ports =
      [ Module_.input "clk" Htype.Bit; Module_.input "rst" Htype.Bit ]
      @ List.map (fun e -> Module_.input (event_input e) Htype.Bit) events
      @ List.map
          (fun v -> Module_.output (sanitize v) (Htype.Unsigned var_width))
          vars
    in
    let signals = [ Module_.signal "state" state_ty ] in
    (* per source state: if-else chain over its transitions *)
    let transition_stmt (tr : flat_transition) rest =
      let cond_event =
        match tr.ft_event with
        | Some e -> Some (Expr.Binop (Expr.Eq, Expr.Ref (event_input e), Expr.one))
        | None -> None
      in
      let cond_guards =
        List.map (fun g -> compile_guard vars g) tr.ft_guards
      in
      let conds =
        (match cond_event with
         | Some c -> [ c ]
         | None -> [])
        @ cond_guards
      in
      let cond =
        match conds with
        | [] -> Expr.one
        | first :: more ->
          List.fold_left (fun acc c -> Expr.Binop (Expr.And, acc, c)) first more
      in
      let effects = List.concat_map (compile_effect vars) tr.ft_effects in
      let body =
        effects @ [ Stmt.Assign ("state", Expr.Enum_lit (state_name tr.ft_target)) ]
      in
      match cond with
      | Expr.Const (1, Htype.Bit) -> body (* unconditional *)
      | _conditional -> [ Stmt.If (cond, body, rest) ]
    in
    let state_case source =
      let my_transitions =
        List.filter (fun tr -> tr.ft_source = source) flat.fm_transitions
      in
      (* already priority-sorted by Flatten *)
      let rec chain = function
        | [] -> []
        | [ tr ] -> transition_stmt tr []
        | tr :: rest -> transition_stmt tr (chain rest)
      in
      (Stmt.Ch_enum (state_name source), chain my_transitions)
    in
    let case =
      Stmt.Case (Expr.Ref "state", List.map state_case flat.fm_states, None)
    in
    let reset_body =
      Stmt.Assign ("state", Expr.Enum_lit (state_name flat.fm_initial))
      :: List.map
           (fun v -> Stmt.Assign (sanitize v, Expr.Const (0, Htype.Unsigned var_width)))
           vars
    in
    let process =
      Module_.seq_process ~reset:("rst", reset_body) ~name:"p_fsm"
        ~clock:"clk" [ case ]
    in
    Module_.make ~ports ~signals ~processes:[ process ]
      (sanitize flat.fm_name)
  with
  | m -> Ok m
  | exception Not_compilable msg -> Error msg
