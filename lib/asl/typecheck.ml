type ty =
  | T_int
  | T_real
  | T_bool
  | T_string
  | T_obj of string option
  | T_null
  | T_void
[@@deriving eq, show]

type class_info = {
  class_exists : string -> bool;
  attr_type : string -> string -> ty option;
  op_signature : string -> string -> (ty list * ty) option;
}

let no_classes =
  {
    class_exists = (fun _name -> false);
    attr_type = (fun _c _a -> None);
    op_signature = (fun _c _o -> None);
  }

let ty_name = function
  | T_int -> "Integer"
  | T_real -> "Real"
  | T_bool -> "Boolean"
  | T_string -> "String"
  | T_obj (Some c) -> c
  | T_obj None -> "Object"
  | T_null -> "Null"
  | T_void -> "void"

type ctx = {
  info : class_info;
  self_class : string option;
  mutable vars : (string * ty) list;
  mutable errors : string list;  (** reverse order *)
}

let err ctx fmt = Printf.ksprintf (fun m -> ctx.errors <- m :: ctx.errors) fmt

let numeric = function
  | T_int | T_real -> true
  | T_bool | T_string | T_obj _ | T_null | T_void -> false

let join_numeric t1 t2 =
  match t1, t2 with
  | T_int, T_int -> T_int
  | (T_int | T_real), (T_int | T_real) -> T_real
  | _other1, _other2 -> T_real

(* [T_null] is assignable to objects; numerics promote. *)
let compatible expected actual =
  equal_ty expected actual
  ||
  match expected, actual with
  | T_real, T_int -> true
  | T_obj _, T_null -> true
  | T_obj None, T_obj _ -> true
  | T_obj (Some _), T_obj None -> true
  | _other1, _other2 -> false

let rec infer ctx (e : Ast.expr) : ty =
  match e with
  | Ast.Int_lit _ -> T_int
  | Ast.Real_lit _ -> T_real
  | Ast.Bool_lit _ -> T_bool
  | Ast.String_lit _ -> T_string
  | Ast.Null_lit -> T_null
  | Ast.Self -> (
    match ctx.self_class with
    | Some c -> T_obj (Some c)
    | None ->
      err ctx "self used outside a classifier context";
      T_obj None)
  | Ast.Var name -> (
    match List.assoc_opt name ctx.vars with
    | Some t -> t
    | None ->
      err ctx "unbound variable %s" name;
      T_void)
  | Ast.New class_name ->
    if not (ctx.info.class_exists class_name) then
      err ctx "unknown class %s" class_name;
    T_obj (Some class_name)
  | Ast.Attr (obj, attr) -> (
    let obj_ty = infer ctx obj in
    match obj_ty with
    | T_obj (Some c) -> (
      match ctx.info.attr_type c attr with
      | Some t -> t
      | None ->
        err ctx "class %s has no attribute %s" c attr;
        T_void)
    | T_obj None | T_null -> T_obj None (* dynamic: cannot check further *)
    | other ->
      err ctx "attribute access on non-object (%s)" (ty_name other);
      T_void)
  | Ast.Unop (Ast.Neg, e1) ->
    let t = infer ctx e1 in
    if not (numeric t) then err ctx "unary minus on %s" (ty_name t);
    t
  | Ast.Unop (Ast.Not, e1) ->
    let t = infer ctx e1 in
    if not (equal_ty t T_bool) then err ctx "not on %s" (ty_name t);
    T_bool
  | Ast.Binop (op, e1, e2) -> infer_binop ctx op e1 e2
  | Ast.Call (recv, name, args) -> infer_call ctx recv name args

and infer_binop ctx op e1 e2 =
  let t1 = infer ctx e1 in
  let t2 = infer ctx e2 in
  match op with
  | Ast.Add | Ast.Sub | Ast.Mul | Ast.Mod ->
    if not (numeric t1 && numeric t2) then
      err ctx "arithmetic %s on %s and %s" (Ast.binop_name op) (ty_name t1)
        (ty_name t2);
    join_numeric t1 t2
  | Ast.Div ->
    if not (numeric t1 && numeric t2) then
      err ctx "arithmetic / on %s and %s" (ty_name t1) (ty_name t2);
    join_numeric t1 t2
  | Ast.Concat ->
    if not (equal_ty t1 T_string || equal_ty t2 T_string) then
      err ctx "concatenation needs at least one string operand";
    T_string
  | Ast.Eq | Ast.Ne ->
    if
      not
        (compatible t1 t2 || compatible t2 t1
        || (numeric t1 && numeric t2))
    then
      err ctx "comparing incompatible types %s and %s" (ty_name t1)
        (ty_name t2);
    T_bool
  | Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge ->
    let orderable t = numeric t || equal_ty t T_string in
    if not (orderable t1 && orderable t2) then
      err ctx "ordering %s on %s and %s" (Ast.binop_name op) (ty_name t1)
        (ty_name t2);
    T_bool
  | Ast.And | Ast.Or ->
    if not (equal_ty t1 T_bool && equal_ty t2 T_bool) then
      err ctx "boolean %s on %s and %s" (Ast.binop_name op) (ty_name t1)
        (ty_name t2);
    T_bool

and infer_call ctx recv name args =
  let arg_tys = List.map (infer ctx) args in
  let builtin =
    match recv, name, arg_tys with
    | None, "abs", [ t ] when numeric t -> Some t
    | None, ("min" | "max"), [ t1; t2 ] when numeric t1 && numeric t2 ->
      Some (join_numeric t1 t2)
    | None, "print", [ _any ] -> Some T_void
    | None, "to_string", [ _any ] -> Some T_string
    | _other -> None
  in
  match builtin with
  | Some t -> t
  | None -> (
    let class_name =
      match recv with
      | None -> ctx.self_class
      | Some r -> (
        match infer ctx r with
        | T_obj c -> c
        | other ->
          err ctx "operation call on non-object (%s)" (ty_name other);
          None)
    in
    match class_name with
    | None -> T_void (* dynamic receiver: unchecked *)
    | Some c -> (
      match ctx.info.op_signature c name with
      | None ->
        err ctx "class %s has no operation %s" c name;
        T_void
      | Some (params, result) ->
        if List.length params <> List.length arg_tys then
          err ctx "operation %s.%s expects %d arguments, got %d" c name
            (List.length params) (List.length arg_tys)
        else
          List.iteri
            (fun i (expected, actual) ->
              if not (compatible expected actual) then
                err ctx "argument %d of %s.%s: expected %s, got %s" (i + 1) c
                  name (ty_name expected) (ty_name actual))
            (List.combine params arg_tys);
        result))

let check_bool ctx what e =
  let t = infer ctx e in
  if not (equal_ty t T_bool) then
    err ctx "%s must be Boolean, got %s" what (ty_name t)

let rec check_stmt ctx (s : Ast.stmt) =
  match s with
  | Ast.Skip -> ()
  | Ast.Var_decl (name, e) ->
    let t = infer ctx e in
    ctx.vars <- (name, t) :: ctx.vars
  | Ast.Assign (Ast.L_var name, e) -> (
    let t = infer ctx e in
    match List.assoc_opt name ctx.vars with
    | Some declared ->
      if not (compatible declared t) then
        err ctx "assigning %s to variable %s of type %s" (ty_name t) name
          (ty_name declared)
    | None -> ctx.vars <- (name, t) :: ctx.vars (* implicit declaration *))
  | Ast.Assign (Ast.L_attr (obj, attr), e) -> (
    let t = infer ctx e in
    match infer ctx obj with
    | T_obj (Some c) -> (
      match ctx.info.attr_type c attr with
      | Some declared ->
        if not (compatible declared t) then
          err ctx "assigning %s to %s.%s of type %s" (ty_name t) c attr
            (ty_name declared)
      | None -> err ctx "class %s has no attribute %s" c attr)
    | T_obj None | T_null -> ()
    | other -> err ctx "attribute assignment on non-object (%s)" (ty_name other))
  | Ast.Expr_stmt e ->
    let _t = infer ctx e in
    ()
  | Ast.If (cond, then_branch, else_branch) ->
    check_bool ctx "if condition" cond;
    check_block ctx then_branch;
    check_block ctx else_branch
  | Ast.While (cond, body) ->
    check_bool ctx "while condition" cond;
    check_block ctx body
  | Ast.For (name, low, high, body) ->
    let tl = infer ctx low in
    let th = infer ctx high in
    if not (equal_ty tl T_int) then
      err ctx "for lower bound must be Integer, got %s" (ty_name tl);
    if not (equal_ty th T_int) then
      err ctx "for upper bound must be Integer, got %s" (ty_name th);
    let saved = ctx.vars in
    ctx.vars <- (name, T_int) :: ctx.vars;
    check_block ctx body;
    ctx.vars <- saved
  | Ast.Return None -> ()
  | Ast.Return (Some e) ->
    let _t = infer ctx e in
    ()
  | Ast.Send (_signal, args, target) ->
    List.iter (fun a -> ignore (infer ctx a)) args;
    (match target with
     | None -> ()
     | Some t -> (
       match infer ctx t with
       | T_obj _ | T_null -> ()
       | other -> err ctx "send target must be an object, got %s" (ty_name other)))
  | Ast.Delete e -> (
    match infer ctx e with
    | T_obj _ | T_null -> ()
    | other -> err ctx "delete on non-object (%s)" (ty_name other))

and check_block ctx stmts =
  let saved = ctx.vars in
  List.iter (check_stmt ctx) stmts;
  ctx.vars <- saved

let make_ctx ?self_class ?(env = []) info =
  { info; self_class; vars = env; errors = [] }

let result_of ctx v =
  match List.rev ctx.errors with
  | [] -> Ok v
  | errs -> Error errs

let check_program ?self_class ?env info prog =
  let ctx = make_ctx ?self_class ?env info in
  List.iter (check_stmt ctx) prog;
  result_of ctx ()

let check_expression ?self_class ?env info e =
  let ctx = make_ctx ?self_class ?env info in
  let t = infer ctx e in
  result_of ctx t

let check_guard ?self_class ?env info e =
  let ctx = make_ctx ?self_class ?env info in
  check_bool ctx "guard" e;
  result_of ctx ()
