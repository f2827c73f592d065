(* Reference oracle for the [reference] differential suite in
   [test_asl]: the tree-walking interpreter that [Asl.Resolve]'s
   slot-resolved closures replaced, kept verbatim bar module paths.  It
   looks every local up in a [Hashtbl] frame by name and walks the AST
   on every run, so it fixes what the compiled code must do node for
   node: results, store effects, signals, [print] lines, the fuel spent
   before any error (and so the point where fuel runs out), and the
   [asl.*] counters. *)

module Ast = Asl.Ast
module Store = Asl.Store
module Value = Asl.Value

exception Runtime_error = Asl.Interp.Runtime_error

type signal_out = Asl.Interp.signal_out = {
  sig_name : string;
  sig_args : Value.t list;
  sig_target : Value.t option;
}

type method_impl =
  | Builtin of (t -> self:Value.t -> Value.t list -> Value.t)
  | Body of string list * Ast.program

and t = {
  istore : Store.t;
  resolve : string -> string -> method_impl option;
  attr_defaults : string -> (string * Value.t) list;
  initial_fuel : int;
  mutable fuel : int;
  mutable signals : signal_out list;  (** reverse order *)
  mutable out_lines : string list;  (** reverse order *)
  i_metrics : Telemetry.Metrics.t;
  m_stmts : Telemetry.Metrics.counter;
  m_reads : Telemetry.Metrics.counter;
  m_writes : Telemetry.Metrics.counter;
}

(* A frame: local variables of one body execution.  [Return] is
   implemented with an exception carrying the value. *)
exception Returning of Value.t option

type frame = {
  locals : (string, Value.t) Hashtbl.t;
  self_ : Value.t;
}

let fail fmt = Printf.ksprintf (fun m -> raise (Runtime_error m)) fmt

let create ?(fuel = 1_000_000) ?resolve ?attr_defaults
    ?(metrics = Telemetry.Metrics.null) istore =
  let resolve =
    match resolve with
    | Some r -> r
    | None -> fun _class _op -> None
  in
  let attr_defaults =
    match attr_defaults with
    | Some f -> f
    | None -> fun _class -> []
  in
  {
    istore;
    resolve;
    attr_defaults;
    initial_fuel = fuel;
    fuel;
    signals = [];
    out_lines = [];
    i_metrics = metrics;
    m_stmts = Telemetry.Metrics.counter metrics "asl.statements";
    m_reads = Telemetry.Metrics.counter metrics "asl.store_reads";
    m_writes = Telemetry.Metrics.counter metrics "asl.store_writes";
  }

let store t = t.istore
let metrics t = t.i_metrics

let tick t =
  if t.fuel <= 0 then fail "out of fuel (non-terminating model behavior?)";
  t.fuel <- t.fuel - 1

let as_int = function
  | Value.V_int i -> i
  | v -> fail "expected Integer, got %s" (Value.type_name v)

let as_bool = function
  | Value.V_bool b -> b
  | v -> fail "expected Boolean, got %s" (Value.type_name v)

let as_obj t = function
  | Value.V_obj r ->
    if Store.is_alive t.istore r then r else fail "access to deleted object"
  | v -> fail "expected an object, got %s" (Value.type_name v)

let num2 name v1 v2 int_case real_case =
  match v1, v2 with
  | Value.V_int a, Value.V_int b -> Value.V_int (int_case a b)
  | Value.V_int a, Value.V_real b -> Value.V_real (real_case (float_of_int a) b)
  | Value.V_real a, Value.V_int b -> Value.V_real (real_case a (float_of_int b))
  | Value.V_real a, Value.V_real b -> Value.V_real (real_case a b)
  | v1, v2 ->
    fail "arithmetic %s on %s and %s" name (Value.type_name v1)
      (Value.type_name v2)

let cmp2 name v1 v2 =
  match v1, v2 with
  | Value.V_int a, Value.V_int b -> compare a b
  | Value.V_real a, Value.V_real b -> compare a b
  | Value.V_int a, Value.V_real b -> compare (float_of_int a) b
  | Value.V_real a, Value.V_int b -> compare a (float_of_int b)
  | Value.V_string a, Value.V_string b -> String.compare a b
  | v1, v2 ->
    fail "ordering %s on %s and %s" name (Value.type_name v1)
      (Value.type_name v2)

let value_eq v1 v2 =
  match v1, v2 with
  | Value.V_int a, Value.V_real b -> float_of_int a = b
  | Value.V_real a, Value.V_int b -> a = float_of_int b
  | v1, v2 -> Value.equal v1 v2

let rec eval_expr t frame (e : Ast.expr) : Value.t =
  tick t;
  match e with
  | Ast.Int_lit i -> Value.V_int i
  | Ast.Real_lit r -> Value.V_real r
  | Ast.Bool_lit b -> Value.V_bool b
  | Ast.String_lit s -> Value.V_string s
  | Ast.Null_lit -> Value.V_null
  | Ast.Self -> frame.self_
  | Ast.Var name -> (
    match Hashtbl.find_opt frame.locals name with
    | Some v -> v
    | None -> fail "unbound variable %s" name)
  | Ast.New class_name ->
    let attrs = t.attr_defaults class_name in
    Value.V_obj (Store.alloc t.istore ~class_name ~attrs)
  | Ast.Attr (obj_e, attr) -> (
    let r = as_obj t (eval_expr t frame obj_e) in
    Telemetry.Metrics.incr t.m_reads;
    match Store.get_attr t.istore r attr with
    | Some v -> v
    | None -> fail "object has no attribute %s" attr)
  | Ast.Unop (Ast.Neg, e1) -> (
    match eval_expr t frame e1 with
    | Value.V_int i -> Value.V_int (-i)
    | Value.V_real r -> Value.V_real (-.r)
    | v -> fail "unary minus on %s" (Value.type_name v))
  | Ast.Unop (Ast.Not, e1) ->
    Value.V_bool (not (as_bool (eval_expr t frame e1)))
  | Ast.Binop (Ast.And, e1, e2) ->
    (* short-circuit *)
    if as_bool (eval_expr t frame e1) then
      Value.V_bool (as_bool (eval_expr t frame e2))
    else Value.V_bool false
  | Ast.Binop (Ast.Or, e1, e2) ->
    if as_bool (eval_expr t frame e1) then Value.V_bool true
    else Value.V_bool (as_bool (eval_expr t frame e2))
  | Ast.Binop (op, e1, e2) ->
    let v1 = eval_expr t frame e1 in
    let v2 = eval_expr t frame e2 in
    eval_binop t op v1 v2
  | Ast.Call (recv, name, args) -> eval_call t frame recv name args

and eval_binop _t op v1 v2 =
  match op with
  | Ast.Add -> num2 "+" v1 v2 ( + ) ( +. )
  | Ast.Sub -> num2 "-" v1 v2 ( - ) ( -. )
  | Ast.Mul -> num2 "*" v1 v2 ( * ) ( *. )
  | Ast.Div -> (
    match v1, v2 with
    | _any, Value.V_int 0 -> fail "division by zero"
    | _any, Value.V_real 0. -> fail "division by zero"
    | v1, v2 -> num2 "/" v1 v2 ( / ) ( /. ))
  | Ast.Mod -> (
    match v1, v2 with
    | Value.V_int _, Value.V_int 0 -> fail "modulo by zero"
    | Value.V_int a, Value.V_int b -> Value.V_int (((a mod b) + b) mod b)
    | v1, v2 ->
      fail "mod on %s and %s" (Value.type_name v1) (Value.type_name v2))
  | Ast.Concat -> Value.V_string (Value.to_string v1 ^ Value.to_string v2)
  | Ast.Eq -> Value.V_bool (value_eq v1 v2)
  | Ast.Ne -> Value.V_bool (not (value_eq v1 v2))
  | Ast.Lt -> Value.V_bool (cmp2 "<" v1 v2 < 0)
  | Ast.Le -> Value.V_bool (cmp2 "<=" v1 v2 <= 0)
  | Ast.Gt -> Value.V_bool (cmp2 ">" v1 v2 > 0)
  | Ast.Ge -> Value.V_bool (cmp2 ">=" v1 v2 >= 0)
  | Ast.And | Ast.Or -> assert false (* handled in eval_expr *)

and eval_call t frame recv name args =
  let arg_values = List.map (eval_expr t frame) args in
  match recv, name, arg_values with
  | None, "abs", [ Value.V_int i ] -> Value.V_int (abs i)
  | None, "abs", [ Value.V_real r ] -> Value.V_real (Float.abs r)
  | None, "min", [ v1; v2 ] -> if cmp2 "min" v1 v2 <= 0 then v1 else v2
  | None, "max", [ v1; v2 ] -> if cmp2 "max" v1 v2 >= 0 then v1 else v2
  | None, "to_string", [ v ] -> Value.V_string (Value.to_string v)
  | None, "print", [ v ] ->
    t.out_lines <- Value.to_string v :: t.out_lines;
    Value.V_null
  | _other ->
    let self_value =
      match recv with
      | None -> frame.self_
      | Some r -> eval_expr t frame r
    in
    let class_name =
      match self_value with
      | Value.V_obj r -> (
        match Store.class_of t.istore r with
        | Some c -> c
        | None -> fail "operation call on deleted object")
      | v -> fail "operation call on %s" (Value.type_name v)
    in
    (match t.resolve class_name name with
     | None -> fail "class %s has no operation %s" class_name name
     | Some (Builtin f) -> f t ~self:self_value arg_values
     | Some (Body (param_names, body)) ->
       if List.length param_names <> List.length arg_values then
         fail "operation %s.%s expects %d arguments, got %d" class_name name
           (List.length param_names) (List.length arg_values);
       let locals = Hashtbl.create 8 in
       List.iter2
         (fun p v -> Hashtbl.replace locals p v)
         param_names arg_values;
       let callee = { locals; self_ = self_value } in
       (match exec_block t callee body with
        | () -> Value.V_null
        | exception Returning v -> (
          match v with
          | Some v -> v
          | None -> Value.V_null)))

and exec_block t frame stmts = List.iter (exec_stmt t frame) stmts

and exec_stmt t frame (s : Ast.stmt) =
  tick t;
  Telemetry.Metrics.incr t.m_stmts;
  match s with
  | Ast.Skip -> ()
  | Ast.Var_decl (name, e) ->
    Hashtbl.replace frame.locals name (eval_expr t frame e)
  | Ast.Assign (Ast.L_var name, e) ->
    Hashtbl.replace frame.locals name (eval_expr t frame e)
  | Ast.Assign (Ast.L_attr (obj_e, attr), e) ->
    let r = as_obj t (eval_expr t frame obj_e) in
    let v = eval_expr t frame e in
    Telemetry.Metrics.incr t.m_writes;
    if not (Store.set_attr t.istore r attr v) then
      fail "attribute write on deleted object"
  | Ast.Expr_stmt e ->
    let _v = eval_expr t frame e in
    ()
  | Ast.If (cond, then_branch, else_branch) ->
    if as_bool (eval_expr t frame cond) then exec_block t frame then_branch
    else exec_block t frame else_branch
  | Ast.While (cond, body) ->
    let rec loop () =
      tick t;
      if as_bool (eval_expr t frame cond) then begin
        exec_block t frame body;
        loop ()
      end
    in
    loop ()
  | Ast.For (name, low, high, body) ->
    let lo = as_int (eval_expr t frame low) in
    let hi = as_int (eval_expr t frame high) in
    let rec loop i =
      if i <= hi then begin
        tick t;
        Hashtbl.replace frame.locals name (Value.V_int i);
        exec_block t frame body;
        loop (i + 1)
      end
    in
    loop lo
  | Ast.Return None -> raise (Returning None)
  | Ast.Return (Some e) -> raise (Returning (Some (eval_expr t frame e)))
  | Ast.Send (signal, args, target) ->
    let arg_values = List.map (eval_expr t frame) args in
    let target_value =
      match target with
      | None -> None
      | Some e -> Some (eval_expr t frame e)
    in
    t.signals <-
      { sig_name = signal; sig_args = arg_values; sig_target = target_value }
      :: t.signals
  | Ast.Delete e ->
    let r = as_obj t (eval_expr t frame e) in
    let _was_alive = Store.delete t.istore r in
    ()

let make_frame ?(self_ = Value.V_null) ?(params = []) () =
  let locals = Hashtbl.create 8 in
  List.iter (fun (k, v) -> Hashtbl.replace locals k v) params;
  { locals; self_ }

let run ?self_ ?params t prog =
  t.fuel <- t.initial_fuel;
  let frame = make_frame ?self_ ?params () in
  match exec_block t frame prog with
  | () -> None
  | exception Returning v -> v

let run_source ?self_ ?params t src =
  match Asl.Compiled.program_result (Asl.Compiled.program src) with
  | Ok p -> run ?self_ ?params t p
  | Error m -> raise (Runtime_error m)

let eval ?self_ ?params t e =
  t.fuel <- t.initial_fuel;
  let frame = make_frame ?self_ ?params () in
  eval_expr t frame e

let eval_guard ?self_ ?params t src =
  match Asl.Compiled.guard_result (Asl.Compiled.guard src) with
  | Ok e -> as_bool (eval ?self_ ?params t e)
  | Error m -> raise (Runtime_error m)

let drain_signals t =
  let out = List.rev t.signals in
  t.signals <- [];
  out

let output t = List.rev t.out_lines
