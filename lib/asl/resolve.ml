exception Runtime_error of string

type signal_out = {
  sig_name : string;
  sig_args : Value.t list;
  sig_target : Value.t option;
}

type ctx = {
  store : Store.t;
  methods : string -> string -> method_impl option;
  attr_defaults : string -> (string * Value.t) list;
  initial_fuel : int;
  mutable fuel : int;
  mutable signals : signal_out list;  (** reverse order *)
  mutable out_lines : string list;  (** reverse order *)
  metrics : Telemetry.Metrics.t;
  m_stmts : Telemetry.Metrics.counter;
  m_reads : Telemetry.Metrics.counter;
  m_writes : Telemetry.Metrics.counter;
}

and method_impl =
  | Builtin of (ctx -> self:Value.t -> Value.t list -> Value.t)
  | Body of body

and body = {
  b_params : int array;  (** slot of each parameter, declaration order *)
  b_program : program;
}

(* The locals of one run: one slot per name of the body (the flat-frame
   rule: a name declared anywhere in the body is one variable). *)
and frame = {
  ctx : ctx;
  slots : Value.t array;
  self_ : Value.t;
}

and 'a handle = {
  h_size : int;
  h_names : string array;  (** slot -> name *)
  h_event : int;  (** slot of [event], or -1 *)
  h_args : (int * int) list;
      (** (argument index, slot) of each [e<i>] the body names, by index *)
  h_code : frame -> 'a;
}

and program = unit handle

type guard = Value.t handle

(* [Return] unwinds to the run or call that owns the frame. *)
exception Returning of Value.t option

let fail fmt = Printf.ksprintf (fun m -> raise (Runtime_error m)) fmt

(* Marks a slot no statement has written yet.  A fresh block, so no
   value a program computes is physically equal to it, and reads check
   for it before a value leaves its slot. *)
let unbound = Value.V_string (String.make 1 '?')

let[@inline] tick c =
  if c.fuel <= 0 then
    raise (Runtime_error "out of fuel (non-terminating model behavior?)");
  c.fuel <- c.fuel - 1

(* Booleans are two constants: a comparison allocates nothing. *)
let of_bool b = if b then Value.V_bool true else Value.V_bool false

let as_int = function
  | Value.V_int i -> i
  | v -> fail "expected Integer, got %s" (Value.type_name v)

let as_bool = function
  | Value.V_bool b -> b
  | v -> fail "expected Boolean, got %s" (Value.type_name v)

let as_obj c = function
  | Value.V_obj r ->
    if Store.is_alive c.store r then r else fail "access to deleted object"
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

let binop op v1 v2 =
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
  | Ast.Eq -> of_bool (value_eq v1 v2)
  | Ast.Ne -> of_bool (not (value_eq v1 v2))
  | Ast.Lt -> of_bool (cmp2 "<" v1 v2 < 0)
  | Ast.Le -> of_bool (cmp2 "<=" v1 v2 <= 0)
  | Ast.Gt -> of_bool (cmp2 ">" v1 v2 > 0)
  | Ast.Ge -> of_bool (cmp2 ">=" v1 v2 >= 0)
  | Ast.And | Ast.Or -> assert false (* short-circuit, compiled apart *)

(* --- slots ---------------------------------------------------------- *)

(* Names get slots in order of first occurrence. *)
type scope = {
  table : (string, int) Hashtbl.t;
  mutable order : string list;  (** reverse *)
}

let slot_of sc name =
  match Hashtbl.find_opt sc.table name with
  | Some i -> i
  | None ->
    let i = Hashtbl.length sc.table in
    Hashtbl.add sc.table name i;
    sc.order <- name :: sc.order;
    i

(* [e<n>] with n >= 1 written without leading zeros binds the n-th
   event argument; the statechart engine names its arguments so. *)
let event_arg_index name =
  let n = String.length name in
  if n >= 2 && name.[0] = 'e' && name.[1] <> '0' then
    let digits = String.sub name 1 (n - 1) in
    if String.for_all (fun ch -> ch >= '0' && ch <= '9') digits then
      Option.map pred (int_of_string_opt digits)
    else None
  else None

(* Slot [i] is the [i]-th name met. *)
let finish sc code =
  let names = Array.of_list (List.rev sc.order) in
  let args = ref [] in
  Array.iteri
    (fun slot name ->
      match event_arg_index name with
      | Some i -> args := (i, slot) :: !args
      | None -> ())
    names;
  {
    h_size = Array.length names;
    h_names = names;
    h_event =
      (match Hashtbl.find_opt sc.table "event" with
       | Some slot -> slot
       | None -> -1);
    h_args = List.sort compare !args;
    h_code = code;
  }

(* --- closure compiler ----------------------------------------------- *)

let new_frame ctx self_ h = { ctx; slots = Array.make h.h_size unbound; self_ }

let rec expr sc (e : Ast.expr) : frame -> Value.t =
  match e with
  | Ast.Int_lit i ->
    let v = Value.V_int i in
    fun fr ->
      tick fr.ctx;
      v
  | Ast.Real_lit r ->
    let v = Value.V_real r in
    fun fr ->
      tick fr.ctx;
      v
  | Ast.Bool_lit b ->
    let v = Value.V_bool b in
    fun fr ->
      tick fr.ctx;
      v
  | Ast.String_lit s ->
    let v = Value.V_string s in
    fun fr ->
      tick fr.ctx;
      v
  | Ast.Null_lit ->
    fun fr ->
      tick fr.ctx;
      Value.V_null
  | Ast.Self ->
    fun fr ->
      tick fr.ctx;
      fr.self_
  | Ast.Var name ->
    let i = slot_of sc name in
    fun fr ->
      tick fr.ctx;
      let v = Array.unsafe_get fr.slots i in
      if v == unbound then fail "unbound variable %s" name else v
  | Ast.New class_name ->
    fun fr ->
      let c = fr.ctx in
      tick c;
      let attrs = c.attr_defaults class_name in
      Value.V_obj (Store.alloc c.store ~class_name ~attrs)
  | Ast.Attr (obj_e, attr) -> (
    let obj = expr sc obj_e in
    fun fr ->
      let c = fr.ctx in
      tick c;
      let r = as_obj c (obj fr) in
      if Telemetry.Metrics.live c.metrics then Telemetry.Metrics.incr c.m_reads;
      match Store.get_attr c.store r attr with
      | Some v -> v
      | None -> fail "object has no attribute %s" attr)
  | Ast.Unop (Ast.Neg, e1) -> (
    let a = expr sc e1 in
    fun fr ->
      tick fr.ctx;
      match a fr with
      | Value.V_int i -> Value.V_int (-i)
      | Value.V_real r -> Value.V_real (-.r)
      | v -> fail "unary minus on %s" (Value.type_name v))
  | Ast.Unop (Ast.Not, e1) ->
    let a = expr sc e1 in
    fun fr ->
      tick fr.ctx;
      of_bool (not (as_bool (a fr)))
  | Ast.Binop (Ast.And, e1, e2) ->
    let a = expr sc e1 in
    let b = expr sc e2 in
    fun fr ->
      tick fr.ctx;
      if as_bool (a fr) then of_bool (as_bool (b fr))
      else Value.V_bool false
  | Ast.Binop (Ast.Or, e1, e2) ->
    let a = expr sc e1 in
    let b = expr sc e2 in
    fun fr ->
      tick fr.ctx;
      if as_bool (a fr) then Value.V_bool true
      else of_bool (as_bool (b fr))
  | Ast.Binop (op, e1, e2) ->
    let a = expr sc e1 in
    let b = expr sc e2 in
    fun fr ->
      tick fr.ctx;
      let v1 = a fr in
      let v2 = b fr in
      binop op v1 v2
  | Ast.Call (recv, name, args) -> call sc recv name args

(* Arguments are evaluated left to right, then the receiver.  A builtin
   name applies only to arguments of its types; anything else is an
   operation call on the receiver (or [self]). *)
and call sc recv name args =
  let args = List.map (expr sc) args in
  let recv = Option.map (expr sc) recv in
  let eval_args fr = List.map (fun a -> a fr) args in
  let operation fr arg_values =
    let self_value =
      match recv with
      | None -> fr.self_
      | Some r -> r fr
    in
    invoke fr.ctx self_value name arg_values
  in
  match recv, name, args with
  | None, "abs", [ _ ] -> (
    fun fr ->
      tick fr.ctx;
      match eval_args fr with
      | [ Value.V_int i ] -> Value.V_int (abs i)
      | [ Value.V_real r ] -> Value.V_real (Float.abs r)
      | arg_values -> operation fr arg_values)
  | None, "min", [ _; _ ] -> (
    fun fr ->
      tick fr.ctx;
      match eval_args fr with
      | [ v1; v2 ] -> if cmp2 "min" v1 v2 <= 0 then v1 else v2
      | arg_values -> operation fr arg_values)
  | None, "max", [ _; _ ] -> (
    fun fr ->
      tick fr.ctx;
      match eval_args fr with
      | [ v1; v2 ] -> if cmp2 "max" v1 v2 >= 0 then v1 else v2
      | arg_values -> operation fr arg_values)
  | None, "to_string", [ a ] ->
    fun fr ->
      tick fr.ctx;
      Value.V_string (Value.to_string (a fr))
  | None, "print", [ a ] ->
    fun fr ->
      let c = fr.ctx in
      tick c;
      let v = a fr in
      c.out_lines <- Value.to_string v :: c.out_lines;
      Value.V_null
  | (None | Some _), _name, _args ->
    fun fr ->
      tick fr.ctx;
      operation fr (eval_args fr)

and invoke c self_value name arg_values =
  let class_name =
    match self_value with
    | Value.V_obj r -> (
      match Store.class_of c.store r with
      | Some cl -> cl
      | None -> fail "operation call on deleted object")
    | v -> fail "operation call on %s" (Value.type_name v)
  in
  match c.methods class_name name with
  | None -> fail "class %s has no operation %s" class_name name
  | Some (Builtin f) -> f c ~self:self_value arg_values
  | Some (Body b) ->
    let expected = Array.length b.b_params in
    let got = List.length arg_values in
    if expected <> got then
      fail "operation %s.%s expects %d arguments, got %d" class_name name
        expected got;
    let callee = new_frame c self_value b.b_program in
    List.iteri (fun i v -> callee.slots.(b.b_params.(i)) <- v) arg_values;
    (match b.b_program.h_code callee with
     | () -> Value.V_null
     | exception Returning v -> (
       match v with
       | Some v -> v
       | None -> Value.V_null))

(* Every statement costs one unit of fuel and counts once. *)
let[@inline] enter fr =
  let c = fr.ctx in
  tick c;
  if Telemetry.Metrics.live c.metrics then Telemetry.Metrics.incr c.m_stmts

let rec block sc stmts =
  match List.map (stmt sc) stmts with
  | [] -> fun _fr -> ()
  | [ s ] -> s
  | [ s1; s2 ] ->
    fun fr ->
      s1 fr;
      s2 fr
  | codes ->
    let codes = Array.of_list codes in
    fun fr ->
      for k = 0 to Array.length codes - 1 do
        (Array.unsafe_get codes k) fr
      done

and stmt sc (s : Ast.stmt) : frame -> unit =
  match s with
  | Ast.Skip -> enter
  | Ast.Var_decl (name, e) | Ast.Assign (Ast.L_var name, e) ->
    let i = slot_of sc name in
    let value = expr sc e in
    fun fr ->
      enter fr;
      Array.unsafe_set fr.slots i (value fr)
  | Ast.Assign (Ast.L_attr (obj_e, attr), e) ->
    let obj = expr sc obj_e in
    let value = expr sc e in
    fun fr ->
      enter fr;
      let c = fr.ctx in
      let r = as_obj c (obj fr) in
      let v = value fr in
      if Telemetry.Metrics.live c.metrics then Telemetry.Metrics.incr c.m_writes;
      if not (Store.set_attr c.store r attr v) then
        fail "attribute write on deleted object"
  | Ast.Expr_stmt e ->
    let value = expr sc e in
    fun fr ->
      enter fr;
      let _v = value fr in
      ()
  | Ast.If (cond, then_branch, else_branch) ->
    let cond = expr sc cond in
    let then_ = block sc then_branch in
    let else_ = block sc else_branch in
    fun fr ->
      enter fr;
      if as_bool (cond fr) then then_ fr else else_ fr
  | Ast.While (cond, body) ->
    let cond = expr sc cond in
    let body = block sc body in
    fun fr ->
      enter fr;
      let c = fr.ctx in
      let rec loop () =
        tick c;
        if as_bool (cond fr) then begin
          body fr;
          loop ()
        end
      in
      loop ()
  | Ast.For (name, low, high, body) ->
    let i = slot_of sc name in
    let low = expr sc low in
    let high = expr sc high in
    let body = block sc body in
    fun fr ->
      enter fr;
      let c = fr.ctx in
      let lo = as_int (low fr) in
      let hi = as_int (high fr) in
      let rec loop n =
        if n <= hi then begin
          tick c;
          Array.unsafe_set fr.slots i (Value.V_int n);
          body fr;
          loop (n + 1)
        end
      in
      loop lo
  | Ast.Return None ->
    fun fr ->
      enter fr;
      raise (Returning None)
  | Ast.Return (Some e) ->
    let value = expr sc e in
    fun fr ->
      enter fr;
      raise (Returning (Some (value fr)))
  | Ast.Send (signal, args, target) ->
    let args = List.map (expr sc) args in
    let target = Option.map (expr sc) target in
    fun fr ->
      enter fr;
      let c = fr.ctx in
      let sig_args = List.map (fun a -> a fr) args in
      let sig_target = Option.map (fun t -> t fr) target in
      c.signals <- { sig_name = signal; sig_args; sig_target } :: c.signals
  | Ast.Delete e ->
    let obj = expr sc e in
    fun fr ->
      enter fr;
      let c = fr.ctx in
      let r = as_obj c (obj fr) in
      let _was_alive = Store.delete c.store r in
      ()

let new_scope () = { table = Hashtbl.create 8; order = [] }

let program prog =
  let sc = new_scope () in
  let code = block sc prog in
  finish sc code

let guard e =
  let sc = new_scope () in
  let code = expr sc e in
  finish sc code

let slot h name =
  let rec find i =
    if i >= Array.length h.h_names then -1
    else if String.equal h.h_names.(i) name then i
    else find (i + 1)
  in
  find 0

(* A parameter the body never names gets a scratch slot past the
   frame's end: [Body] calls write every argument somewhere. *)
let body params prog =
  let extra = ref prog.h_size in
  let b_params =
    Array.of_list
      (List.map
         (fun p ->
           match slot prog p with
           | -1 ->
             let i = !extra in
             incr extra;
             i
           | i -> i)
         params)
  in
  { b_params; b_program = { prog with h_size = !extra } }

(* --- runs ------------------------------------------------------------ *)

let bind_named fr h params =
  List.iter
    (fun (name, v) ->
      match slot h name with
      | -1 -> ()
      | i -> fr.slots.(i) <- v)
    params

let bind_event fr h ~event ~args =
  if h.h_event >= 0 then fr.slots.(h.h_event) <- Value.V_string event;
  let rec go pos args wanted =
    match wanted, args with
    | [], _ | _, [] -> ()
    | (i, s) :: rest, v :: more ->
      if i = pos then begin
        fr.slots.(s) <- v;
        go (pos + 1) more rest
      end
      else go (pos + 1) more wanted
  in
  go 0 args h.h_args

let exec fr (h : program) =
  match h.h_code fr with
  | () -> None
  | exception Returning v -> v

let eval fr (h : guard) = h.h_code fr
