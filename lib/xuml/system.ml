open Uml

exception Xuml_error of string

let err fmt = Printf.ksprintf (fun m -> raise (Xuml_error m)) fmt

type t = {
  sys_model : Model.t;
  sys_store : Asl.Store.t;
  sys_interp : Asl.Interp.t;
  methods : (string * string, Asl.Interp.method_impl) Hashtbl.t;
  engines : (Asl.Value.obj_ref, Statechart.Engine.t) Hashtbl.t;
  mutable instances : (string * Asl.Value.obj_ref) list;  (** reverse *)
  mutable instance_counter : int;
  mutable message_log : (string option * string option * string) list;
      (** (sender, receiver, signal), reverse order *)
}

let model t = t.sys_model
let interp t = t.sys_interp
let store t = t.sys_store

(* --- class metadata -------------------------------------------------- *)

(* attributes including inherited ones; subclass declarations win *)
let all_attributes m (cl : Classifier.t) =
  let rec collect seen acc cl =
    let acc =
      List.fold_left
        (fun acc (p : Classifier.property) ->
          if List.mem_assoc p.Classifier.prop_name acc then acc
          else (p.Classifier.prop_name, p) :: acc)
        acc cl.Classifier.cl_attributes
    in
    List.fold_left
      (fun acc parent_id ->
        if Ident.Set.mem parent_id seen then acc
        else
          match Model.find_classifier m parent_id with
          | Some parent -> collect (Ident.Set.add parent_id seen) acc parent
          | None -> acc)
      acc cl.Classifier.cl_generals
  in
  List.rev (collect Ident.Set.empty [] cl)

let value_of_vspec = function
  | Vspec.Int_literal i -> Asl.Value.V_int i
  | Vspec.Real_literal r -> Asl.Value.V_real r
  | Vspec.Bool_literal b -> Asl.Value.V_bool b
  | Vspec.String_literal s -> Asl.Value.V_string s
  | Vspec.Enum_literal s -> Asl.Value.V_string s
  | Vspec.Null_literal -> Asl.Value.V_null
  | Vspec.Opaque_expression _ -> Asl.Value.V_null

let default_of_type = function
  | Dtype.Boolean -> Asl.Value.V_bool false
  | Dtype.Integer | Dtype.Unlimited_natural -> Asl.Value.V_int 0
  | Dtype.Real -> Asl.Value.V_real 0.0
  | Dtype.String_type -> Asl.Value.V_string ""
  | Dtype.Ref _ | Dtype.Void -> Asl.Value.V_null

let attr_defaults_of m class_name =
  match Model.classifier_named m class_name with
  | None -> []
  | Some cl ->
    List.map
      (fun (name, (p : Classifier.property)) ->
        let v =
          match p.Classifier.prop_default with
          | Some d -> value_of_vspec d
          | None -> default_of_type p.Classifier.prop_type
        in
        (name, v))
      (all_attributes m cl)

(* operation lookup including inherited ones; returns the owning class *)
let rec find_method m seen (cl : Classifier.t) op_name =
  match Classifier.find_operation cl op_name with
  | Some op -> Some (cl, op)
  | None ->
    List.find_map
      (fun parent_id ->
        if Ident.Set.mem parent_id seen then None
        else
          match Model.find_classifier m parent_id with
          | Some parent ->
            find_method m (Ident.Set.add parent_id seen) parent op_name
          | None -> None)
      cl.Classifier.cl_generals

(* --- construction ----------------------------------------------------- *)

let parse_methods m methods =
  List.iter
    (fun (cl : Classifier.t) ->
      List.iter
        (fun (op : Classifier.operation) ->
          match op.Classifier.op_body with
          | None -> ()
          | Some src -> (
            let prog = Asl.Compiled.program src in
            match Asl.Compiled.program_result prog with
            | Ok _ast ->
              let params =
                List.filter_map
                  (fun (p : Classifier.parameter) ->
                    if p.Classifier.param_direction = Classifier.Return then
                      None
                    else Some p.Classifier.param_name)
                  op.Classifier.op_params
              in
              Hashtbl.replace methods
                (cl.Classifier.cl_name, op.Classifier.op_name)
                (Asl.Interp.Body (Asl.Interp.body params prog))
            | Error msg ->
              err "operation %s.%s: %s" cl.Classifier.cl_name
                op.Classifier.op_name msg))
        cl.Classifier.cl_operations)
    (Model.classifiers m)

let create sys_model =
  let sys_store = Asl.Store.create () in
  let methods = Hashtbl.create 32 in
  parse_methods sys_model methods;
  let resolve class_name op_name =
    match Hashtbl.find_opt methods (class_name, op_name) with
    | Some impl -> Some impl
    | None -> (
      (* inherited implementation: the body is registered under the
         class that declares it *)
      match Model.classifier_named sys_model class_name with
      | None -> None
      | Some cl -> (
        match find_method sys_model Ident.Set.empty cl op_name with
        | Some (owner, _op) ->
          Hashtbl.find_opt methods (owner.Classifier.cl_name, op_name)
        | None -> None))
  in
  let attr_defaults name = attr_defaults_of sys_model name in
  let sys_interp = Asl.Interp.create ~resolve ~attr_defaults sys_store in
  {
    sys_model;
    sys_store;
    sys_interp;
    methods;
    engines = Hashtbl.create 8;
    instances = [];
    instance_counter = 0;
    message_log = [];
  }

(* --- signal routing ---------------------------------------------------- *)

let name_of_ref t r =
  List.find_map
    (fun (name, r') -> if r' = r then Some name else None)
    t.instances

let obj_name_opt t = function
  | Some r -> name_of_ref t r
  | None -> None

let log_message t ~sender ~receiver signal =
  let receiver_name =
    match receiver with
    | Some r -> name_of_ref t r
    | None -> obj_name_opt t sender
  in
  t.message_log <-
    (obj_name_opt t sender, receiver_name, signal) :: t.message_log

let deliver_signals t ~sender ~default_engine =
  let pending = Asl.Interp.drain_signals t.sys_interp in
  List.iter
    (fun (s : Asl.Interp.signal_out) ->
      let event = Statechart.Event.make ~args:s.Asl.Interp.sig_args s.Asl.Interp.sig_name in
      match s.Asl.Interp.sig_target with
      | Some (Asl.Value.V_obj r) -> (
        log_message t ~sender ~receiver:(Some r) s.Asl.Interp.sig_name;
        match Hashtbl.find_opt t.engines r with
        | Some engine -> Statechart.Engine.send engine event
        | None -> () (* signal to a passive object: dropped *))
      | Some _ | None -> (
        log_message t ~sender ~receiver:sender s.Asl.Interp.sig_name;
        match default_engine with
        | Some engine -> Statechart.Engine.send engine event
        | None -> ()))
    pending

let message_trace t = List.rev t.message_log
let clear_message_trace t = t.message_log <- []

(* --- instantiation ------------------------------------------------------ *)

let machine_of_class t (cl : Classifier.t) =
  List.find_map (Model.find_state_machine t.sys_model) cl.Classifier.cl_behaviors

let instantiate t class_name =
  match Model.classifier_named t.sys_model class_name with
  | None -> err "unknown class %s" class_name
  | Some cl ->
    let attrs = attr_defaults_of t.sys_model class_name in
    let r = Asl.Store.alloc t.sys_store ~class_name ~attrs in
    t.instance_counter <- t.instance_counter + 1;
    let name = Printf.sprintf "%s#%d" class_name t.instance_counter in
    t.instances <- (name, r) :: t.instances;
    (if cl.Classifier.cl_is_active then
       match machine_of_class t cl with
       | Some sm ->
         let engine =
           Statechart.Engine.create ~interp:t.sys_interp
             ~self_:(Asl.Value.V_obj r) sm
         in
         Hashtbl.replace t.engines r engine;
         Statechart.Engine.start engine;
         deliver_signals t ~sender:(Some r) ~default_engine:(Some engine)
       | None -> ());
    r

let objects t = List.rev t.instances

let object_of_name t name =
  List.assoc_opt name t.instances

let engine_of t r = Hashtbl.find_opt t.engines r

let send t ?(args = []) ~to_ name =
  match Hashtbl.find_opt t.engines to_ with
  | Some engine -> Statechart.Engine.send engine (Statechart.Event.make ~args name)
  | None -> err "object has no state machine"

let call t ~self_ op_name args =
  let class_name =
    match Asl.Store.class_of t.sys_store self_ with
    | Some c -> c
    | None -> err "call on dead object"
  in
  let expr =
    Asl.Ast.Call
      (Some Asl.Ast.Self, op_name, List.mapi (fun i _ -> Asl.Ast.Var (Printf.sprintf "__a%d" i)) args)
  in
  let params = List.mapi (fun i v -> (Printf.sprintf "__a%d" i, v)) args in
  let _ = class_name in
  match
    Asl.Interp.eval ~self_:(Asl.Value.V_obj self_) ~params t.sys_interp expr
  with
  | v ->
    deliver_signals t ~sender:(Some self_) ~default_engine:(engine_of t self_);
    v
  | exception Asl.Interp.Runtime_error m -> err "call %s failed: %s" op_name m

(* --- system scheduler ----------------------------------------------------- *)

let run ?(max_rounds = 1000) t =
  let total = ref 0 in
  let rec round n =
    if n >= max_rounds then err "system did not quiesce after %d rounds" n;
    let worked = ref false in
    (* Step engines in instance-creation order.  [Hashtbl.iter] over
       [t.engines] would let the bucket layout pick the interleaving,
       and engine steps have cross-object effects (signal delivery, the
       message log, final configurations) — so the trace, not just its
       presentation, would depend on table internals. *)
    List.iter
      (fun (_name, r) ->
        match Hashtbl.find_opt t.engines r with
        | None -> () (* passive object *)
        | Some engine ->
          let steps = Statechart.Engine.run_to_quiescence engine in
          if steps > 0 then begin
            worked := true;
            total := !total + steps;
            deliver_signals t ~sender:(Some r) ~default_engine:(Some engine)
          end)
      (List.rev t.instances);
    if !worked then round (n + 1)
  in
  round 0;
  !total

let configuration t =
  List.filter_map
    (fun (name, r) ->
      match engine_of t r with
      | Some engine -> Some (name, Statechart.Engine.signature engine)
      | None -> None)
    (objects t)

let output t = Asl.Interp.output t.sys_interp
