open Uml

let sanitize = Hdl_text.sanitize

let function_name ~class_name ~op = sanitize class_name ^ "_" ^ sanitize op

let c_type (ty : Dtype.t) =
  match ty with
  | Dtype.Boolean | Dtype.Integer | Dtype.Unlimited_natural -> "int"
  | Dtype.Real -> "double"
  | Dtype.String_type -> "const char *"
  | Dtype.Void -> "void"
  | Dtype.Ref _ -> "void *" (* refined below when the class is known *)

let c_type_in m (ty : Dtype.t) =
  match ty with
  | Dtype.Ref id -> (
    match Model.find_classifier m id with
    | Some cl -> Printf.sprintf "struct %s *" (sanitize cl.Classifier.cl_name)
    | None -> "void *")
  | Dtype.Boolean | Dtype.Integer | Dtype.Unlimited_natural | Dtype.Real
  | Dtype.String_type | Dtype.Void ->
    c_type ty

let default_value (ty : Dtype.t) (v : Vspec.t option) =
  match v with
  | Some (Vspec.Int_literal i) -> string_of_int i
  | Some (Vspec.Real_literal r) -> string_of_float r
  | Some (Vspec.Bool_literal b) -> if b then "1" else "0"
  | Some (Vspec.String_literal s) -> Printf.sprintf "%S" s
  | Some (Vspec.Enum_literal s) -> sanitize s
  | Some Vspec.Null_literal -> "0"
  | Some (Vspec.Opaque_expression _) | None -> (
    match ty with
    | Dtype.Real -> "0.0"
    | Dtype.String_type -> "\"\""
    | Dtype.Ref _ -> "0"
    | Dtype.Boolean | Dtype.Integer | Dtype.Unlimited_natural | Dtype.Void ->
      "0")

(* --- expression translation ------------------------------------------ *)

exception Untranslatable of string

let untranslatable fmt =
  Printf.ksprintf (fun m -> raise (Untranslatable m)) fmt

type env = {
  info : Asl.Typecheck.class_info;
  self_class : string option;
  mutable var_classes : (string * string) list;  (** var -> class name *)
}

(* Best-effort receiver class of an expression for call dispatch. *)
let rec receiver_class env (e : Asl.Ast.expr) =
  match e with
  | Asl.Ast.Self -> env.self_class
  | Asl.Ast.Var name -> List.assoc_opt name env.var_classes
  | Asl.Ast.New cname -> Some cname
  | Asl.Ast.Attr (obj, attr) -> (
    match receiver_class env obj with
    | None -> None
    | Some c -> (
      match env.info.Asl.Typecheck.attr_type c attr with
      | Some (Asl.Typecheck.T_obj (Some c')) -> Some c'
      | Some _ | None -> None))
  | Asl.Ast.Call _ | Asl.Ast.Int_lit _ | Asl.Ast.Real_lit _
  | Asl.Ast.Bool_lit _ | Asl.Ast.String_lit _ | Asl.Ast.Null_lit
  | Asl.Ast.Unop _ | Asl.Ast.Binop _ ->
    None

let binop_c = function
  | Asl.Ast.Add -> "+"
  | Asl.Ast.Sub -> "-"
  | Asl.Ast.Mul -> "*"
  | Asl.Ast.Div -> "/"
  | Asl.Ast.Mod -> "%"
  | Asl.Ast.Eq -> "=="
  | Asl.Ast.Ne -> "!="
  | Asl.Ast.Lt -> "<"
  | Asl.Ast.Le -> "<="
  | Asl.Ast.Gt -> ">"
  | Asl.Ast.Ge -> ">="
  | Asl.Ast.And -> "&&"
  | Asl.Ast.Or -> "||"
  | Asl.Ast.Concat -> untranslatable "string concatenation"

let rec expr_c env (e : Asl.Ast.expr) =
  match e with
  | Asl.Ast.Int_lit i -> string_of_int i
  | Asl.Ast.Real_lit r -> string_of_float r
  | Asl.Ast.Bool_lit b -> if b then "1" else "0"
  | Asl.Ast.String_lit s -> Printf.sprintf "%S" s
  | Asl.Ast.Null_lit -> "0"
  | Asl.Ast.Self -> "self"
  | Asl.Ast.Var name -> sanitize name
  | Asl.Ast.Attr (obj, attr) ->
    Printf.sprintf "%s->%s" (expr_c env obj) (sanitize attr)
  | Asl.Ast.Unop (Asl.Ast.Neg, e1) -> Printf.sprintf "(-%s)" (expr_c env e1)
  | Asl.Ast.Unop (Asl.Ast.Not, e1) -> Printf.sprintf "(!%s)" (expr_c env e1)
  | Asl.Ast.Binop (op, e1, e2) ->
    Printf.sprintf "(%s %s %s)" (expr_c env e1) (binop_c op) (expr_c env e2)
  | Asl.Ast.New cname ->
    Printf.sprintf "%s_new()" (sanitize cname)
  | Asl.Ast.Call (recv, name, args) -> call_c env recv name args

and call_c env recv name args =
  let args_c = List.map (expr_c env) args in
  match recv, name, args_c with
  | None, "abs", [ a ] -> Printf.sprintf "abs(%s)" a
  | None, "min", [ a; b ] -> Printf.sprintf "((%s) < (%s) ? (%s) : (%s))" a b a b
  | None, "max", [ a; b ] -> Printf.sprintf "((%s) > (%s) ? (%s) : (%s))" a b a b
  | None, "print", [ a ] -> Printf.sprintf "printf(\"%%d\\n\", (int)(%s))" a
  | None, "to_string", [ _a ] -> untranslatable "to_string"
  | _other -> (
    let receiver_code, cls =
      match recv with
      | None -> ("self", env.self_class)
      | Some r -> (expr_c env r, receiver_class env r)
    in
    match cls with
    | None -> untranslatable "call %s on receiver of unknown class" name
    | Some c ->
      Printf.sprintf "%s(%s%s)"
        (function_name ~class_name:c ~op:name)
        receiver_code
        (String.concat "" (List.map (fun a -> ", " ^ a) args_c)))

let rec stmt_c env indent (s : Asl.Ast.stmt) =
  let pad = String.make indent ' ' in
  match s with
  | Asl.Ast.Skip -> [ pad ^ ";" ]
  | Asl.Ast.Var_decl (name, e) ->
    (match receiver_class env e with
     | Some c -> env.var_classes <- (name, c) :: env.var_classes
     | None -> ());
    let decl_type =
      match receiver_class env e with
      | Some c -> Printf.sprintf "struct %s *" (sanitize c)
      | None -> "int "
    in
    [ Printf.sprintf "%s%s%s = %s;" pad decl_type (sanitize name) (expr_c env e) ]
  | Asl.Ast.Assign (Asl.Ast.L_var name, e) ->
    [ Printf.sprintf "%s%s = %s;" pad (sanitize name) (expr_c env e) ]
  | Asl.Ast.Assign (Asl.Ast.L_attr (obj, attr), e) ->
    [
      Printf.sprintf "%s%s->%s = %s;" pad (expr_c env obj) (sanitize attr)
        (expr_c env e);
    ]
  | Asl.Ast.Expr_stmt e -> [ Printf.sprintf "%s%s;" pad (expr_c env e) ]
  | Asl.Ast.If (c, t_branch, e_branch) ->
    let then_lines = List.concat_map (stmt_c env (indent + 2)) t_branch in
    let else_lines = List.concat_map (stmt_c env (indent + 2)) e_branch in
    (Printf.sprintf "%sif (%s) {" pad (expr_c env c) :: then_lines)
    @ (if else_lines = [] then [ pad ^ "}" ]
       else ((pad ^ "} else {") :: else_lines) @ [ pad ^ "}" ])
  | Asl.Ast.While (c, body) ->
    (Printf.sprintf "%swhile (%s) {" pad (expr_c env c)
    :: List.concat_map (stmt_c env (indent + 2)) body)
    @ [ pad ^ "}" ]
  | Asl.Ast.For (name, low, high, body) ->
    (Printf.sprintf "%sfor (int %s = %s; %s <= %s; %s++) {" pad
       (sanitize name) (expr_c env low) (sanitize name) (expr_c env high)
       (sanitize name)
    :: List.concat_map (stmt_c env (indent + 2)) body)
    @ [ pad ^ "}" ]
  | Asl.Ast.Return None -> [ pad ^ "return;" ]
  | Asl.Ast.Return (Some e) ->
    [ Printf.sprintf "%sreturn %s;" pad (expr_c env e) ]
  | Asl.Ast.Send (signal, _args, _target) ->
    [ Printf.sprintf "%ssocuml_emit(%S);" pad signal ]
  | Asl.Ast.Delete e -> [ Printf.sprintf "%sfree(%s);" pad (expr_c env e) ]

(* --- per-class generation -------------------------------------------- *)

let struct_decl m (cl : Classifier.t) =
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    (Printf.sprintf "struct %s {\n" (sanitize cl.Classifier.cl_name));
  List.iter
    (fun (p : Classifier.property) ->
      Buffer.add_string buf
        (Printf.sprintf "  %s%s;\n"
           (let t = c_type_in m p.Classifier.prop_type in
            if String.length t > 0 && t.[String.length t - 1] = '*' then t
            else t ^ " ")
           (sanitize p.Classifier.prop_name)))
    cl.Classifier.cl_attributes;
  Buffer.add_string buf "};\n";
  Buffer.contents buf

let constructor (cl : Classifier.t) =
  let name = sanitize cl.Classifier.cl_name in
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    (Printf.sprintf "struct %s *%s_new(void) {\n" name name);
  Buffer.add_string buf
    (Printf.sprintf "  struct %s *self = (struct %s *)calloc(1, sizeof(struct %s));\n"
       name name name);
  List.iter
    (fun (p : Classifier.property) ->
      Buffer.add_string buf
        (Printf.sprintf "  self->%s = %s;\n"
           (sanitize p.Classifier.prop_name)
           (default_value p.Classifier.prop_type p.Classifier.prop_default)))
    cl.Classifier.cl_attributes;
  Buffer.add_string buf "  return self;\n}\n";
  Buffer.contents buf

(* The C prototype of an operation, without the final [;] or body. *)
let signature m (cl : Classifier.t) (op : Classifier.operation) =
  Printf.sprintf "%s %s(struct %s *self%s)"
    (String.trim (c_type_in m (Classifier.result_type op)))
    (function_name ~class_name:cl.Classifier.cl_name ~op:op.Classifier.op_name)
    (sanitize cl.Classifier.cl_name)
    (String.concat ""
       (List.filter_map
          (fun (p : Classifier.parameter) ->
            if p.Classifier.param_direction = Classifier.Return then None
            else
              Some
                (Printf.sprintf ", %s %s"
                   (String.trim (c_type_in m p.Classifier.param_type))
                   (sanitize p.Classifier.param_name)))
          op.Classifier.op_params))

let operation_fn m info (cl : Classifier.t) (op : Classifier.operation) =
  let class_name = cl.Classifier.cl_name in
  let body_lines =
    match op.Classifier.op_body with
    | None -> [ "  /* no body modeled */" ]
    | Some src -> (
      match Asl.Compiled.program_result (Asl.Compiled.program src) with
      | Error msg -> [ Printf.sprintf "  /* body not translated: %s */" msg ]
      | Ok prog -> (
        let env =
          { info; self_class = Some class_name; var_classes = [] }
        in
        match List.concat_map (stmt_c env 2) prog with
        | lines -> lines
        | exception Untranslatable msg ->
          [ Printf.sprintf "  /* body not translated: %s */" msg ]))
  in
  String.concat "\n" ((signature m cl op ^ " {") :: body_lines) ^ "\n}\n"

let of_model m =
  let info = Asl.Sites.class_info_of_model m in
  let classes =
    List.filter
      (fun c ->
        match c.Classifier.cl_kind with
        | Classifier.Class | Classifier.Signal -> true
        | Classifier.Interface | Classifier.Data_type
        | Classifier.Primitive_type | Classifier.Enumeration _
        | Classifier.Actor_kind ->
          false)
      (Model.classifiers m)
  in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "/* generated by socuml cgen */\n";
  Buffer.add_string buf "#include <stdio.h>\n#include <stdlib.h>\n\n";
  Buffer.add_string buf "extern void socuml_emit(const char *signal);\n\n";
  (* forward declarations *)
  List.iter
    (fun cl ->
      Buffer.add_string buf
        (Printf.sprintf "struct %s;\n" (sanitize cl.Classifier.cl_name)))
    classes;
  Buffer.add_char buf '\n';
  List.iter
    (fun cl ->
      Buffer.add_string buf (struct_decl m cl);
      Buffer.add_char buf '\n')
    classes;
  (* function prototypes *)
  List.iter
    (fun cl ->
      let name = sanitize cl.Classifier.cl_name in
      Buffer.add_string buf
        (Printf.sprintf "struct %s *%s_new(void);\n" name name);
      List.iter
        (fun op ->
          Buffer.add_string buf (Printf.sprintf "%s;\n" (signature m cl op)))
        cl.Classifier.cl_operations)
    classes;
  Buffer.add_char buf '\n';
  List.iter
    (fun cl ->
      Buffer.add_string buf (constructor cl);
      Buffer.add_char buf '\n';
      List.iter
        (fun op ->
          Buffer.add_string buf (operation_fn m info cl op);
          Buffer.add_char buf '\n')
        cl.Classifier.cl_operations)
    classes;
  Buffer.contents buf
