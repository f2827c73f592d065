open Hdl

let sanitize = Hdl_text.sanitize

let cpp_type ty =
  match ty with
  | Htype.Bit -> "bool"
  | Htype.Unsigned w when w <= 1 -> "bool"
  | Htype.Unsigned w -> Printf.sprintf "sc_uint<%d>" w
  | Htype.Enum _ -> Printf.sprintf "sc_uint<%d>" (Htype.width ty)

(* ports are read with .read() and written with .write(); internal
   signals are plain members *)
let rec expr_string m (e : Expr.t) =
  match e with
  | Expr.Const (v, _ty) -> string_of_int v
  | Expr.Enum_lit lit -> Hdl_text.enum_literal lit
  | Expr.Ref name -> (
    match Module_.find_port m name with
    | Some _ -> Printf.sprintf "%s.read()" (sanitize name)
    | None -> sanitize name)
  | Expr.Unop (Expr.Not, e1) -> Printf.sprintf "(~%s)" (expr_string m e1)
  | Expr.Unop (Expr.Reduce_or, e1) ->
    Printf.sprintf "(%s != 0)" (expr_string m e1)
  | Expr.Unop (Expr.Reduce_and, e1) ->
    Printf.sprintf "(%s.and_reduce())" (expr_string m e1)
  | Expr.Binop (op, e1, e2) ->
    Printf.sprintf "(%s %s %s)" (expr_string m e1) (Hdl_text.c_binop op)
      (expr_string m e2)
  | Expr.Mux (c, a, b) ->
    Printf.sprintf "(%s ? %s : %s)" (expr_string m c) (expr_string m a)
      (expr_string m b)
  | Expr.Slice (e1, hi, lo) ->
    if hi = lo then Printf.sprintf "%s[%d]" (expr_string m e1) lo
    else Printf.sprintf "%s.range(%d, %d)" (expr_string m e1) hi lo
  | Expr.Concat (e1, e2) ->
    Printf.sprintf "(%s, %s)" (expr_string m e1) (expr_string m e2)
  | Expr.Resize (e1, _w) -> expr_string m e1

let syntax m =
  let value = expr_string m in
  {
    Hdl_text.null = ";";
    assign =
      (fun target e ->
        match Module_.find_port m target with
        | Some _ -> Printf.sprintf "%s.write(%s);" (sanitize target) (value e)
        | None -> Printf.sprintf "%s = %s;" (sanitize target) (value e));
    cond = value;
    value;
    if_open = Printf.sprintf "if (%s) {";
    if_else = "} else {";
    if_close = "}";
    case_open = Printf.sprintf "switch ((int)(%s)) {";
    arm_open = Printf.sprintf "case %s: {";
    arm_close = Some "} break;";
    default_open = "default: {";
    no_default = "default: break;";
    case_close = "}";
  }

let of_module m =
  let buf = Buffer.create 2048 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  let syn = syntax m in
  let name = sanitize m.Module_.mod_name in
  line "SC_MODULE(%s) {" name;
  List.iter
    (fun (p : Module_.port) ->
      let template =
        match p.Module_.port_dir with
        | Module_.Input -> "sc_in"
        | Module_.Output -> "sc_out"
      in
      line "  %s<%s> %s;" template (cpp_type p.Module_.port_type)
        (sanitize p.Module_.port_name))
    m.Module_.mod_ports;
  List.iter
    (fun (l, i, _width) ->
      line "  static const int %s = %d;" (Hdl_text.enum_literal l) i)
    (Hdl_text.enum_constants m);
  List.iter
    (fun (s : Module_.signal) ->
      line "  %s %s;" (cpp_type s.Module_.sig_type)
        (sanitize s.Module_.sig_name))
    m.Module_.mod_signals;
  List.iter
    (fun (inst : Module_.instance) ->
      line "  %s %s;" (sanitize inst.Module_.inst_module)
        (sanitize inst.Module_.inst_name))
    m.Module_.mod_instances;
  line "";
  (* process methods *)
  List.iter
    (fun p ->
      match p with
      | Module_.Comb cp ->
        line "  void %s() {" (sanitize cp.Module_.cp_name);
        Hdl_text.body syn buf 4 cp.Module_.cp_body;
        line "  }"
      | Module_.Seq sp ->
        line "  void %s() {" (sanitize sp.Module_.sp_name);
        Hdl_text.seq_body syn buf 4 sp ~reset_cond:(fun rst ->
            sanitize rst ^ ".read()");
        line "  }")
    m.Module_.mod_processes;
  line "";
  (* constructor with sensitivity *)
  line "  SC_CTOR(%s)%s {" name
    (match m.Module_.mod_instances with
     | [] -> ""
     | instances ->
       " : "
       ^ String.concat ", "
           (List.map
              (fun (i : Module_.instance) ->
                Printf.sprintf "%s(\"%s\")" (sanitize i.Module_.inst_name)
                  (sanitize i.Module_.inst_name))
              instances));
  List.iter
    (fun (inst : Module_.instance) ->
      List.iter
        (fun (formal, actual) ->
          line "    %s.%s(%s);" (sanitize inst.Module_.inst_name)
            (sanitize formal) (sanitize actual))
        inst.Module_.inst_conns)
    m.Module_.mod_instances;
  List.iter
    (fun p ->
      match p with
      | Module_.Comb cp ->
        line "    SC_METHOD(%s);" (sanitize cp.Module_.cp_name);
        let inputs =
          List.filter
            (fun n -> Module_.find_port m n <> None)
            (Stmt.read cp.Module_.cp_body)
        in
        if inputs <> [] then
          line "    sensitive << %s;"
            (String.concat " << " (List.map sanitize inputs))
      | Module_.Seq sp ->
        line "    SC_METHOD(%s);" (sanitize sp.Module_.sp_name);
        line "    sensitive << %s.pos();" (sanitize sp.Module_.sp_clock))
    m.Module_.mod_processes;
  line "  }";
  line "};";
  Buffer.contents buf

let of_design d =
  Hdl_text.design ~prelude:"#include <systemc.h>\n\n" of_module d
