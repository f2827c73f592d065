open Hdl

let sanitize = Hdl_text.sanitize

let range ty =
  let w = Htype.width ty in
  if w = 1 then "" else Printf.sprintf "[%d:0] " (w - 1)

let rec expr_string (e : Expr.t) =
  match e with
  | Expr.Const (v, ty) ->
    let w = Htype.width ty in
    Printf.sprintf "%d'd%d" w v
  | Expr.Enum_lit lit -> Hdl_text.enum_literal lit
  | Expr.Ref name -> sanitize name
  | Expr.Unop (Expr.Not, e1) -> Printf.sprintf "(~%s)" (expr_string e1)
  | Expr.Unop (Expr.Reduce_or, e1) -> Printf.sprintf "(|%s)" (expr_string e1)
  | Expr.Unop (Expr.Reduce_and, e1) -> Printf.sprintf "(&%s)" (expr_string e1)
  | Expr.Binop (op, e1, e2) ->
    Printf.sprintf "(%s %s %s)" (expr_string e1) (Hdl_text.c_binop op)
      (expr_string e2)
  | Expr.Mux (c, a, b) ->
    Printf.sprintf "(%s ? %s : %s)" (expr_string c) (expr_string a)
      (expr_string b)
  | Expr.Slice (e1, hi, lo) ->
    if hi = lo then Printf.sprintf "%s[%d]" (expr_string e1) lo
    else Printf.sprintf "%s[%d:%d]" (expr_string e1) hi lo
  | Expr.Concat (e1, e2) ->
    Printf.sprintf "{%s, %s}" (expr_string e1) (expr_string e2)
  | Expr.Resize (e1, _w) -> expr_string e1

(* Combinational processes assign with [=], clocked ones with [<=]. *)
let syntax ~blocking =
  let arrow = if blocking then "=" else "<=" in
  {
    Hdl_text.null = ";";
    assign =
      (fun target e ->
        Printf.sprintf "%s %s %s;" (sanitize target) arrow (expr_string e));
    cond = expr_string;
    value = expr_string;
    if_open = Printf.sprintf "if (%s) begin";
    if_else = "end else begin";
    if_close = "end";
    case_open = Printf.sprintf "case (%s)";
    arm_open = Printf.sprintf "%s: begin";
    arm_close = Some "end";
    default_open = "default: begin";
    no_default = "default: ;";
    case_close = "endcase";
  }

let of_module m =
  let buf = Buffer.create 2048 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  let name = sanitize m.Module_.mod_name in
  (* an output or internal signal is a reg only where a process assigns
     it (or, for a signal, where it has an initial value: a net cannot
     carry one); one driven by an instance is a net *)
  let assigned =
    List.concat_map
      (fun p ->
        match p with
        | Module_.Comb cp -> Stmt.assigned cp.Module_.cp_body
        | Module_.Seq sp ->
          Stmt.assigned
            (Option.fold ~none:[] ~some:snd sp.Module_.sp_reset
            @ sp.Module_.sp_body))
      m.Module_.mod_processes
  in
  let port_decl (p : Module_.port) =
    let dir =
      match p.Module_.port_dir with
      | Module_.Input -> "input"
      | Module_.Output ->
        if List.mem p.Module_.port_name assigned then "output reg"
        else "output"
    in
    Printf.sprintf "  %s %s%s" dir (range p.Module_.port_type)
      (sanitize p.Module_.port_name)
  in
  line "module %s (" name;
  Buffer.add_string buf
    (String.concat ",\n" (List.map port_decl m.Module_.mod_ports));
  line "";
  line ");";
  List.iter
    (fun (l, i, w) ->
      line "  localparam %s = %d'd%d;" (Hdl_text.enum_literal l) w i)
    (Hdl_text.enum_constants m);
  List.iter
    (fun (s : Module_.signal) ->
      let kind, init =
        match s.Module_.sig_init with
        | Some v -> ("reg", Printf.sprintf " = %d" v)
        | None ->
          ((if List.mem s.Module_.sig_name assigned then "reg" else "wire"), "")
      in
      line "  %s %s%s%s;" kind (range s.Module_.sig_type)
        (sanitize s.Module_.sig_name)
        init)
    m.Module_.mod_signals;
  List.iter
    (fun (inst : Module_.instance) ->
      line "  %s %s (" (sanitize inst.Module_.inst_module)
        (sanitize inst.Module_.inst_name);
      Buffer.add_string buf
        (String.concat ",\n"
           (List.map
              (fun (formal, actual) ->
                Printf.sprintf "    .%s(%s)" (sanitize formal)
                  (sanitize actual))
              inst.Module_.inst_conns));
      line "";
      line "  );")
    m.Module_.mod_instances;
  List.iter
    (fun p ->
      match p with
      | Module_.Comb cp ->
        line "";
        line "  // %s" (sanitize cp.Module_.cp_name);
        line "  always @* begin";
        Hdl_text.body (syntax ~blocking:true) buf 4 cp.Module_.cp_body;
        line "  end"
      | Module_.Seq sp ->
        line "";
        line "  // %s" (sanitize sp.Module_.sp_name);
        line "  always @(posedge %s) begin" (sanitize sp.Module_.sp_clock);
        Hdl_text.seq_body (syntax ~blocking:false) buf ~reset_cond:sanitize 4
          sp;
        line "  end")
    m.Module_.mod_processes;
  line "endmodule";
  Buffer.contents buf

let of_design d = Hdl_text.design of_module d
