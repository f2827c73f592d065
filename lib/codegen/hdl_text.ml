open Hdl

let sanitize name =
  String.map
    (fun c ->
      if
        (c >= 'a' && c <= 'z')
        || (c >= 'A' && c <= 'Z')
        || (c >= '0' && c <= '9')
      then c
      else '_')
    name

let enum_literal lit = "S_" ^ sanitize lit

let enum_types m =
  List.filter_map
    (fun ty ->
      match ty with
      | Htype.Enum lits -> Some lits
      | Htype.Bit | Htype.Unsigned _ -> None)
    (List.map (fun p -> p.Module_.port_type) m.Module_.mod_ports
    @ List.map (fun s -> s.Module_.sig_type) m.Module_.mod_signals)

let enum_constants m =
  let seen = Hashtbl.create 8 in
  List.concat_map
    (fun lits ->
      let width = Htype.width (Htype.Enum lits) in
      List.mapi (fun i l -> (l, i, width)) lits)
    (enum_types m)
  |> List.filter (fun (l, _, _) ->
         let fresh = not (Hashtbl.mem seen l) in
         if fresh then Hashtbl.replace seen l ();
         fresh)

let design ?(prelude = "") print_module d =
  let emitted = Hashtbl.create 8 in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf prelude;
  let rec emit name =
    if not (Hashtbl.mem emitted name) then begin
      Hashtbl.add emitted name ();
      match Module_.find_module d name with
      | None -> ()
      | Some m ->
        List.iter
          (fun (i : Module_.instance) -> emit i.Module_.inst_module)
          m.Module_.mod_instances;
        Buffer.add_string buf (print_module m);
        Buffer.add_char buf '\n'
    end
  in
  List.iter
    (fun (m : Module_.t) -> emit m.Module_.mod_name)
    d.Module_.des_modules;
  Buffer.contents buf

let c_binop = function
  | Expr.And -> "&"
  | Expr.Or -> "|"
  | Expr.Xor -> "^"
  | Expr.Add -> "+"
  | Expr.Sub -> "-"
  | Expr.Mul -> "*"
  | Expr.Eq -> "=="
  | Expr.Neq -> "!="
  | Expr.Lt -> "<"
  | Expr.Le -> "<="
  | Expr.Gt -> ">"
  | Expr.Ge -> ">="
  | Expr.Shl -> "<<"
  | Expr.Shr -> ">>"

type syntax = {
  null : string;
  assign : string -> Expr.t -> string;
  cond : Expr.t -> string;
  value : Expr.t -> string;
  if_open : string -> string;
  if_else : string;
  if_close : string;
  case_open : string -> string;
  arm_open : string -> string;
  arm_close : string option;
  default_open : string;
  no_default : string;
  case_close : string;
}

let line buf indent text =
  for _ = 1 to indent do
    Buffer.add_char buf ' '
  done;
  Buffer.add_string buf text;
  Buffer.add_char buf '\n'

let rec body syn buf indent stmts = List.iter (stmt syn buf indent) stmts

and stmt syn buf indent (s : Stmt.t) =
  match s with
  | Stmt.Null -> line buf indent syn.null
  | Stmt.Assign (target, e) -> line buf indent (syn.assign target e)
  | Stmt.If (c, then_branch, else_branch) ->
    line buf indent (syn.if_open (syn.cond c));
    body syn buf (indent + 2) then_branch;
    (match else_branch with
     | [] -> ()
     | stmts ->
       line buf indent syn.if_else;
       body syn buf (indent + 2) stmts);
    line buf indent syn.if_close
  | Stmt.Case (sel, branches, default) ->
    (* an arm's header two columns in, its statements four *)
    let arm header stmts =
      line buf (indent + 2) header;
      body syn buf (indent + 4) stmts;
      Option.iter (line buf (indent + 2)) syn.arm_close
    in
    line buf indent (syn.case_open (syn.value sel));
    List.iter
      (fun (choice, stmts) ->
        match choice with
        | Stmt.Ch_int i -> arm (syn.arm_open (string_of_int i)) stmts
        | Stmt.Ch_enum lit -> arm (syn.arm_open (enum_literal lit)) stmts)
      branches;
    (match default with
     | Some stmts -> arm syn.default_open stmts
     | None -> line buf (indent + 2) syn.no_default);
    line buf indent syn.case_close

let seq_body syn buf ~reset_cond indent (sp : Module_.seq_process) =
  match sp.Module_.sp_reset with
  | Some (rst, reset_body) ->
    line buf indent (syn.if_open (reset_cond rst));
    body syn buf (indent + 2) reset_body;
    line buf indent syn.if_else;
    body syn buf (indent + 2) sp.Module_.sp_body;
    line buf indent syn.if_close
  | None -> body syn buf indent sp.Module_.sp_body
