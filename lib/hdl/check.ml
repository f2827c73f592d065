type severity =
  | Error
  | Warning

let severity_name = function
  | Error -> "error"
  | Warning -> "warning"

type diagnostic = {
  diag_severity : severity;
  diag_code : string;
  diag_message : string;
}

let to_string d =
  Printf.sprintf "%s(%s): %s"
    (severity_name d.diag_severity)
    d.diag_code d.diag_message

let errors ds = List.filter (fun d -> d.diag_severity = Error) ds
let warnings ds = List.filter (fun d -> d.diag_severity = Warning) ds
let messages ds = List.map (fun d -> d.diag_message) ds

let diag severity code message =
  { diag_severity = severity; diag_code = code; diag_message = message }

let err code fmt = Printf.ksprintf (diag Error code) fmt
let warn code fmt = Printf.ksprintf (diag Warning code) fmt

let rec infer_type m (e : Expr.t) =
  match e with
  | Expr.Const (_, ty) -> Ok ty
  | Expr.Enum_lit lit -> (
    (* find an enum type declaring this literal *)
    let all_types =
      List.map (fun p -> p.Module_.port_type) m.Module_.mod_ports
      @ List.map (fun s -> s.Module_.sig_type) m.Module_.mod_signals
    in
    match
      List.find_opt
        (fun ty -> Htype.enum_index ty lit <> None)
        all_types
    with
    | Some ty -> Ok ty
    | None -> Error (Printf.sprintf "unknown enum literal %s" lit))
  | Expr.Ref name -> (
    match Module_.declared_type m name with
    | Some ty -> Ok ty
    | None -> Error (Printf.sprintf "unresolved signal %s" name))
  | Expr.Unop (Expr.Not, e1) -> infer_type m e1
  | Expr.Unop ((Expr.Reduce_or | Expr.Reduce_and), e1) -> (
    match infer_type m e1 with
    | Ok _ -> Ok Htype.Bit
    | Error _ as err -> err)
  | Expr.Binop (op, e1, e2) -> (
    match infer_type m e1, infer_type m e2 with
    | Ok t1, Ok t2 ->
      if Expr.is_boolean_op op then Ok Htype.Bit
      else
        let w = max (Htype.width t1) (Htype.width t2) in
        (match op with
         | Expr.And | Expr.Or | Expr.Xor when w = 1 -> Ok Htype.Bit
         | _other -> Ok (Htype.Unsigned w))
    | (Error _ as err), _ -> err
    | _, (Error _ as err) -> err)
  | Expr.Mux (c, a, b) -> (
    match infer_type m c, infer_type m a, infer_type m b with
    | Ok _, Ok ta, Ok tb ->
      if Htype.width ta >= Htype.width tb then Ok ta else Ok tb
    | (Error _ as err), _, _ -> err
    | _, (Error _ as err), _ -> err
    | _, _, (Error _ as err) -> err)
  | Expr.Slice (e1, hi, lo) -> (
    match infer_type m e1 with
    | Ok _ when hi >= lo && lo >= 0 ->
      Ok (if hi = lo then Htype.Bit else Htype.Unsigned (hi - lo + 1))
    | Ok _ -> Error "slice bounds out of order"
    | Error _ as err -> err)
  | Expr.Concat (e1, e2) -> (
    match infer_type m e1, infer_type m e2 with
    | Ok t1, Ok t2 -> Ok (Htype.Unsigned (Htype.width t1 + Htype.width t2))
    | (Error _ as err), _ -> err
    | _, (Error _ as err) -> err)
  | Expr.Resize (e1, w) -> (
    match infer_type m e1 with
    | Ok _ -> Ok (if w = 1 then Htype.Bit else Htype.Unsigned w)
    | Error _ as err -> err)

let check_expr m errs e =
  match infer_type m e with
  | Ok _ -> errs
  | Error msg -> err "HDL-02" "%s in %s" msg m.Module_.mod_name :: errs

let rec check_stmt m errs (s : Stmt.t) =
  match s with
  | Stmt.Null -> errs
  | Stmt.Assign (target, e) -> (
    let errs = check_expr m errs e in
    match Module_.declared_type m target with
    | None ->
      err "HDL-03" "assignment to unresolved signal %s" target :: errs
    | Some target_ty -> (
      match Module_.find_port m target with
      | Some p when p.Module_.port_dir = Module_.Input ->
        err "HDL-03" "assignment to input port %s" target :: errs
      | Some _ | None -> (
        match infer_type m e with
        | Error _ -> errs (* already reported *)
        | Ok ty ->
          if Htype.width ty <= Htype.width target_ty then errs
          else
            err "HDL-04"
              "width mismatch assigning %d bits to %s (%d bits)"
              (Htype.width ty) target (Htype.width target_ty)
            :: errs)))
  | Stmt.If (cond, t_branch, e_branch) ->
    let errs = check_expr m errs cond in
    let errs = List.fold_left (check_stmt m) errs t_branch in
    List.fold_left (check_stmt m) errs e_branch
  | Stmt.Case (sel, branches, default) ->
    let errs = check_expr m errs sel in
    let errs =
      List.fold_left
        (fun errs (choice, body) ->
          let errs =
            match choice, infer_type m sel with
            | Stmt.Ch_enum lit, Ok sel_ty
              when Htype.enum_index sel_ty lit = None ->
              err "HDL-04" "case choice %s not a literal of the selector"
                lit
              :: errs
            | (Stmt.Ch_enum _ | Stmt.Ch_int _), (Ok _ | Error _) -> errs
          in
          List.fold_left (check_stmt m) errs body)
        errs branches
    in
    (match default with
     | Some body -> List.fold_left (check_stmt m) errs body
     | None -> errs)

let drivers m =
  (* name -> list of process names that assign it *)
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun p ->
      let names = Stmt.assigned (Module_.process_body p) in
      let names =
        match p with
        | Module_.Seq { sp_reset = Some (_, reset_body); _ } ->
          names @ Stmt.assigned reset_body
        | Module_.Seq _ | Module_.Comb _ -> names
      in
      List.iter
        (fun n ->
          let existing =
            match Hashtbl.find_opt tbl n with
            | Some l -> l
            | None -> []
          in
          let pname = Module_.process_name p in
          if not (List.mem pname existing) then
            Hashtbl.replace tbl n (pname :: existing))
        names)
    m.Module_.mod_processes;
  tbl

let has_comb_loop m =
  (* edges: read -> written within each comb process; DFS for a cycle *)
  let edges = Hashtbl.create 16 in
  List.iter
    (fun p ->
      match p with
      | Module_.Comb { cp_body; _ } ->
        let reads = Stmt.read cp_body in
        let writes = Stmt.assigned cp_body in
        List.iter
          (fun r ->
            let existing =
              match Hashtbl.find_opt edges r with
              | Some l -> l
              | None -> []
            in
            Hashtbl.replace edges r (writes @ existing))
          reads
      | Module_.Seq _ -> ())
    m.Module_.mod_processes;
  let visiting = Hashtbl.create 16 in
  let done_ = Hashtbl.create 16 in
  let rec dfs n =
    if Hashtbl.mem done_ n then false
    else if Hashtbl.mem visiting n then true
    else begin
      Hashtbl.add visiting n ();
      let succ =
        match Hashtbl.find_opt edges n with
        | Some l -> l
        | None -> []
      in
      let cyclic = List.exists dfs succ in
      Hashtbl.remove visiting n;
      Hashtbl.add done_ n ();
      cyclic
    end
  in
  (* audited: hash-order fold, but cycle existence is a property of the
     graph — the boolean is the same whatever order the roots are tried *)
  Hashtbl.fold (fun n _ acc -> acc || dfs n) edges false

let check_module m =
  let errs = [] in
  (* duplicate declarations *)
  let names =
    List.map (fun p -> p.Module_.port_name) m.Module_.mod_ports
    @ List.map (fun s -> s.Module_.sig_name) m.Module_.mod_signals
  in
  let seen = Hashtbl.create 16 in
  let errs =
    List.fold_left
      (fun errs n ->
        if Hashtbl.mem seen n then
          err "HDL-01" "duplicate declaration of %s in %s" n
            m.Module_.mod_name
          :: errs
        else begin
          Hashtbl.add seen n ();
          errs
        end)
      errs names
  in
  let errs =
    List.fold_left
      (fun errs p ->
        let errs =
          List.fold_left (check_stmt m) errs (Module_.process_body p)
        in
        match p with
        | Module_.Seq sp ->
          let errs =
            match Module_.declared_type m sp.Module_.sp_clock with
            | Some Htype.Bit -> errs
            | Some _ ->
              err "HDL-07" "clock %s of process %s is not a bit"
                sp.Module_.sp_clock sp.Module_.sp_name
              :: errs
            | None ->
              err "HDL-07" "unresolved clock %s in process %s"
                sp.Module_.sp_clock sp.Module_.sp_name
              :: errs
          in
          (match sp.Module_.sp_reset with
           | Some (rst, body) ->
             let errs = List.fold_left (check_stmt m) errs body in
             (match Module_.declared_type m rst with
              | Some Htype.Bit -> errs
              | Some _ ->
                err "HDL-07" "reset %s is not a bit" rst :: errs
              | None -> err "HDL-07" "unresolved reset %s" rst :: errs)
           | None -> errs)
        | Module_.Comb _ -> errs)
      errs m.Module_.mod_processes
  in
  (* audited: the fold over [drivers m] visits signals in hash order,
     but both the per-signal process list and the (name, procs) pairs
     are re-sorted below, so diagnostics come out in signal-name order
     regardless of bucket layout *)
  let errs =
    let multi =
      Hashtbl.fold
        (fun n procs acc ->
          if List.length procs > 1 then (n, List.sort compare procs) :: acc
          else acc)
        (drivers m) []
    in
    List.fold_left
      (fun errs (n, procs) ->
        err "HDL-05" "signal %s driven by multiple processes (%s) in %s" n
          (String.concat ", " procs)
          m.Module_.mod_name
        :: errs)
      errs
      (List.sort compare multi)
  in
  let errs =
    if has_comb_loop m then
      err "HDL-06" "combinational loop in module %s" m.Module_.mod_name
      :: errs
    else errs
  in
  List.rev errs

(* --- dead wires (design level) --------------------------------------- *)

(* Reads and writes of names in a module, counting its instances:
   an actual wired to an [Output] formal of the instantiated module is
   written; one wired to an [Input] formal is read. *)
let dead_wire_diags d (m : Module_.t) =
  let written = Hashtbl.create 16 in
  let read = Hashtbl.create 16 in
  let mark tbl n = Hashtbl.replace tbl n () in
  List.iter
    (fun p ->
      List.iter (mark written) (Stmt.assigned (Module_.process_body p));
      List.iter (mark read) (Stmt.read (Module_.process_body p));
      match p with
      | Module_.Seq sp ->
        mark read sp.Module_.sp_clock;
        (match sp.Module_.sp_reset with
         | Some (rst, body) ->
           mark read rst;
           List.iter (mark written) (Stmt.assigned body);
           List.iter (mark read) (Stmt.read body)
         | None -> ())
      | Module_.Comb _ -> ())
    m.Module_.mod_processes;
  List.iter
    (fun (inst : Module_.instance) ->
      match Module_.find_module d inst.Module_.inst_module with
      | None -> () (* wiring already reported as HDL-08 *)
      | Some target ->
        List.iter
          (fun (formal, actual) ->
            match Module_.find_port target formal with
            | Some p when p.Module_.port_dir = Module_.Output ->
              mark written actual
            | Some _ -> mark read actual
            | None -> ())
          inst.Module_.inst_conns)
    m.Module_.mod_instances;
  let sig_diag acc (s : Module_.signal) =
    let n = s.Module_.sig_name in
    let is_written = Hashtbl.mem written n || s.Module_.sig_init <> None in
    let is_read = Hashtbl.mem read n in
    if is_read && not is_written then
      err "HDL-10" "signal %s in %s is read but never driven" n
        m.Module_.mod_name
      :: acc
    else if (not is_read) && not is_written then
      warn "HDL-11" "signal %s in %s is neither read nor driven" n
        m.Module_.mod_name
      :: acc
    else acc
  in
  let port_diag acc (p : Module_.port) =
    if
      p.Module_.port_dir = Module_.Output
      && not (Hashtbl.mem written p.Module_.port_name)
    then
      err "HDL-10" "output port %s of %s is never driven"
        p.Module_.port_name m.Module_.mod_name
      :: acc
    else acc
  in
  let acc = List.fold_left sig_diag [] m.Module_.mod_signals in
  let acc = List.fold_left port_diag acc m.Module_.mod_ports in
  List.rev acc

let check_design d =
  let errs = List.concat_map check_module d.Module_.des_modules in
  let errs =
    match Module_.find_module d d.Module_.des_top with
    | Some _ -> errs
    | None ->
      errs @ [ err "HDL-09" "top module %s not found" d.Module_.des_top ]
  in
  let check_instance (m : Module_.t) errs (inst : Module_.instance) =
    match Module_.find_module d inst.Module_.inst_module with
    | None ->
      err "HDL-08" "instance %s references unknown module %s"
        inst.Module_.inst_name inst.Module_.inst_module
      :: errs
    | Some target ->
      let errs =
        List.fold_left
          (fun errs (formal, actual) ->
            let errs =
              match Module_.find_port target formal with
              | Some _ -> errs
              | None ->
                err "HDL-08" "instance %s connects unknown port %s of %s"
                  inst.Module_.inst_name formal inst.Module_.inst_module
                :: errs
            in
            match Module_.declared_type m actual with
            | Some _ -> errs
            | None ->
              err "HDL-08" "instance %s connects unresolved signal %s"
                inst.Module_.inst_name actual
              :: errs)
          errs inst.Module_.inst_conns
      in
      (* every input of the target must be connected *)
      List.fold_left
        (fun errs (p : Module_.port) ->
          if
            p.Module_.port_dir = Module_.Input
            && not
                 (List.mem_assoc p.Module_.port_name inst.Module_.inst_conns)
          then
            err "HDL-08" "instance %s leaves input %s of %s unconnected"
              inst.Module_.inst_name p.Module_.port_name
              inst.Module_.inst_module
            :: errs
          else errs)
        errs target.Module_.mod_ports
  in
  let errs =
    List.fold_left
      (fun errs m ->
        List.fold_left (check_instance m) errs m.Module_.mod_instances)
      errs d.Module_.des_modules
  in
  errs @ List.concat_map (dead_wire_diags d) d.Module_.des_modules
