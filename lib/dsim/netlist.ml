open Hdl

exception Simulation_error of string

let err fmt = Printf.ksprintf (fun m -> raise (Simulation_error m)) fmt

type body = int array -> (int -> int -> unit) -> unit

type comb = {
  c_name : string;
  c_reads : int array;
  c_writes : int array;
  c_body : body;
}

type seq = {
  q_name : string;
  q_clock : string;
  q_reads : int array;
  q_writes : int array;
  q_reset : (int * body) option;
  q_body : body;
}

type t = {
  nl_module : Module_.t;
  nl_names : string array;
  nl_types : Htype.t array;
  nl_index : (string, int) Hashtbl.t;
  nl_init : int array;
  nl_mask : int array;
  nl_comb : comb array;
  nl_seq : seq array;
  nl_fanout : int array array;
  nl_levels : int array option;
  nl_snapshot : int array;
}

(* OCaml's native int has 63 value bits; [1 lsl w] overflows the sign
   for w >= 62, so wide signals use the identity mask (raw ints), the
   same rule as the reference interpreter's [mask]. *)
let mask_bits w = if w >= 62 then -1 else (1 lsl w) - 1

(* Interning environment threaded through compilation. *)
type env = {
  e_index : (string, int) Hashtbl.t;
  e_types : Htype.t array;
  e_enum_of_lit : (string, int) Hashtbl.t;
}

let find env name = Hashtbl.find_opt env.e_index name

let read_index env name =
  match find env name with
  | Some i -> i
  | None -> err "unknown signal %s" name

let write_index env name =
  match find env name with
  | Some i -> i
  | None -> err "assignment to unknown signal %s" name

let enum_index env lit =
  match Hashtbl.find_opt env.e_enum_of_lit lit with
  | Some i -> i
  | None -> err "unknown enum literal %s" lit

(* Static replica of the reference interpreter's [type_of]: same joins,
   same [None] cases, so the compiled masks match its dynamic ones
   exactly. *)
let rec static_type env (e : Expr.t) =
  match e with
  | Expr.Const (_, ty) -> Some ty
  | Expr.Ref name -> (
    match find env name with
    | Some i -> Some env.e_types.(i)
    | None -> None)
  | Expr.Enum_lit _ -> None
  | Expr.Unop (Expr.Not, e1) -> static_type env e1
  | Expr.Unop ((Expr.Reduce_or | Expr.Reduce_and), _) -> Some Htype.Bit
  | Expr.Binop (op, e1, e2) ->
    if Expr.is_boolean_op op then Some Htype.Bit
    else (
      match static_type env e1, static_type env e2 with
      | Some t1, Some t2 ->
        Some (Htype.Unsigned (max (Htype.width t1) (Htype.width t2)))
      | only1, only2 -> (
        match only1 with
        | Some _ -> only1
        | None -> only2))
  | Expr.Mux (_, a, b) -> (
    match static_type env a with
    | Some _ as ty -> ty
    | None -> static_type env b)
  | Expr.Slice (_, hi, lo) ->
    Some (if hi = lo then Htype.Bit else Htype.Unsigned (hi - lo + 1))
  | Expr.Concat (e1, e2) -> (
    match static_type env e1, static_type env e2 with
    | Some t1, Some t2 ->
      Some (Htype.Unsigned (Htype.width t1 + Htype.width t2))
    | _other1, _other2 -> None)
  | Expr.Resize (_, w) ->
    Some (if w = 1 then Htype.Bit else Htype.Unsigned w)

let type_mask ty = mask_bits (Htype.width ty)

(* Compile an expression to a closure over the value array.  Every
   branch resolves widths, masks and enum encodings here, once. *)
let rec compile_expr env (e : Expr.t) : int array -> int =
  match e with
  | Expr.Const (v, ty) ->
    let c = v land type_mask ty in
    fun _vals -> c
  | Expr.Enum_lit lit ->
    let i = enum_index env lit in
    fun _vals -> i
  | Expr.Ref name ->
    let i = read_index env name in
    fun vals -> Array.unsafe_get vals i
  | Expr.Unop (Expr.Not, e1) -> (
    let f = compile_expr env e1 in
    match static_type env e1 with
    | Some ty ->
      let m = type_mask ty in
      fun vals -> lnot (f vals) land m
    | None -> fun vals -> lnot (f vals) land 1)
  | Expr.Unop (Expr.Reduce_or, e1) ->
    let f = compile_expr env e1 in
    fun vals -> if f vals <> 0 then 1 else 0
  | Expr.Unop (Expr.Reduce_and, e1) -> (
    let f = compile_expr env e1 in
    match static_type env e1 with
    | Some ty ->
      let top = Htype.max_value ty in
      fun vals -> if f vals = top then 1 else 0
    | None -> fun vals -> f vals land 1)
  | Expr.Binop (op, e1, e2) -> compile_binop env op e1 e2
  | Expr.Mux (c, a, b) ->
    let fc = compile_expr env c in
    let fa = compile_expr env a in
    let fb = compile_expr env b in
    fun vals -> if fc vals <> 0 then fa vals else fb vals
  | Expr.Slice (e1, hi, lo) ->
    let f = compile_expr env e1 in
    let m = mask_bits (hi - lo + 1) in
    fun vals -> (f vals lsr lo) land m
  | Expr.Concat (e1, e2) -> (
    let f1 = compile_expr env e1 in
    let f2 = compile_expr env e2 in
    match static_type env e2 with
    | Some ty2 ->
      let shift = Htype.width ty2 in
      let m2 = type_mask ty2 in
      fun vals -> (f1 vals lsl shift) lor (f2 vals land m2)
    | None -> fun vals -> (f1 vals lsl 1) lor (f2 vals land 1))
  | Expr.Resize (e1, w) ->
    let f = compile_expr env e1 in
    let m = mask_bits w in
    fun vals -> f vals land m

and compile_binop env op e1 e2 =
  let f1 = compile_expr env e1 in
  let f2 = compile_expr env e2 in
  let wide =
    match static_type env e1, static_type env e2 with
    | Some t1, Some t2 ->
      Htype.Unsigned (max (Htype.width t1) (Htype.width t2))
    | Some t1, None -> t1
    | None, Some t2 -> t2
    | None, None -> Htype.Unsigned 62
  in
  let m = type_mask wide in
  match op with
  | Expr.And -> fun vals -> f1 vals land f2 vals
  | Expr.Or -> fun vals -> f1 vals lor f2 vals
  | Expr.Xor -> fun vals -> f1 vals lxor f2 vals
  | Expr.Add -> fun vals -> (f1 vals + f2 vals) land m
  | Expr.Sub -> fun vals -> (f1 vals - f2 vals) land m
  | Expr.Mul -> fun vals -> f1 vals * f2 vals land m
  | Expr.Eq -> fun vals -> if f1 vals = f2 vals then 1 else 0
  | Expr.Neq -> fun vals -> if f1 vals <> f2 vals then 1 else 0
  | Expr.Lt -> fun vals -> if f1 vals < f2 vals then 1 else 0
  | Expr.Le -> fun vals -> if f1 vals <= f2 vals then 1 else 0
  | Expr.Gt -> fun vals -> if f1 vals > f2 vals then 1 else 0
  | Expr.Ge -> fun vals -> if f1 vals >= f2 vals then 1 else 0
  | Expr.Shl -> fun vals -> (f1 vals lsl min (f2 vals) 62) land m
  | Expr.Shr -> fun vals -> f1 vals lsr min (f2 vals) 62

let rec compile_stmt env (s : Stmt.t) : body =
  match s with
  | Stmt.Null -> fun _vals _write -> ()
  | Stmt.Assign (target, e) ->
    let ti = write_index env target in
    let f = compile_expr env e in
    fun vals write -> write ti (f vals)
  | Stmt.If (c, t_branch, e_branch) ->
    let fc = compile_expr env c in
    let ft = compile_body env t_branch in
    let fe = compile_body env e_branch in
    fun vals write ->
      if fc vals <> 0 then ft vals write else fe vals write
  | Stmt.Case (sel, branches, default) ->
    let fsel = compile_expr env sel in
    let comp =
      Array.of_list
        (List.map
           (fun (choice, branch_body) ->
             let v =
               match choice with
               | Stmt.Ch_int i -> i
               | Stmt.Ch_enum lit -> enum_index env lit
             in
             (v, compile_body env branch_body))
           branches)
    in
    let fdefault =
      match default with
      | Some d -> compile_body env d
      | None -> fun _vals _write -> ()
    in
    let n = Array.length comp in
    fun vals write ->
      let v = fsel vals in
      let rec scan i =
        if i >= n then fdefault vals write
        else (
          let choice, branch = comp.(i) in
          if choice = v then branch vals write else scan (i + 1))
      in
      scan 0

and compile_body env stmts : body =
  match List.map (compile_stmt env) stmts with
  | [] -> fun _vals _write -> ()
  | [ one ] -> one
  | many ->
    let arr = Array.of_list many in
    fun vals write -> Array.iter (fun s -> s vals write) arr

(* Read/write sets as sorted, deduplicated index arrays. *)
let index_set env names =
  let ids = List.filter_map (fun n -> find env n) names in
  Array.of_list (List.sort_uniq compare ids)

(* Topological order over comb processes (edge p -> q when p writes a
   signal q reads, including self-loops); [None] on any cycle.  The
   repeated min-index scan keeps the order deterministic; process
   counts are small enough that O(n^2) is irrelevant. *)
let levelize (comb : comb array) nsignals =
  let n = Array.length comb in
  let writers = Array.make nsignals [] in
  Array.iteri
    (fun p c ->
      Array.iter (fun s -> writers.(s) <- p :: writers.(s)) c.c_writes)
    comb;
  let succs = Array.make n [] in
  let indegree = Array.make n 0 in
  Array.iteri
    (fun q c ->
      Array.iter
        (fun s ->
          List.iter
            (fun p ->
              if not (List.mem q succs.(p)) then begin
                succs.(p) <- q :: succs.(p);
                indegree.(q) <- indegree.(q) + 1
              end)
            writers.(s))
        c.c_reads)
    comb;
  let order = Array.make n 0 in
  let placed = Array.make n false in
  let exception Cyclic in
  match
    for slot = 0 to n - 1 do
      let next = ref (-1) in
      for p = n - 1 downto 0 do
        if (not placed.(p)) && indegree.(p) = 0 then next := p
      done;
      if !next < 0 then raise Cyclic;
      placed.(!next) <- true;
      order.(slot) <- !next;
      List.iter (fun q -> indegree.(q) <- indegree.(q) - 1) succs.(!next)
    done
  with
  | () -> Some order
  | exception Cyclic -> None

let compile (m : Module_.t) =
  let decls =
    List.map
      (fun (p : Module_.port) -> (p.Module_.port_name, p.Module_.port_type, 0))
      m.Module_.mod_ports
    @ List.map
        (fun (s : Module_.signal) ->
          let init =
            match s.Module_.sig_init with
            | Some v -> v
            | None -> 0
          in
          (s.Module_.sig_name, s.Module_.sig_type, init))
        m.Module_.mod_signals
  in
  let n = List.length decls in
  let names = Array.make n "" in
  let types = Array.make n Htype.Bit in
  let init = Array.make n 0 in
  let masks = Array.make n 0 in
  let index = Hashtbl.create (2 * n) in
  let enum_of_lit = Hashtbl.create 16 in
  List.iteri
    (fun i (name, ty, v) ->
      names.(i) <- name;
      types.(i) <- ty;
      masks.(i) <- type_mask ty;
      init.(i) <- v land masks.(i);
      (* duplicate declarations resolve to the later slot, matching the
         interpreter's Hashtbl.replace *)
      Hashtbl.replace index name i;
      match ty with
      | Htype.Enum lits ->
        List.iteri (fun k l -> Hashtbl.replace enum_of_lit l k) lits
      | Htype.Bit | Htype.Unsigned _ -> ())
    decls;
  let env = { e_index = index; e_types = types; e_enum_of_lit = enum_of_lit } in
  let comb = ref [] in
  let seq = ref [] in
  List.iter
    (fun p ->
      match p with
      | Module_.Comb cp ->
        comb :=
          {
            c_name = cp.Module_.cp_name;
            c_reads = index_set env (Stmt.read cp.Module_.cp_body);
            c_writes = index_set env (Stmt.assigned cp.Module_.cp_body);
            c_body = compile_body env cp.Module_.cp_body;
          }
          :: !comb
      | Module_.Seq sp ->
        seq :=
          {
            q_name = sp.Module_.sp_name;
            q_clock = sp.Module_.sp_clock;
            q_reads = index_set env (Stmt.read sp.Module_.sp_body);
            q_writes = index_set env (Stmt.assigned sp.Module_.sp_body);
            q_reset =
              (match sp.Module_.sp_reset with
               | Some (rst, reset_body) ->
                 Some (read_index env rst, compile_body env reset_body)
               | None -> None);
            q_body = compile_body env sp.Module_.sp_body;
          }
          :: !seq)
    m.Module_.mod_processes;
  let comb = Array.of_list (List.rev !comb) in
  let seq = Array.of_list (List.rev !seq) in
  let fanout_lists = Array.make n [] in
  Array.iteri
    (fun p c ->
      Array.iter
        (fun s -> fanout_lists.(s) <- p :: fanout_lists.(s))
        c.c_reads)
    comb;
  let fanout =
    Array.map (fun l -> Array.of_list (List.sort_uniq compare l)) fanout_lists
  in
  let snapshot =
    let by_name =
      List.sort_uniq String.compare (Array.to_list names)
    in
    Array.of_list (List.map (fun name -> Hashtbl.find index name) by_name)
  in
  {
    nl_module = m;
    nl_names = names;
    nl_types = types;
    nl_index = index;
    nl_init = init;
    nl_mask = masks;
    nl_comb = comb;
    nl_seq = seq;
    nl_fanout = fanout;
    nl_levels = levelize comb n;
    nl_snapshot = snapshot;
  }

let index t name = Hashtbl.find_opt t.nl_index name
