open Hdl

let err fmt =
  Printf.ksprintf (fun m -> raise (Dsim.Netlist.Simulation_error m)) fmt

type t = {
  m : Module_.t;
  values : (string, int) Hashtbl.t;
  types : (string, Htype.t) Hashtbl.t;
  enum_of_lit : (string, int) Hashtbl.t;  (** literal -> index *)
  order : (string * Htype.t) list;  (** declaration order *)
  snap_order : string list;  (** names sorted, deduplicated *)
  mutable event_count : int;
  mutable delta_count : int;
  s_metrics : Telemetry.Metrics.t;
  m_events : Telemetry.Metrics.counter;
  m_deltas : Telemetry.Metrics.counter;
}

(* All-ones mask for a width; [1 lsl w] overflows the native int sign
   for w >= 62, so wide values use the identity mask (raw ints). *)
let mask_bits w = if w >= 62 then -1 else (1 lsl w) - 1

let mask ty v = v land mask_bits (Htype.width ty)

let module_of t = t.m

let declared_value t name =
  match Hashtbl.find_opt t.values name with
  | Some v -> v
  | None -> err "unknown signal %s" name

let get t name = declared_value t name

let get_enum t name =
  match Hashtbl.find_opt t.types name with
  | Some (Htype.Enum lits) -> (
    let v = declared_value t name in
    match List.nth_opt lits v with
    | Some l -> l
    | None -> err "enum value %d out of range for %s" v name)
  | Some _ -> err "%s is not enum-typed" name
  | None -> err "unknown signal %s" name

let rec eval t (e : Expr.t) =
  match e with
  | Expr.Const (v, ty) -> mask ty v
  | Expr.Enum_lit lit -> (
    match Hashtbl.find_opt t.enum_of_lit lit with
    | Some i -> i
    | None -> err "unknown enum literal %s" lit)
  | Expr.Ref name -> declared_value t name
  | Expr.Unop (Expr.Not, e1) -> (
    let v = eval t e1 in
    match type_of t e1 with
    | Some ty -> mask ty (lnot v)
    | None -> lnot v land 1)
  | Expr.Unop (Expr.Reduce_or, e1) -> if eval t e1 <> 0 then 1 else 0
  | Expr.Unop (Expr.Reduce_and, e1) -> (
    let v = eval t e1 in
    match type_of t e1 with
    | Some ty -> if v = Htype.max_value ty then 1 else 0
    | None -> v land 1)
  | Expr.Binop (op, e1, e2) -> eval_binop t op e1 e2
  | Expr.Mux (c, a, b) -> if eval t c <> 0 then eval t a else eval t b
  | Expr.Slice (e1, hi, lo) ->
    let v = eval t e1 in
    (v lsr lo) land mask_bits (hi - lo + 1)
  | Expr.Concat (e1, e2) -> (
    let v1 = eval t e1 in
    let v2 = eval t e2 in
    match type_of t e2 with
    | Some ty2 -> (v1 lsl Htype.width ty2) lor mask ty2 v2
    | None -> (v1 lsl 1) lor (v2 land 1))
  | Expr.Resize (e1, w) -> eval t e1 land mask_bits w

and eval_binop t op e1 e2 =
  let v1 = eval t e1 in
  let v2 = eval t e2 in
  let wide =
    match type_of t e1, type_of t e2 with
    | Some t1, Some t2 ->
      Htype.Unsigned (max (Htype.width t1) (Htype.width t2))
    | Some t1, None -> t1
    | None, Some t2 -> t2
    | None, None -> Htype.Unsigned 62
  in
  match op with
  | Expr.And -> v1 land v2
  | Expr.Or -> v1 lor v2
  | Expr.Xor -> v1 lxor v2
  | Expr.Add -> mask wide (v1 + v2)
  | Expr.Sub -> mask wide (v1 - v2)
  | Expr.Mul -> mask wide (v1 * v2)
  | Expr.Eq -> if v1 = v2 then 1 else 0
  | Expr.Neq -> if v1 <> v2 then 1 else 0
  | Expr.Lt -> if v1 < v2 then 1 else 0
  | Expr.Le -> if v1 <= v2 then 1 else 0
  | Expr.Gt -> if v1 > v2 then 1 else 0
  | Expr.Ge -> if v1 >= v2 then 1 else 0
  | Expr.Shl -> mask wide (v1 lsl min v2 62)
  | Expr.Shr -> v1 lsr min v2 62

and type_of t (e : Expr.t) =
  match e with
  | Expr.Const (_, ty) -> Some ty
  | Expr.Ref name -> Hashtbl.find_opt t.types name
  | Expr.Enum_lit _ -> None
  | Expr.Unop (Expr.Not, e1) -> type_of t e1
  | Expr.Unop ((Expr.Reduce_or | Expr.Reduce_and), _) -> Some Htype.Bit
  | Expr.Binop (op, e1, e2) ->
    if Expr.is_boolean_op op then Some Htype.Bit
    else (
      match type_of t e1, type_of t e2 with
      | Some t1, Some t2 ->
        Some (Htype.Unsigned (max (Htype.width t1) (Htype.width t2)))
      | only1, only2 -> (
        match only1 with
        | Some _ -> only1
        | None -> only2))
  | Expr.Mux (_, a, b) -> (
    match type_of t a with
    | Some _ as ty -> ty
    | None -> type_of t b)
  | Expr.Slice (_, hi, lo) ->
    Some (if hi = lo then Htype.Bit else Htype.Unsigned (hi - lo + 1))
  | Expr.Concat (e1, e2) -> (
    match type_of t e1, type_of t e2 with
    | Some t1, Some t2 ->
      Some (Htype.Unsigned (Htype.width t1 + Htype.width t2))
    | _other1, _other2 -> None)
  | Expr.Resize (_, w) ->
    Some (if w = 1 then Htype.Bit else Htype.Unsigned w)

(* Execute statements; [write] receives assignments. *)
let rec exec t write (s : Stmt.t) =
  match s with
  | Stmt.Null -> ()
  | Stmt.Assign (target, e) -> write target (eval t e)
  | Stmt.If (c, t_branch, e_branch) ->
    if eval t c <> 0 then List.iter (exec t write) t_branch
    else List.iter (exec t write) e_branch
  | Stmt.Case (sel, branches, default) -> (
    let v = eval t sel in
    let matches (choice, _) =
      match choice with
      | Stmt.Ch_int i -> i = v
      | Stmt.Ch_enum lit -> (
        match Hashtbl.find_opt t.enum_of_lit lit with
        | Some i -> i = v
        | None -> err "unknown enum literal %s" lit)
    in
    match List.find_opt matches branches with
    | Some (_, body) -> List.iter (exec t write) body
    | None -> (
      match default with
      | Some body -> List.iter (exec t write) body
      | None -> ()))

let write_now t name v =
  let ty =
    match Hashtbl.find_opt t.types name with
    | Some ty -> ty
    | None -> err "assignment to unknown signal %s" name
  in
  let v = mask ty v in
  let old = declared_value t name in
  if old <> v then begin
    Hashtbl.replace t.values name v;
    t.event_count <- t.event_count + 1;
    Telemetry.Metrics.incr t.m_events;
    true
  end
  else false

(* Settle combinational processes: evaluate every comb process; repeat
   while anything changed (delta cycles), bounded. *)
let settle t =
  let rec loop rounds =
    if rounds > 1000 then err "combinational logic did not settle";
    let changed = ref false in
    List.iter
      (fun p ->
        match p with
        | Module_.Comb cp ->
          t.event_count <- t.event_count + 1;
          Telemetry.Metrics.incr t.m_events;
          let write name v = if write_now t name v then changed := true in
          List.iter (exec t write) cp.Module_.cp_body
        | Module_.Seq _ -> ())
      t.m.Module_.mod_processes;
    t.delta_count <- t.delta_count + 1;
    Telemetry.Metrics.incr t.m_deltas;
    if !changed then loop (rounds + 1)
  in
  loop 0

let create ?(metrics = Telemetry.Metrics.null) m =
  let order =
    List.map
      (fun (p : Module_.port) -> (p.Module_.port_name, p.Module_.port_type))
      m.Module_.mod_ports
    @ List.map
        (fun (s : Module_.signal) -> (s.Module_.sig_name, s.Module_.sig_type))
        m.Module_.mod_signals
  in
  let t =
    {
      m;
      values = Hashtbl.create 64;
      types = Hashtbl.create 64;
      enum_of_lit = Hashtbl.create 16;
      order;
      snap_order = List.sort_uniq String.compare (List.map fst order);
      event_count = 0;
      delta_count = 0;
      s_metrics = metrics;
      m_events = Telemetry.Metrics.counter metrics "dsim.events";
      m_deltas = Telemetry.Metrics.counter metrics "dsim.delta_cycles";
    }
  in
  let declare name ty init =
    Hashtbl.replace t.types name ty;
    Hashtbl.replace t.values name (mask ty init);
    match ty with
    | Htype.Enum lits ->
      List.iteri (fun i l -> Hashtbl.replace t.enum_of_lit l i) lits
    | Htype.Bit | Htype.Unsigned _ -> ()
  in
  List.iter
    (fun (p : Module_.port) -> declare p.Module_.port_name p.Module_.port_type 0)
    m.Module_.mod_ports;
  List.iter
    (fun (s : Module_.signal) ->
      let init =
        match s.Module_.sig_init with
        | Some v -> v
        | None -> 0
      in
      declare s.Module_.sig_name s.Module_.sig_type init)
    m.Module_.mod_signals;
  settle t;
  t

let set_input t name v =
  let _changed = write_now t name v in
  settle t

let clock_edge t clock =
  (* sample phase: sequential processes write into a buffer *)
  let pending = Hashtbl.create 16 in
  List.iter
    (fun p ->
      match p with
      | Module_.Seq sp when sp.Module_.sp_clock = clock ->
        t.event_count <- t.event_count + 1;
        Telemetry.Metrics.incr t.m_events;
        let write name v = Hashtbl.replace pending name v in
        let in_reset =
          match sp.Module_.sp_reset with
          | Some (rst, reset_body) when declared_value t rst <> 0 ->
            List.iter (exec t write) reset_body;
            true
          | Some _ | None -> false
        in
        if not in_reset then List.iter (exec t write) sp.Module_.sp_body
      | Module_.Seq _ | Module_.Comb _ -> ())
    t.m.Module_.mod_processes;
  (* commit phase, in declaration order ([t.order]): committing by
     [Hashtbl.iter] would make the winner of two same-edge writers (and
     the resulting event/delta counts) depend on hash-table internals.
     This engine is the oracle [Dsim.Fast] is differentially tested
     against, so its output must not vary with bucket layout. *)
  List.iter
    (fun (name, _ty) ->
      match Hashtbl.find_opt pending name with
      | Some v ->
        ignore (write_now t name v);
        Hashtbl.remove pending name
      | None -> ())
    t.order;
  (* anything left targets an undeclared signal; surface [write_now]'s
     diagnostic for the smallest such name *)
  if Hashtbl.length pending <> 0 then begin
    let names = Hashtbl.fold (fun name _v acc -> name :: acc) pending [] in
    let name = List.fold_left min (List.hd names) names in
    ignore (write_now t name (Hashtbl.find pending name))
  end;
  settle t

let cycle ?(inputs = []) t clock =
  List.iter (fun (name, v) -> ignore (write_now t name v)) inputs;
  settle t;
  clock_edge t clock

let run t ~clock ~cycles =
  for _ = 1 to cycles do
    clock_edge t clock
  done

let events t = t.event_count
let delta_cycles t = t.delta_count
let metrics t = t.s_metrics
let signals t = t.order

(* [snap_order] is precomputed at [create] (sorted by name, duplicates
   removed), so a snapshot is one O(n) walk instead of rebuilding and
   re-sorting the whole table per call. *)
let snapshot t =
  List.map (fun name -> (name, declared_value t name)) t.snap_order

let probe t =
  {
    Dsim.Probe.pr_module = t.m;
    pr_get = (fun name -> declared_value t name);
    pr_signals = t.order;
  }
