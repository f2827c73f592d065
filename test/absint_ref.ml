(* Reference oracle for the [reference] differential suite in
   [test_dataflow]: the map-based abstract interpreter ([aval SMap.t]
   environments, [SSet.t] assigned sets, uses re-derived on every
   liveness sweep) that the slot-based [Dataflow.Absint] replaced, kept
   verbatim bar module paths and the two type re-exports that let the
   suite compare whole [result] records, so any drift in reachability,
   visit counts (and with them the widening point), findings or the
   exit-assigned set shows up as a counterexample. *)

module Cfg = Dataflow.Cfg
module A = Asl.Ast
module SMap = Map.Make (String)
module SSet = Set.Make (String)

type aval =
  | Top
  | A_int of int * int
  | A_bool of bool option

let equal_aval a b =
  match (a, b) with
  | Top, Top -> true
  | A_int (l1, h1), A_int (l2, h2) -> l1 = l2 && h1 = h2
  | A_bool x, A_bool y -> x = y
  | Top, (A_int _ | A_bool _)
  | A_int _, (Top | A_bool _)
  | A_bool _, (Top | A_int _) ->
    false

let join_aval a b =
  match (a, b) with
  | Top, _ | _, Top -> Top
  | A_int (l1, h1), A_int (l2, h2) -> A_int (min l1 l2, max h1 h2)
  | A_bool x, A_bool y -> A_bool (if x = y then x else None)
  | A_int _, A_bool _ | A_bool _, A_int _ -> Top

(* Intervals that keep growing across loop iterations go straight to
   Top, bounding the fixpoint. *)
let widen_aval old joined =
  match (old, joined) with
  | A_int (l1, h1), A_int (l2, h2) -> if l2 < l1 || h2 > h1 then Top else joined
  | (Top | A_bool _), _ | _, (Top | A_bool _) -> joined

let as_int v =
  match v with
  | A_int (l, h) -> Some (l, h)
  | Top | A_bool _ -> None

let known_bool v =
  match v with
  | A_bool o -> o
  | Top | A_int _ -> None

let rec eval env (e : A.expr) =
  match e with
  | A.Int_lit n -> A_int (n, n)
  | A.Bool_lit b -> A_bool (Some b)
  | A.Real_lit _ | A.String_lit _ | A.Null_lit | A.Self | A.New _ | A.Attr _
  | A.Call _ ->
    Top
  | A.Var x -> (
    match SMap.find_opt x env with
    | Some v -> v
    | None -> Top)
  | A.Unop (A.Neg, e1) -> (
    match eval env e1 with
    | A_int (l, h) -> A_int (-h, -l)
    | Top | A_bool _ -> Top)
  | A.Unop (A.Not, e1) -> (
    match eval env e1 with
    | A_bool o -> A_bool (Option.map not o)
    | Top | A_int _ -> Top)
  | A.Binop (op, e1, e2) -> eval_binop op (eval env e1) (eval env e2)

and eval_binop op va vb =
  let ints =
    match (as_int va, as_int vb) with
    | Some a, Some b -> Some (a, b)
    | None, (Some _ | None) | Some _, None -> None
  in
  let cmp f =
    match ints with
    | Some ((l1, h1), (l2, h2)) -> A_bool (f l1 h1 l2 h2)
    | None -> A_bool None
  in
  match op with
  | A.Add -> (
    match ints with
    | Some ((l1, h1), (l2, h2)) -> A_int (l1 + l2, h1 + h2)
    | None -> Top)
  | A.Sub -> (
    match ints with
    | Some ((l1, h1), (l2, h2)) -> A_int (l1 - h2, h1 - l2)
    | None -> Top)
  | A.Mul -> (
    match ints with
    | Some ((l1, h1), (l2, h2)) ->
      let ps = [ l1 * l2; l1 * h2; h1 * l2; h1 * h2 ] in
      A_int (List.fold_left min max_int ps, List.fold_left max min_int ps)
    | None -> Top)
  | A.Div | A.Mod | A.Concat -> Top
  | A.Lt ->
    cmp (fun l1 h1 l2 h2 ->
        if h1 < l2 then Some true else if l1 >= h2 then Some false else None)
  | A.Le ->
    cmp (fun l1 h1 l2 h2 ->
        if h1 <= l2 then Some true else if l1 > h2 then Some false else None)
  | A.Gt ->
    cmp (fun l1 h1 l2 h2 ->
        if l1 > h2 then Some true else if h1 <= l2 then Some false else None)
  | A.Ge ->
    cmp (fun l1 h1 l2 h2 ->
        if l1 >= h2 then Some true else if h1 < l2 then Some false else None)
  | A.Eq -> (
    match ints with
    | Some ((l1, h1), (l2, h2)) ->
      if l1 = h1 && l2 = h2 && l1 = l2 then A_bool (Some true)
      else if h1 < l2 || h2 < l1 then A_bool (Some false)
      else A_bool None
    | None -> (
      match (known_bool va, known_bool vb) with
      | Some x, Some y -> A_bool (Some (x = y))
      | None, (Some _ | None) | Some _, None -> A_bool None))
  | A.Ne -> (
    match eval_binop A.Eq va vb with
    | A_bool o -> A_bool (Option.map not o)
    | Top | A_int _ -> A_bool None)
  | A.And -> (
    match (known_bool va, known_bool vb) with
    | Some false, _ | _, Some false -> A_bool (Some false)
    | Some true, Some true -> A_bool (Some true)
    | (Some true | None), None | None, Some true -> A_bool None)
  | A.Or -> (
    match (known_bool va, known_bool vb) with
    | Some true, _ | _, Some true -> A_bool (Some true)
    | Some false, Some false -> A_bool (Some false)
    | (Some false | None), None | None, Some false -> A_bool None)

let const_bool e = known_bool (eval SMap.empty e)

(* --- forward fixpoint -------------------------------------------------- *)

type state = {
  st_env : aval SMap.t;
  st_asg : SSet.t;
}

let join_state a b =
  {
    st_env =
      SMap.merge
        (fun _ x y ->
          match (x, y) with
          | Some v, Some w -> Some (join_aval v w)
          | Some _, None | None, Some _ -> Some Top
          | None, None -> None)
        a.st_env b.st_env;
    st_asg = SSet.inter a.st_asg b.st_asg;
  }

let widen_state old joined =
  {
    joined with
    st_env =
      SMap.merge
        (fun _ o j ->
          match (o, j) with
          | Some ov, Some jv -> Some (widen_aval ov jv)
          | None, (Some _ | None) -> j
          | Some _, None -> None)
        old.st_env joined.st_env;
  }

let equal_state a b =
  SSet.equal a.st_asg b.st_asg && SMap.equal equal_aval a.st_env b.st_env

(* Out-state of [node] along successor slot [k]; [None] = edge pruned
   by constant folding. *)
let edge_out node k st =
  match node.Cfg.n_kind with
  | Cfg.Entry | Cfg.Exit | Cfg.Nop -> Some st
  | Cfg.Stmt s -> (
    match s with
    | A.Var_decl (x, e) | A.Assign (A.L_var x, e) ->
      Some
        {
          st_env = SMap.add x (eval st.st_env e) st.st_env;
          st_asg = SSet.add x st.st_asg;
        }
    | A.Skip
    | A.Assign (A.L_attr _, _)
    | A.Expr_stmt _ | A.Return _ | A.Send _ | A.Delete _ | A.If _ | A.While _
    | A.For _ ->
      Some st)
  | Cfg.Branch c -> (
    match (known_bool (eval st.st_env c), k) with
    | Some false, 0 -> None (* then edge dead *)
    | Some true, 1 -> None (* else edge dead *)
    | (Some true | Some false | None), _ -> Some st)
  | Cfg.For_head (x, lo, hi) ->
    let bounds = (as_int (eval st.st_env lo), as_int (eval st.st_env hi)) in
    if k = 0 then (
      (* body edge: dead when the bounds are provably inverted *)
      match bounds with
      | Some (l1, _), Some (_, h2) when l1 > h2 -> None
      | Some (l1, _), Some (_, h2) ->
        Some
          {
            st_env = SMap.add x (A_int (l1, h2)) st.st_env;
            st_asg = SSet.add x st.st_asg;
          }
      | None, (Some _ | None) | Some _, None ->
        Some
          { st_env = SMap.add x Top st.st_env; st_asg = SSet.add x st.st_asg })
    else
      (* after edge: the loop variable holds a value only when the loop
         provably ran at least once *)
      let provably_runs =
        match bounds with
        | Some (_, h1), Some (l2, _) -> h1 <= l2
        | None, (Some _ | None) | Some _, None -> false
      in
      Some
        {
          st_env = SMap.add x Top st.st_env;
          st_asg = (if provably_runs then SSet.add x st.st_asg else st.st_asg);
        }

let forward ~assigned (cfg : Cfg.t) =
  let n = Array.length cfg.Cfg.nodes in
  let states = Array.make n None in
  let visits = Array.make n 0 in
  let queued = Array.make n false in
  let queue = Queue.create () in
  let enqueue i =
    if not queued.(i) then begin
      queued.(i) <- true;
      Queue.push i queue
    end
  in
  let init =
    {
      st_env =
        List.fold_left (fun m x -> SMap.add x Top m) SMap.empty assigned;
      st_asg = SSet.of_list assigned;
    }
  in
  states.(cfg.Cfg.entry) <- Some init;
  enqueue cfg.Cfg.entry;
  while not (Queue.is_empty queue) do
    let i = Queue.pop queue in
    queued.(i) <- false;
    let node = cfg.Cfg.nodes.(i) in
    match states.(i) with
    | None -> ()
    | Some st ->
      List.iteri
        (fun k sid ->
          match edge_out node k st with
          | None -> ()
          | Some out -> (
            let updated =
              match states.(sid) with
              | None -> Some out
              | Some old ->
                let j = join_state old out in
                let j = if visits.(sid) > 8 then widen_state old j else j in
                if equal_state old j then None else Some j
            in
            match updated with
            | None -> ()
            | Some s ->
              visits.(sid) <- visits.(sid) + 1;
              states.(sid) <- Some s;
              enqueue sid))
        node.Cfg.n_succs
  done;
  states

(* --- results ----------------------------------------------------------- *)

type liveout = Dataflow.Absint.liveout =
  | Live_none
  | Live_all

type result = Dataflow.Absint.result = {
  res_reachable : bool array;
  res_uninit : (int * string) list;
  res_unreachable : int list;
  res_dead : (int * string) list;
  res_exit_assigned : string list;
}

let rec pure (e : A.expr) =
  match e with
  | A.Int_lit _ | A.Real_lit _ | A.Bool_lit _ | A.String_lit _ | A.Null_lit
  | A.Self | A.Var _ ->
    true
  | A.Attr (obj, _) -> pure obj
  | A.Unop (_, e1) -> pure e1
  | A.Binop (_, e1, e2) -> pure e1 && pure e2
  | A.Call _ | A.New _ -> false

let analyze ?(assigned = []) ?(extra_defs = []) ?(liveout = Live_none) cfg =
  let n = Array.length cfg.Cfg.nodes in
  let states = forward ~assigned cfg in
  let reachable = Array.map (fun s -> s <> None) states in
  let own_defs =
    Array.fold_left
      (fun acc node ->
        match Cfg.def node with
        | Some x -> SSet.add x acc
        | None -> acc)
      SSet.empty cfg.Cfg.nodes
  in
  let reportable_defs =
    List.fold_left (fun acc x -> SSet.add x acc) own_defs extra_defs
  in
  (* DF-01: reachable reads not definitely assigned. *)
  let uninit = ref [] in
  Array.iteri
    (fun i node ->
      match states.(i) with
      | None -> ()
      | Some st ->
        List.iter
          (fun x ->
            if SSet.mem x reportable_defs && not (SSet.mem x st.st_asg) then
              uninit := (i, x) :: !uninit)
          (Cfg.uses node))
    cfg.Cfg.nodes;
  (* DF-03: first statement-bearing node of each unreachable region. *)
  let reportable node =
    match node.Cfg.n_kind with
    | Cfg.Stmt _ | Cfg.Branch _ | Cfg.For_head _ -> true
    | Cfg.Entry | Cfg.Exit | Cfg.Nop -> false
  in
  let unreachable = ref [] in
  let visited = Array.make n false in
  let rec walk i =
    if not visited.(i) then begin
      visited.(i) <- true;
      let node = cfg.Cfg.nodes.(i) in
      if reportable node then unreachable := i :: !unreachable
      else
        List.iter (fun s -> if not reachable.(s) then walk s) node.Cfg.n_succs
    end
  in
  Array.iteri
    (fun i node ->
      if
        (not reachable.(i))
        && List.for_all (fun p -> reachable.(p)) node.Cfg.n_preds
      then walk i)
    cfg.Cfg.nodes;
  (* DF-02: backward liveness over all edges (conservative). *)
  let exit_live =
    match liveout with
    | Live_none -> SSet.empty
    | Live_all ->
      List.fold_left (fun acc x -> SSet.add x acc) own_defs assigned
  in
  let live_in = Array.make n SSet.empty in
  let live_out i =
    let node = cfg.Cfg.nodes.(i) in
    let out =
      List.fold_left
        (fun acc s -> SSet.union acc live_in.(s))
        SSet.empty node.Cfg.n_succs
    in
    if i = cfg.Cfg.exit_ then SSet.union out exit_live else out
  in
  let changed = ref true in
  while !changed do
    changed := false;
    for i = n - 1 downto 0 do
      let node = cfg.Cfg.nodes.(i) in
      let kill =
        match Cfg.def node with
        | Some x -> SSet.remove x (live_out i)
        | None -> live_out i
      in
      let newin =
        List.fold_left (fun acc x -> SSet.add x acc) kill (Cfg.uses node)
      in
      if not (SSet.equal newin live_in.(i)) then begin
        live_in.(i) <- newin;
        changed := true
      end
    done
  done;
  let dead = ref [] in
  Array.iteri
    (fun i node ->
      if reachable.(i) then
        match node.Cfg.n_kind with
        | Cfg.Stmt (A.Var_decl (x, e)) | Cfg.Stmt (A.Assign (A.L_var x, e)) ->
          if pure e && not (SSet.mem x (live_out i)) then
            dead := (i, x) :: !dead
        | Cfg.Stmt
            ( A.Skip
            | A.Assign (A.L_attr _, _)
            | A.Expr_stmt _ | A.Return _ | A.Send _ | A.Delete _ | A.If _
            | A.While _ | A.For _ )
        | Cfg.Entry | Cfg.Exit | Cfg.Nop | Cfg.Branch _ | Cfg.For_head _ ->
          ())
    cfg.Cfg.nodes;
  let exit_assigned =
    match states.(cfg.Cfg.exit_) with
    | Some st -> SSet.elements st.st_asg
    | None ->
      (* the program provably never terminates: be optimistic so later
         actions don't cascade *)
      SSet.elements
        (List.fold_left (fun acc x -> SSet.add x acc) own_defs assigned)
  in
  {
    res_reachable = reachable;
    res_uninit = List.sort compare (List.rev !uninit);
    res_unreachable = List.sort compare (List.rev !unreachable);
    res_dead = List.sort compare (List.rev !dead);
    res_exit_assigned = exit_assigned;
  }
