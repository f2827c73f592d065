module A = Asl.Ast

(* Integer [min]/[max]: the polymorphic ones go through the runtime's
   generic comparison on every interval join. *)
let min (a : int) b = if a <= b then a else b

let max (a : int) b = if a >= b then a else b

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

let rec eval_binop op va vb =
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

(* --- slot-indexed programs ------------------------------------------ *)

(* An expression with every variable resolved to its slot; [Top] stands
   for a variable without one. *)
type cexpr =
  | C_const of aval
  | C_slot of int
  | C_neg of cexpr
  | C_not of cexpr
  | C_binop of A.binop * cexpr * cexpr

let rec compile slot_of (e : A.expr) =
  match e with
  | A.Int_lit n -> C_const (A_int (n, n))
  | A.Bool_lit b -> C_const (A_bool (Some b))
  | A.Real_lit _ | A.String_lit _ | A.Null_lit | A.Self | A.New _ | A.Attr _
  | A.Call _ ->
    C_const Top
  | A.Var x -> (
    match slot_of x with
    | Some s -> C_slot s
    | None -> C_const Top)
  | A.Unop (A.Neg, e1) -> C_neg (compile slot_of e1)
  | A.Unop (A.Not, e1) -> C_not (compile slot_of e1)
  | A.Binop (op, e1, e2) -> C_binop (op, compile slot_of e1, compile slot_of e2)

(* An unbound slot holds [Top], which is what reading it yields. *)
let rec eval vals e =
  match e with
  | C_const v -> v
  | C_slot s -> vals.(s)
  | C_neg e1 -> (
    match eval vals e1 with
    | A_int (l, h) -> A_int (-h, -l)
    | Top | A_bool _ -> Top)
  | C_not e1 -> (
    match eval vals e1 with
    | A_bool o -> A_bool (Option.map not o)
    | Top | A_int _ -> Top)
  | C_binop (op, e1, e2) -> eval_binop op (eval vals e1) (eval vals e2)

let const_bool e = known_bool (eval [||] (compile (fun _ -> None) e))

type op =
  | Pass
  | Set of int * cexpr  (** slot := value *)
  | Test of cexpr  (** successors [then; else] *)
  | Loop of int * cexpr * cexpr  (** for slot := lo to hi; [body; after] *)

(* The CFG with the variables it mentions (uses, definitions, loop
   variables) interned to slots [0 .. n-1].  Entry bindings it never
   mentions stay [Top] and definitely assigned on every reached state,
   so they need no slot. *)
type lowered = {
  names : string array;  (** slot -> variable *)
  slot_of : string -> int option;
  ops : op array;
  uses : int array array;  (** slots read at each node, each once *)
  defs : int array;  (** slot each node assigns, or -1 *)
  defined : bool array;  (** per slot: some node assigns it *)
}

let lower (cfg : Cfg.t) =
  let slots = Hashtbl.create 8 in
  let rev_names = ref [] in
  let intern x =
    match Hashtbl.find_opt slots x with
    | Some s -> s
    | None ->
      let s = Hashtbl.length slots in
      Hashtbl.add slots x s;
      rev_names := x :: !rev_names;
      s
  in
  let uses =
    Array.map
      (fun node -> Array.of_list (List.map intern (Cfg.uses node)))
      cfg.Cfg.nodes
  in
  let defs =
    Array.map
      (fun node ->
        match Cfg.def node with
        | Some x -> intern x
        | None -> -1)
      cfg.Cfg.nodes
  in
  let slot_of = Hashtbl.find_opt slots in
  let ops =
    Array.mapi
      (fun i node ->
        match node.Cfg.n_kind with
        | Cfg.Entry | Cfg.Exit | Cfg.Nop -> Pass
        | Cfg.Stmt s -> (
          match s with
          | A.Var_decl (_, e) | A.Assign (A.L_var _, e) ->
            Set (defs.(i), compile slot_of e)
          | A.Skip
          | A.Assign (A.L_attr _, _)
          | A.Expr_stmt _ | A.Return _ | A.Send _ | A.Delete _ | A.If _
          | A.While _ | A.For _ ->
            Pass)
        | Cfg.Branch c -> Test (compile slot_of c)
        | Cfg.For_head (_, lo, hi) ->
          Loop (defs.(i), compile slot_of lo, compile slot_of hi))
      cfg.Cfg.nodes
  in
  let names = Array.of_list (List.rev !rev_names) in
  let defined = Array.make (Array.length names) false in
  Array.iter (fun s -> if s >= 0 then defined.(s) <- true) defs;
  {
    names;
    slot_of;
    ops;
    uses;
    defs;
    defined;
  }

(* --- forward fixpoint -------------------------------------------------- *)

(* Slot status.  An unbound slot is absent from the environment: it
   reads as [Top] but is a distinct state, so binding it is a change
   that counts as a visit (and visits decide when widening starts). *)
let unbound = 0

let bound = 1

let assigned_ = 2

type state = {
  vals : aval array;
  status : int array;
}

(* Join [out] = [st] with slot [w] (none when negative) overwritten by
   ([wv], [ws]) into [old]; [None] when the result equals [old].  The
   arrays of a state are never written once it is stored, so an
   unchanged [st] is shared. *)
let join_into ~widen old st w wv ws =
  let fresh = ref None in
  for k = 0 to Array.length old.vals - 1 do
    let xv = if k = w then wv else st.vals.(k) in
    let xs = if k = w then ws else st.status.(k) in
    let ov = old.vals.(k) and os = old.status.(k) in
    let js =
      if os = unbound && xs = unbound then unbound
      else if os = assigned_ && xs = assigned_ then assigned_
      else bound
    in
    let jv = if os = unbound || xs = unbound then Top else join_aval ov xv in
    let jv = if widen && os <> unbound then widen_aval ov jv else jv in
    if js <> os || not (equal_aval jv ov) then begin
      let f =
        match !fresh with
        | Some f -> f
        | None ->
          let f =
            { vals = Array.copy old.vals; status = Array.copy old.status }
          in
          fresh := Some f;
          f
      in
      f.vals.(k) <- jv;
      f.status.(k) <- js
    end
  done;
  !fresh

let forward p ~assigned (cfg : Cfg.t) =
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
    let m = Array.length p.names in
    { vals = Array.make m Top; status = Array.make m unbound }
  in
  List.iter
    (fun x ->
      match p.slot_of x with
      | Some s -> init.status.(s) <- assigned_
      | None -> ())
    assigned;
  let merge st w wv ws sid =
    let updated =
      match states.(sid) with
      | None ->
        if w < 0 then Some st
        else begin
          let vals = Array.copy st.vals and status = Array.copy st.status in
          vals.(w) <- wv;
          status.(w) <- ws;
          Some { vals; status }
        end
      | Some old -> join_into ~widen:(visits.(sid) > 8) old st w wv ws
    in
    match updated with
    | None -> ()
    | Some s ->
      visits.(sid) <- visits.(sid) + 1;
      states.(sid) <- Some s;
      enqueue sid
  in
  states.(cfg.Cfg.entry) <- Some init;
  enqueue cfg.Cfg.entry;
  while not (Queue.is_empty queue) do
    let i = Queue.pop queue in
    queued.(i) <- false;
    match states.(i) with
    | None -> ()
    | Some st -> (
      let succs = cfg.Cfg.nodes.(i).Cfg.n_succs in
      match p.ops.(i) with
      | Pass -> List.iter (merge st (-1) Top unbound) succs
      | Set (x, e) -> List.iter (merge st x (eval st.vals e) assigned_) succs
      | Test c ->
        let b = known_bool (eval st.vals c) in
        List.iteri
          (fun k sid ->
            match (b, k) with
            | Some false, 0 -> () (* then edge dead *)
            | Some true, 1 -> () (* else edge dead *)
            | (Some true | Some false | None), _ ->
              merge st (-1) Top unbound sid)
          succs
      | Loop (x, lo, hi) ->
        let bounds = (as_int (eval st.vals lo), as_int (eval st.vals hi)) in
        List.iteri
          (fun k sid ->
            if k = 0 then (
              (* body edge: dead when the bounds are provably inverted *)
              match bounds with
              | Some (l1, _), Some (_, h2) when l1 > h2 -> ()
              | Some (l1, _), Some (_, h2) ->
                merge st x (A_int (l1, h2)) assigned_ sid
              | None, (Some _ | None) | Some _, None ->
                merge st x Top assigned_ sid)
            else
              (* after edge: the loop variable holds a value only when
                 the loop provably ran at least once *)
              let provably_runs =
                match bounds with
                | Some (_, h1), Some (l2, _) -> h1 <= l2
                | None, (Some _ | None) | Some _, None -> false
              in
              merge st x Top
                (if provably_runs then assigned_ else max bound st.status.(x))
                sid)
          succs)
  done;
  states

(* --- results ----------------------------------------------------------- *)

type liveout =
  | Live_none
  | Live_all

type result = {
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

(* Variables definitely assigned at the exit, sorted: the assigned
   slots plus the entry bindings without a slot. *)
let exit_names p ~assigned (cfg : Cfg.t) states =
  let slot_names keep =
    let acc = ref [] in
    Array.iteri (fun s x -> if keep s then acc := x :: !acc) p.names;
    !acc
  in
  let names =
    match states.(cfg.Cfg.exit_) with
    | Some st ->
      List.filter (fun x -> Option.is_none (p.slot_of x)) assigned
      @ slot_names (fun s -> st.status.(s) = assigned_)
    | None ->
      (* the program provably never terminates: be optimistic so later
         actions don't cascade *)
      assigned @ slot_names (fun s -> p.defined.(s))
  in
  List.sort_uniq String.compare names

let exit_assigned cfg =
  let p = lower cfg in
  exit_names p ~assigned:[] cfg (forward p ~assigned:[] cfg)

(* Slot bitsets: [w] words of [word_bits] slots each. *)
let word_bits = Sys.int_size

let bit s = 1 lsl (s mod word_bits)

let add_bit set s =
  let k = s / word_bits in
  set.(k) <- set.(k) lor bit s

let analyze ?(assigned = []) ?(extra_defs = []) ?(liveout = Live_none) cfg =
  let n = Array.length cfg.Cfg.nodes in
  let p = lower cfg in
  let states = forward p ~assigned cfg in
  let reachable = Array.map Option.is_some states in
  (* DF-01: reachable reads not definitely assigned. *)
  let reportable = Array.copy p.defined in
  List.iter
    (fun x ->
      match p.slot_of x with
      | Some s -> reportable.(s) <- true
      | None -> ())
    extra_defs;
  let uninit = ref [] in
  Array.iteri
    (fun i st ->
      match st with
      | None -> ()
      | Some st ->
        Array.iter
          (fun s ->
            if reportable.(s) && st.status.(s) <> assigned_ then
              uninit := (i, p.names.(s)) :: !uninit)
          p.uses.(i))
    states;
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
  (* DF-02: backward liveness over all edges (conservative), one slot
     bitset per node. *)
  let w = (Array.length p.names + word_bits - 1) / word_bits in
  let exit_live = Array.make w 0 in
  (match liveout with
   | Live_none -> ()
   | Live_all ->
     Array.iteri (fun s d -> if d then add_bit exit_live s) p.defined;
     List.iter
       (fun x ->
         match p.slot_of x with
         | Some s -> add_bit exit_live s
         | None -> ())
       assigned);
  let live_in = Array.make (n * w) 0 in
  let out = Array.make w 0 in
  let live_out i =
    if i = cfg.Cfg.exit_ then Array.blit exit_live 0 out 0 w
    else Array.fill out 0 w 0;
    List.iter
      (fun s ->
        for k = 0 to w - 1 do
          out.(k) <- out.(k) lor live_in.((s * w) + k)
        done)
      cfg.Cfg.nodes.(i).Cfg.n_succs
  in
  let changed = ref true in
  while !changed do
    changed := false;
    for i = n - 1 downto 0 do
      live_out i;
      let d = p.defs.(i) in
      if d >= 0 then
        out.(d / word_bits) <- out.(d / word_bits) land lnot (bit d);
      Array.iter (add_bit out) p.uses.(i);
      for k = 0 to w - 1 do
        if out.(k) <> live_in.((i * w) + k) then begin
          live_in.((i * w) + k) <- out.(k);
          changed := true
        end
      done
    done
  done;
  let dead = ref [] in
  Array.iteri
    (fun i node ->
      if reachable.(i) then
        match node.Cfg.n_kind with
        | Cfg.Stmt (A.Var_decl (x, e)) | Cfg.Stmt (A.Assign (A.L_var x, e)) ->
          let s = p.defs.(i) in
          live_out i;
          if pure e && out.(s / word_bits) land bit s = 0 then
            dead := (i, x) :: !dead
        | Cfg.Stmt
            ( A.Skip
            | A.Assign (A.L_attr _, _)
            | A.Expr_stmt _ | A.Return _ | A.Send _ | A.Delete _ | A.If _
            | A.While _ | A.For _ )
        | Cfg.Entry | Cfg.Exit | Cfg.Nop | Cfg.Branch _ | Cfg.For_head _ ->
          ())
    cfg.Cfg.nodes;
  {
    res_reachable = reachable;
    res_uninit = List.sort compare (List.rev !uninit);
    res_unreachable = List.sort compare (List.rev !unreachable);
    res_dead = List.sort compare (List.rev !dead);
    res_exit_assigned = exit_names p ~assigned cfg states;
  }
