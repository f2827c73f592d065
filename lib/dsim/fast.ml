open Hdl

let err fmt = Printf.ksprintf (fun m -> raise (Netlist.Simulation_error m)) fmt

type t = {
  nl : Netlist.t;
  vals : int array;
  settle_budget : int;
  budget : Exec.Budget.t;
  (* event-driven settling state: which comb processes must re-run *)
  dirty : bool array;
  mutable ndirty : int;
  gen : int array;  (* scratch for one worklist generation *)
  (* non-blocking assignment buffer for clock_edge *)
  pending_val : int array;
  pending_set : bool array;
  mutable pending_touched : int list;  (* reverse first-touch order *)
  mutable event_count : int;
  mutable delta_count : int;
  mutable skipped_count : int;
  s_signals : (string * Htype.t) list;
  s_metrics : Telemetry.Metrics.t;
  m_events : Telemetry.Metrics.counter;
  m_deltas : Telemetry.Metrics.counter;
  m_skipped : Telemetry.Metrics.counter;
}

let mark_dirty t p =
  if not t.dirty.(p) then begin
    t.dirty.(p) <- true;
    t.ndirty <- t.ndirty + 1
  end

(* Masked store; on an effective change, wake every reader. *)
let write_now t i v =
  let v = v land t.nl.Netlist.nl_mask.(i) in
  if t.vals.(i) <> v then begin
    t.vals.(i) <- v;
    t.event_count <- t.event_count + 1;
    Telemetry.Metrics.incr t.m_events;
    Array.iter (fun p -> mark_dirty t p) t.nl.Netlist.nl_fanout.(i)
  end

let eval_comb t p =
  t.dirty.(p) <- false;
  t.ndirty <- t.ndirty - 1;
  t.event_count <- t.event_count + 1;
  Telemetry.Metrics.incr t.m_events;
  let c = t.nl.Netlist.nl_comb.(p) in
  c.Netlist.c_body t.vals (fun i v -> write_now t i v)

let count_pass t ~evaluated =
  let ncomb = Array.length t.nl.Netlist.nl_comb in
  t.delta_count <- t.delta_count + 1;
  Telemetry.Metrics.incr t.m_deltas;
  let skipped = ncomb - evaluated in
  if skipped > 0 then begin
    t.skipped_count <- t.skipped_count + skipped;
    Telemetry.Metrics.incr ~by:skipped t.m_skipped
  end

(* Acyclic case: one pass in topological order settles.  Processes
   dirtied mid-pass always sit later in [order], so they are reached
   before the pass ends. *)
let settle_levelized t order =
  let evaluated = ref 0 in
  Array.iter
    (fun p ->
      if t.dirty.(p) then begin
        eval_comb t p;
        incr evaluated
      end)
    order;
  count_pass t ~evaluated:!evaluated

(* Signals written by still-dirty processes: the actionable part of a
   non-settling diagnostic (an injected oscillation names its loop). *)
let unstable_signals t =
  let names = ref [] in
  Array.iteri
    (fun p (c : Netlist.comb) ->
      if t.dirty.(p) then
        Array.iter
          (fun i -> names := t.nl.Netlist.nl_names.(i) :: !names)
          c.Netlist.c_writes)
    t.nl.Netlist.nl_comb;
  List.sort_uniq String.compare !names

(* Cyclic fallback: evaluate the dirty generation in process order,
   repeat until quiescent, within the configurable round budget
   (default matches the reference engine's 1000-round bound). *)
let settle_worklist t =
  let ncomb = Array.length t.nl.Netlist.nl_comb in
  if t.ndirty = 0 then count_pass t ~evaluated:0
  else begin
    let rounds = ref 0 in
    while t.ndirty > 0 do
      incr rounds;
      if !rounds > t.settle_budget then
        err "combinational logic did not settle after %d rounds (unstable: %s)"
          t.settle_budget
          (String.concat ", " (unstable_signals t));
      let k = ref 0 in
      for p = 0 to ncomb - 1 do
        if t.dirty.(p) then begin
          t.gen.(!k) <- p;
          incr k
        end
      done;
      for j = 0 to !k - 1 do
        eval_comb t t.gen.(j)
      done;
      count_pass t ~evaluated:!k
    done
  end

let settle t =
  Exec.Budget.check t.budget;
  match t.nl.Netlist.nl_levels with
  | Some order -> settle_levelized t order
  | None -> settle_worklist t

let of_netlist ?(metrics = Telemetry.Metrics.null) ?(settle_budget = 1000)
    ?(budget = Exec.Budget.unlimited) nl =
  if settle_budget <= 0 then invalid_arg "Fast.create: settle_budget <= 0";
  let n = Array.length nl.Netlist.nl_names in
  let ncomb = Array.length nl.Netlist.nl_comb in
  let s_signals =
    List.init n (fun i -> (nl.Netlist.nl_names.(i), nl.Netlist.nl_types.(i)))
  in
  let t =
    {
      nl;
      vals = Array.copy nl.Netlist.nl_init;
      settle_budget;
      budget;
      dirty = Array.make (max ncomb 1) true;
      ndirty = ncomb;
      gen = Array.make (max ncomb 1) 0;
      pending_val = Array.make (max n 1) 0;
      pending_set = Array.make (max n 1) false;
      pending_touched = [];
      event_count = 0;
      delta_count = 0;
      skipped_count = 0;
      s_signals;
      s_metrics = metrics;
      m_events = Telemetry.Metrics.counter metrics "dsim.events";
      m_deltas = Telemetry.Metrics.counter metrics "dsim.delta_cycles";
      m_skipped = Telemetry.Metrics.counter metrics "dsim.skipped_evals";
    }
  in
  settle t;
  t

let create ?metrics ?settle_budget ?budget m =
  of_netlist ?metrics ?settle_budget ?budget (Netlist.compile m)

let module_of t = t.nl.Netlist.nl_module

let read_index t name =
  match Netlist.index t.nl name with
  | Some i -> i
  | None -> err "unknown signal %s" name

let get t name = t.vals.(read_index t name)

let get_enum t name =
  let i = read_index t name in
  let v = t.vals.(i) in
  match t.nl.Netlist.nl_types.(i) with
  | Htype.Enum lits -> (
    match List.nth_opt lits v with
    | Some lit -> lit
    | None -> err "enum value %d out of range for %s" v name)
  | Htype.Bit | Htype.Unsigned _ -> err "%s is not enum-typed" name

let set_input t name v =
  match Netlist.index t.nl name with
  | Some i ->
    write_now t i v;
    settle t
  | None -> err "assignment to unknown signal %s" name

(* Same mechanics as [set_input], but meant for fault injection: the
   target may be any signal, not just an input port.  A forced value on
   a comb-driven signal only survives until its driver re-evaluates —
   exactly the transient-fault semantics campaigns want. *)
let force t name v = set_input t name v

(* Non-blocking semantics: all sequential bodies read pre-edge values;
   writes land in the pending buffer and commit together afterwards
   (last write to a signal wins, first-touch order kept for
   determinism). *)
let pend t i v =
  if not t.pending_set.(i) then begin
    t.pending_set.(i) <- true;
    t.pending_touched <- i :: t.pending_touched
  end;
  t.pending_val.(i) <- v

let clock_edge t clock =
  Array.iter
    (fun (q : Netlist.seq) ->
      if String.equal q.Netlist.q_clock clock then begin
        t.event_count <- t.event_count + 1;
        Telemetry.Metrics.incr t.m_events;
        match q.Netlist.q_reset with
        | Some (ri, reset_body) when t.vals.(ri) <> 0 ->
          reset_body t.vals (fun i v -> pend t i v)
        | Some _ | None -> q.Netlist.q_body t.vals (fun i v -> pend t i v)
      end)
    t.nl.Netlist.nl_seq;
  List.iter
    (fun i ->
      t.pending_set.(i) <- false;
      write_now t i t.pending_val.(i))
    (List.rev t.pending_touched);
  t.pending_touched <- [];
  settle t

let cycle ?(inputs = []) t clock =
  List.iter
    (fun (name, v) ->
      match Netlist.index t.nl name with
      | Some i -> write_now t i v
      | None -> err "assignment to unknown signal %s" name)
    inputs;
  settle t;
  clock_edge t clock

let run t ~clock ~cycles =
  for _ = 1 to cycles do
    clock_edge t clock
  done

let events t = t.event_count
let delta_cycles t = t.delta_count
let skipped_evals t = t.skipped_count

let levelized t =
  match t.nl.Netlist.nl_levels with
  | Some _ -> true
  | None -> false

let metrics t = t.s_metrics
let signals t = t.s_signals

let snapshot t =
  Array.to_list
    (Array.map
       (fun i -> (t.nl.Netlist.nl_names.(i), t.vals.(i)))
       t.nl.Netlist.nl_snapshot)

let probe t =
  {
    Probe.pr_module = module_of t;
    pr_get = (fun name -> get t name);
    pr_signals = signals t;
  }
