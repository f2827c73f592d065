(** Forward abstract interpretation and backward liveness over a
    {!Cfg}.

    The forward pass runs one fixpoint combining

    - a flat constant/interval lattice ({!aval}) used to fold branch
      conditions: an edge leaving a [Branch] whose condition evaluates
      to a known boolean is pruned, and a [For_head] whose bounds are
      provably inverted never enters its body — so reachability is
      computed {e under} constant propagation (DF-03), and
    - a definite-assignment analysis (must, intersection at joins)
      matching the interpreter's flat-frame semantics: assignments in
      a taken branch escape the branch, which is exactly where the
      block-scoped typechecker and the runtime disagree (DF-01).

    The backward pass is a classic liveness fixpoint over all edges
    (feasible or not — conservative) used for dead stores (DF-02).

    Everything here is total and deterministic: no hashing order
    reaches the results, random programs from qcheck must not crash
    it, and interval growth is widened to [Top] so the fixpoint
    terminates on any loop. *)

type aval =
  | Top  (** unknown (objects, strings, reals, attribute reads, calls) *)
  | A_int of int * int  (** integer in the inclusive interval *)
  | A_bool of bool option  (** boolean, possibly known *)

val const_bool : Asl.Ast.expr -> bool option
(** Abstract value of a closed guard with every variable unknown:
    [Some b] exactly when the guard is provably always [b] (DF-04). *)

type liveout =
  | Live_none
      (** locals die when the program ends (fresh-frame behaviors:
          transition effects, state behaviors, operation bodies) *)
  | Live_all
      (** every binding may be read later (activity action bodies
          sharing one store) *)

type result = {
  res_reachable : bool array;  (** per node, under constant folding *)
  res_uninit : (int * string) list;
      (** reachable reads of a variable that is textually assigned
          somewhere (here or in [extra_defs]) but not definitely
          assigned on every path — (node, variable), ascending *)
  res_unreachable : int list;
      (** heads of unreachable regions: the first statement-bearing
          node of each dead region, ascending *)
  res_dead : (int * string) list;
      (** pure stores whose value no later read can see *)
  res_exit_assigned : string list;
      (** variables definitely assigned when the program ends, sorted;
          if the exit is unreachable, falls back to every textual
          definition plus [assigned] *)
}

val analyze :
  ?assigned:string list ->
  ?extra_defs:string list ->
  ?liveout:liveout ->
  Cfg.t ->
  result
(** [assigned] are variables definitely bound on entry (event
    parameters, operation parameters, bindings threaded from earlier
    activity actions).  [extra_defs] widens the set of names DF-01 may
    report beyond this program's own definitions (variables other
    actions of the same activity define); a read of a name in neither
    set is the typechecker's unbound-variable territory (ASL-02), not
    a dataflow finding.  [liveout] defaults to {!Live_none}. *)

val exit_assigned : Cfg.t -> string list
(** [(analyze cfg).res_exit_assigned] from the forward pass alone,
    without the DF-01/02/03 collection or liveness. *)
