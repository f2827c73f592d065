(* Differential tests for the domain pool (Exec.Pool): [--jobs] is a
   pure throughput knob, so every parallel fan-out in the repo (fault
   campaigns, multi-model lint) must produce byte-identical reports and
   metrics registries at every job count.  Pool unit tests cover
   scheduling (order preservation, exactly-once runs under skew and with
   more jobs than tasks) and the lowest-index exception rule. *)

open Hdl

let tc name f = Alcotest.test_case name `Quick f
let check = Alcotest.check

(* ------------------------------------------------------------------ *)
(* Pool unit tests *)

let pool_tests =
  [
    tc "create rejects jobs < 1" (fun () ->
        match Exec.Pool.create ~jobs:0 with
        | _pool -> Alcotest.fail "jobs:0 accepted"
        | exception Invalid_argument _ -> ());
    tc "create clamps to max_jobs" (fun () ->
        let pool = Exec.Pool.create ~jobs:(Exec.Pool.max_jobs + 37) in
        check Alcotest.int "clamped" Exec.Pool.max_jobs (Exec.Pool.jobs pool));
    tc "jobs 1 runs inline in index order" (fun () ->
        Exec.Pool.with_pool ~jobs:1 (fun pool ->
            let seen = ref [] in
            Exec.Pool.parallel_for pool ~n:10 (fun i -> seen := i :: !seen);
            check
              Alcotest.(list int)
              "ascending" [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9 ]
              (List.rev !seen)));
    tc "map_list preserves input order at jobs 4" (fun () ->
        Exec.Pool.with_pool ~jobs:4 (fun pool ->
            let xs = List.init 100 (fun i -> i) in
            check
              Alcotest.(list int)
              "squares in order"
              (List.map (fun i -> i * i) xs)
              (Exec.Pool.map_list pool (fun i -> i * i) xs);
            check Alcotest.(list int) "empty" []
              (Exec.Pool.map_list pool (fun i -> i * i) [])));
    tc "skewed task sizes: every task runs exactly once" (fun () ->
        (* The first quarter of the indices is heavy, the rest trivial:
           participants claim from one shared cursor at different
           speeds, and still no task is skipped or run twice. *)
        Exec.Pool.with_pool ~jobs:4 (fun pool ->
            let n = 64 in
            let runs = Array.make n 0 in
            let out = Array.make n 0 in
            Exec.Pool.parallel_for pool ~n (fun i ->
                let spins = if i < 16 then 200_000 else 100 in
                let acc = ref 0 in
                for k = 1 to spins do
                  acc := (!acc + k) mod 65521
                done;
                runs.(i) <- runs.(i) + 1;
                out.(i) <- !acc);
            Array.iteri
              (fun i r ->
                if r <> 1 then Alcotest.failf "task %d ran %d times" i r)
              runs;
            (* same per-index values as the sequential loop *)
            Array.iteri
              (fun i v ->
                let spins = if i < 16 then 200_000 else 100 in
                let acc = ref 0 in
                for k = 1 to spins do
                  acc := (!acc + k) mod 65521
                done;
                check Alcotest.int (Printf.sprintf "task %d" i) !acc v)
              out));
    tc "more jobs than tasks: each runs once, results in order" (fun () ->
        Exec.Pool.with_pool ~jobs:8 (fun pool ->
            let runs = Array.make 3 0 in
            let out =
              Exec.Pool.map_list pool
                (fun i ->
                  runs.(i) <- runs.(i) + 1;
                  10 * i)
                [ 0; 1; 2 ]
            in
            check Alcotest.(list int) "in order" [ 0; 10; 20 ] out;
            check Alcotest.(array int) "once each" [| 1; 1; 1 |] runs));
    tc "lowest-index exception wins; pool stays usable" (fun () ->
        Exec.Pool.with_pool ~jobs:4 (fun pool ->
            (match
               Exec.Pool.parallel_for pool ~n:32 (fun i ->
                   if i = 7 || i = 3 then
                     failwith (Printf.sprintf "task %d" i))
             with
            | () -> Alcotest.fail "expected an exception"
            | exception Failure m -> check Alcotest.string "lowest" "task 3" m);
            let runs = Array.make 50 0 in
            Exec.Pool.parallel_for pool ~n:50 (fun i -> runs.(i) <- runs.(i) + 1);
            Array.iteri
              (fun i r ->
                if r <> 1 then
                  Alcotest.failf "task %d ran %d times after exception" i r)
              runs));
    tc "with_pool returns the callback value" (fun () ->
        check Alcotest.int "value" 42 (Exec.Pool.with_pool ~jobs:2 (fun _ -> 42)));
    tc "n = 0 is a no-op" (fun () ->
        Exec.Pool.with_pool ~jobs:4 (fun pool ->
            Exec.Pool.parallel_for pool ~n:0 (fun _ ->
                Alcotest.fail "task ran")));
  ]

(* Any subset of tasks may raise: the caller sees the lowest raising
   index.  Off the inline path every task is attempted exactly once;
   the inline path ([jobs = 1], or a single task) stops at the first
   raise like a [for] loop. *)
let qcheck_lowest_exception =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:50
       ~name:"lowest-index exception at jobs 1/2/4/8, each task tried once"
       QCheck.(pair (int_range 0 100_000) (int_range 1 64))
       (fun (seed, n) ->
         let rng = Workload.Prng.create seed in
         let raises = Array.init n (fun _ -> Workload.Prng.int rng 5 = 0) in
         let lowest =
           let rec go i =
             if i = n then None else if raises.(i) then Some i else go (i + 1)
           in
           go 0
         in
         List.for_all
           (fun jobs ->
             let tries = Array.init n (fun _ -> Atomic.make 0) in
             let surfaced =
               match
                 Exec.Pool.with_pool ~jobs (fun pool ->
                     Exec.Pool.parallel_for pool ~n (fun i ->
                         Atomic.incr tries.(i);
                         if raises.(i) then raise (Failure (string_of_int i))))
               with
               | () -> None
               | exception Failure m -> Some (int_of_string m)
             in
             let want i =
               match lowest with
               | Some l when (jobs = 1 || n = 1) && i > l -> 0
               | Some _ | None -> 1
             in
             surfaced = lowest
             && List.for_all
                  (fun i -> Atomic.get tries.(i) = want i)
                  (List.init n Fun.id))
           [ 1; 2; 4; 8 ]))

let qcheck_map_determinism =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:20 ~name:"map_array agrees at jobs 1/2/4/8"
       QCheck.(pair (int_range 0 100_000) (int_range 0 200))
       (fun (seed, n) ->
         let rng = Workload.Prng.create seed in
         let xs = Array.init n (fun _ -> Workload.Prng.int rng 1_000_000) in
         let f x = x * 2654435761 land 0xFFFFFF in
         let expected = Array.map f xs in
         List.for_all
           (fun jobs ->
             Exec.Pool.with_pool ~jobs (fun pool ->
                 Exec.Pool.map_array pool f xs = expected))
           [ 1; 2; 4; 8 ]))

(* ------------------------------------------------------------------ *)
(* Campaign differential: sharded runs must reproduce the sequential
   report and metrics registry byte-for-byte.  The RTL generator
   mirrors the one in test_fault (test executables are separate). *)

let rand_ty rng =
  match Workload.Prng.int rng 3 with
  | 0 -> Htype.Bit
  | 1 -> Htype.Unsigned (Workload.Prng.range rng 2 8)
  | _ -> Htype.Unsigned (Workload.Prng.range rng 9 16)

let binops =
  [
    Expr.And; Expr.Or; Expr.Xor; Expr.Add; Expr.Sub; Expr.Mul; Expr.Eq;
    Expr.Neq; Expr.Lt; Expr.Le; Expr.Gt; Expr.Ge; Expr.Shl; Expr.Shr;
  ]

let rec rand_expr rng avail depth =
  let leaf () =
    if Workload.Prng.bool rng then Expr.Ref (Workload.Prng.pick rng avail)
    else Expr.of_int ~width:8 (Workload.Prng.int rng 256)
  in
  if depth <= 0 then leaf ()
  else (
    let sub () = rand_expr rng avail (depth - 1) in
    match Workload.Prng.int rng 6 with
    | 0 | 1 -> leaf ()
    | 2 -> Expr.Unop (Expr.Not, sub ())
    | 3 -> Expr.Mux (sub (), sub (), sub ())
    | 4 -> Expr.Resize (sub (), Workload.Prng.range rng 1 12)
    | _n -> Expr.Binop (Workload.Prng.pick rng binops, sub (), sub ()))

let random_module seed =
  let rng = Workload.Prng.create seed in
  let inputs =
    List.init (Workload.Prng.range rng 1 3) (fun i ->
        (Printf.sprintf "in%d" i, rand_ty rng))
  in
  let regs =
    List.init (Workload.Prng.range rng 1 3) (fun i ->
        (Printf.sprintf "r%d" i, rand_ty rng))
  in
  let base = List.map fst inputs @ List.map fst regs in
  let seq_body =
    List.map (fun (r, _) -> Stmt.Assign (r, rand_expr rng base 3)) regs
  in
  let reset_body =
    List.map (fun (r, _) -> Stmt.Assign (r, Expr.of_int 0)) regs
  in
  Module_.make
    ~ports:
      (Module_.input "clk" Htype.Bit
       :: Module_.input "rst" Htype.Bit
       :: List.map (fun (n, ty) -> Module_.input n ty) inputs)
    ~signals:
      (List.map
         (fun (n, ty) -> Module_.signal ~init:(Workload.Prng.int rng 16) n ty)
         regs)
    ~processes:
      [
        Module_.seq_process
          ~reset:("rst", reset_body)
          ~name:"p_seq" ~clock:"clk" seq_body;
      ]
    "rand"

let rtl_spec_of_module seed m =
  let rng = Workload.Prng.create (seed lxor 0x2e2e) in
  let inputs =
    List.filter_map
      (fun (p : Module_.port) ->
        match p.Module_.port_dir with
        | Module_.Input ->
          if p.Module_.port_name = "clk" || p.Module_.port_name = "rst" then
            None
          else Some p.Module_.port_name
        | Module_.Output -> None)
      m.Module_.mod_ports
  in
  let cycles = 12 in
  let stimulus =
    List.init cycles (fun c ->
        ( c,
          List.filter_map
            (fun name ->
              if Workload.Prng.bool rng then
                Some (name, Workload.Prng.int rng 65536)
              else None)
            inputs ))
  in
  {
    Fault.Campaign.rs_module = m;
    rs_clock = "clk";
    rs_reset = Some "rst";
    rs_stimulus = stimulus;
    rs_cycles = cycles;
    rs_settle_budget = 1000;
  }

(* A campaign over all four engine families, parameterized on the plan
   seed; returns a closure so each run gets a fresh registry. *)
let campaign_fixture seed faults =
  let sm = Workload.Gen_statechart.flat ~seed:5 ~states:3 ~events:2 in
  let events = Workload.Gen_statechart.event_sequence ~seed:9 ~length:10 2 in
  let sc =
    { Fault.Campaign.ss_machine = sm; ss_events = events; ss_budget = 1000 }
  in
  let rtl = rtl_spec_of_module seed (random_module seed) in
  let act =
    Workload.Gen_activity.series_parallel ~seed:4 ~size:8 ~max_width:3
  in
  let aspec =
    {
      Fault.Campaign.ac_activity = act;
      ac_choice_seed = 4;
      ac_max_steps = 10_000;
    }
  in
  let net, m0 = Activity.Translate.to_petri act in
  let nspec =
    {
      Fault.Campaign.np_net = net;
      np_marking = m0;
      np_choice_seed = 4;
      np_max_steps = 10_000;
    }
  in
  let surface =
    {
      Fault.Plan.su_signals =
        List.map
          (fun (s : Module_.signal) ->
            (s.Module_.sig_name, Htype.width s.Module_.sig_type))
          rtl.Fault.Campaign.rs_module.Module_.mod_signals;
      su_cycles = rtl.Fault.Campaign.rs_cycles;
      su_events = Workload.Gen_statechart.event_names 2;
      su_length = List.length events;
      su_places =
        List.map
          (fun (p : Petri.Net.place) -> p.Petri.Net.pl_id)
          net.Petri.Net.places;
      su_steps = 20;
    }
  in
  let plan = Fault.Plan.generate ~seed ~count:faults surface in
  fun ?metrics ?pool () ->
    Fault.Campaign.run ?metrics ?pool ~rtl ~statechart:sc ~activity:aspec
      ~net:nspec ~label:"fixture" plan

let qcheck_campaign_differential =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:8
       ~name:"campaign: jobs 4 reports and metrics byte-equal sequential"
       QCheck.(int_range 0 100_000)
       (fun seed ->
         let go = campaign_fixture seed 12 in
         let m1 =
           Telemetry.Metrics.create ~clock:(Telemetry.Clock.counting ()) ()
         in
         let r1 = go ~metrics:m1 () in
         let m4 =
           Telemetry.Metrics.create ~clock:(Telemetry.Clock.counting ()) ()
         in
         let r4 =
           Exec.Pool.with_pool ~jobs:4 (fun pool -> go ~metrics:m4 ~pool ())
         in
         String.equal (Fault.Campaign.to_text r1) (Fault.Campaign.to_text r4)
         && String.equal (Fault.Campaign.to_json r1)
              (Fault.Campaign.to_json r4)
         && String.equal (Telemetry.Metrics.report m1)
              (Telemetry.Metrics.report m4)))

let campaign_pool_tests =
  [
    tc "jobs 1 pool takes the sequential path" (fun () ->
        let go = campaign_fixture 42 15 in
        let r_none = go () in
        let r_one = Exec.Pool.with_pool ~jobs:1 (fun pool -> go ~pool ()) in
        check Alcotest.string "text"
          (Fault.Campaign.to_text r_none)
          (Fault.Campaign.to_text r_one));
    tc "empty plan under a pool still reports zero injections" (fun () ->
        let go = campaign_fixture 7 0 in
        let m =
          Telemetry.Metrics.create ~clock:(Telemetry.Clock.counting ()) ()
        in
        let r = Exec.Pool.with_pool ~jobs:4 (fun pool -> go ~metrics:m ~pool ()) in
        check Alcotest.string "same as sequential"
          (Fault.Campaign.to_text (go ()))
          (Fault.Campaign.to_text r));
  ]

(* ------------------------------------------------------------------ *)
(* Cooperative cancellation budgets                                   *)

let budget_tests =
  [
    tc "unlimited never expires" (fun () ->
        let b = Exec.Budget.unlimited in
        for _ = 1 to 10_000 do
          Exec.Budget.check b
        done;
        check Alcotest.bool "not expired" false (Exec.Budget.expired b));
    tc "fuel n allows exactly n checks" (fun () ->
        let b = Exec.Budget.fuel 5 in
        for _ = 1 to 5 do
          Exec.Budget.check b
        done;
        check Alcotest.bool "still live" false (Exec.Budget.expired b);
        (match Exec.Budget.check b with
         | () -> Alcotest.fail "expected Expired"
         | exception Exec.Budget.Expired msg ->
           check Alcotest.string "deterministic message"
             "budget expired: fuel limit 5 exhausted" msg);
        check Alcotest.bool "sticky" true (Exec.Budget.expired b);
        (* once dead, every further check raises immediately *)
        match Exec.Budget.check b with
        | () -> Alcotest.fail "expected Expired again"
        | exception Exec.Budget.Expired _ -> ());
    tc "fuel 0 expires on the first check" (fun () ->
        match Exec.Budget.check (Exec.Budget.fuel 0) with
        | () -> Alcotest.fail "expected Expired"
        | exception Exec.Budget.Expired _ -> ());
    tc "negative fuel and non-positive deadlines are rejected" (fun () ->
        (match Exec.Budget.fuel (-1) with
         | _b -> Alcotest.fail "expected Invalid_argument"
         | exception Invalid_argument _ -> ());
        match Exec.Budget.deadline ~now:(fun () -> 0.) ~ms:0 with
        | _b -> Alcotest.fail "expected Invalid_argument"
        | exception Invalid_argument _ -> ());
    tc "deadline consults the injected clock, not the stride counter"
      (fun () ->
        let t = ref 0.0 in
        let b = Exec.Budget.deadline ~now:(fun () -> !t) ~ms:100 in
        (* clock frozen inside the horizon: any number of checks pass *)
        for _ = 1 to 1000 do
          Exec.Budget.check b
        done;
        check Alcotest.bool "live inside horizon" false
          (Exec.Budget.expired b);
        t := 0.2;
        (* past the horizon: expires within one clock stride *)
        match
          for _ = 1 to 100 do
            Exec.Budget.check b
          done
        with
        | () -> Alcotest.fail "expected Expired past the horizon"
        | exception Exec.Budget.Expired msg ->
          check Alcotest.string "deterministic message"
            "budget expired: deadline 100 ms exceeded" msg);
    tc "a worker-side expiry surfaces in the caller" (fun () ->
        let b = Exec.Budget.fuel 10 in
        match
          Exec.Pool.with_pool ~jobs:4 (fun pool ->
              Exec.Pool.parallel_for pool ~n:1000 (fun _i ->
                  Exec.Budget.check b))
        with
        | () -> Alcotest.fail "expected Expired"
        | exception Exec.Budget.Expired _ ->
          check Alcotest.bool "sticky across domains" true
            (Exec.Budget.expired b));
  ]

let () =
  Alcotest.run "parallel"
    [
      ("pool", pool_tests @ [ qcheck_lowest_exception; qcheck_map_determinism ]);
      ("campaign", campaign_pool_tests @ [ qcheck_campaign_differential ]);
      ("budget", budget_tests);
    ]
