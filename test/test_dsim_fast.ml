(* Differential tests for the compiled discrete-event engine: under
   identical stimulus, Dsim.Fast must agree with the reference
   interpreter Oracles.Sim value-for-value (byte-equal snapshots), the
   waveform renderers must produce byte-identical output over either
   engine, and the engine's telemetry counters must stay monotone. *)

open Hdl

let tc name f = Alcotest.test_case name `Quick f
let check = Alcotest.check

(* ------------------------------------------------------------------ *)
(* Seeded random modules: pure single-driver comb processes over
   earlier-declared names (acyclic by construction), plus one clocked
   process with synchronous reset. *)

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
    match Workload.Prng.int rng 10 with
    | 0 | 1 -> leaf ()
    | 2 -> Expr.Unop (Expr.Not, sub ())
    | 3 ->
      let op =
        if Workload.Prng.bool rng then Expr.Reduce_or else Expr.Reduce_and
      in
      Expr.Unop (op, sub ())
    | 4 -> Expr.Mux (sub (), sub (), sub ())
    | 5 ->
      let lo = Workload.Prng.int rng 6 in
      let hi = lo + Workload.Prng.int rng 5 in
      Expr.Slice (sub (), hi, lo)
    | 6 -> Expr.Concat (sub (), sub ())
    | 7 -> Expr.Resize (sub (), Workload.Prng.range rng 1 12)
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
  let n_wire = Workload.Prng.range rng 1 4 in
  let rec wires acc avail k =
    if k = 0 then List.rev acc
    else (
      let name = Printf.sprintf "w%d" (n_wire - k) in
      let ty = rand_ty rng in
      let e = rand_expr rng avail 3 in
      wires ((name, ty, e) :: acc) (name :: avail) (k - 1))
  in
  let ws = wires [] base n_wire in
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
         (fun (n, ty) ->
           Module_.signal ~init:(Workload.Prng.int rng 16) n ty)
         regs
       @ List.map (fun (n, ty, _) -> Module_.signal n ty) ws)
    ~processes:
      (Module_.seq_process
         ~reset:("rst", reset_body)
         ~name:"p_seq" ~clock:"clk" seq_body
       :: List.mapi
            (fun i (n, _, e) ->
              Module_.comb_process
                ~name:(Printf.sprintf "p_w%d" i)
                [ Stmt.Assign (n, e) ])
            ws)
    "rand"

(* Two clocked processes driving the SAME registers on the same edge:
   process declaration order decides the winner in both engines, and
   the commit phase must walk declaration order — not hash-table
   internals — or the engines drift apart (regression for the
   [Oracles.Sim.clock_edge] commit-order bug). *)
let conflicting_writers_module seed =
  let rng = Workload.Prng.create (seed lxor 0x7a11) in
  let inputs =
    List.init (Workload.Prng.range rng 1 3) (fun i ->
        (Printf.sprintf "in%d" i, rand_ty rng))
  in
  let regs =
    List.init (Workload.Prng.range rng 1 3) (fun i ->
        (Printf.sprintf "r%d" i, rand_ty rng))
  in
  let base = List.map fst inputs @ List.map fst regs in
  let body () =
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
         (fun (n, ty) ->
           Module_.signal ~init:(Workload.Prng.int rng 16) n ty)
         regs)
    ~processes:
      [
        Module_.seq_process
          ~reset:("rst", reset_body)
          ~name:"p_seq_a" ~clock:"clk" (body ());
        Module_.seq_process ~name:"p_seq_b" ~clock:"clk" (body ());
      ]
    "conflict"

(* The input ports random stimulus may drive: every input but the
   clock. *)
let driven_inputs m =
  List.filter_map
    (fun (p : Module_.port) ->
      match p.Module_.port_dir with
      | Module_.Input ->
        if p.Module_.port_name = "clk" then None
        else Some p.Module_.port_name
      | Module_.Output -> None)
    m.Module_.mod_ports

(* Drive both engines with the identical random stimulus, asserting
   byte-equal snapshots after every step and monotone fast-engine
   counters throughout. *)
let differential_run seed m steps =
  let rng = Workload.Prng.create (seed lxor 0x5f5f) in
  let sim = Oracles.Sim.create m in
  let fast = Dsim.Fast.create m in
  let inputs = driven_inputs m in
  let last = ref (0, 0, 0) in
  let monotone = ref true in
  if Oracles.Sim.snapshot sim <> Dsim.Fast.snapshot fast then
    Alcotest.failf "snapshots diverge at create (seed %d)" seed;
  for step = 1 to steps do
    (match Workload.Prng.int rng 3 with
     | 0 ->
       let name = Workload.Prng.pick rng inputs in
       let v = Workload.Prng.int rng 65536 in
       Oracles.Sim.set_input sim name v;
       Dsim.Fast.set_input fast name v
     | 1 ->
       Oracles.Sim.clock_edge sim "clk";
       Dsim.Fast.clock_edge fast "clk"
     | _n ->
       let drive =
         List.filter_map
           (fun name ->
             if Workload.Prng.bool rng then
               Some (name, Workload.Prng.int rng 65536)
             else None)
           inputs
       in
       Oracles.Sim.cycle ~inputs:drive sim "clk";
       Dsim.Fast.cycle ~inputs:drive fast "clk");
    if Oracles.Sim.snapshot sim <> Dsim.Fast.snapshot fast then
      Alcotest.failf "snapshots diverge at step %d (seed %d)" step seed;
    let now =
      ( Dsim.Fast.events fast,
        Dsim.Fast.delta_cycles fast,
        Dsim.Fast.skipped_evals fast )
    in
    let (e0, d0, s0) = !last and (e1, d1, s1) = now in
    if e1 < e0 || d1 < d0 || s1 < s0 then monotone := false;
    last := now
  done;
  if not !monotone then
    Alcotest.failf "telemetry counters regressed (seed %d)" seed;
  true

let qcheck_random_modules =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:60
       ~name:"random modules: Fast snapshots byte-equal Sim"
       QCheck.(int_range 0 100_000)
       (fun seed -> differential_run seed (random_module seed) 30))

(* The slot-indexed VCD writer in lockstep with the list-based one it
   replaced ([Oracles.Vcd_ref]): both sample the same engine after every
   random step (steps that change nothing included) and must render the
   same dump. *)
let qcheck_vcd_lockstep =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:60
       ~name:"random modules: Vcd renders byte-equal to the list-based writer"
       QCheck.(int_range 0 100_000)
       (fun seed ->
         let m = random_module seed in
         let rng = Workload.Prng.create (seed lxor 0x7cd0) in
         let fast = Dsim.Fast.create m in
         let vcd = Dsim.Vcd.create fast in
         let vref = Oracles.Vcd_ref.create fast in
         let inputs = driven_inputs m in
         for time = 0 to 30 do
           (match Workload.Prng.int rng 3 with
            | 0 ->
              Dsim.Fast.set_input fast (Workload.Prng.pick rng inputs)
                (Workload.Prng.int rng 65536)
            | 1 -> Dsim.Fast.clock_edge fast "clk"
            | _n -> ());
           Dsim.Vcd.sample vcd ~time;
           Oracles.Vcd_ref.sample vref ~time
         done;
         Dsim.Vcd.render vcd = Oracles.Vcd_ref.render vref))

(* Compiled FSMs (Statechart.Flatten |> Codegen.Fsm_compile) driven by
   random event strobes must agree between the engines too — this is
   the module shape the --rtl CLI path and examples run. *)
let qcheck_conflicting_writers =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:60
       ~name:"conflicting same-edge writers: Fast snapshots byte-equal Sim"
       QCheck.(int_range 0 100_000)
       (fun seed -> differential_run seed (conflicting_writers_module seed) 30))

let qcheck_fsm_modules =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:30
       ~name:"compiled FSMs: Fast snapshots byte-equal Sim"
       QCheck.(int_range 0 100_000)
       (fun seed ->
         let sm =
           Workload.Gen_statechart.flat ~seed ~states:5 ~events:3
         in
         match Statechart.Flatten.flatten sm with
         | Error _ -> true
         | Ok flat -> (
           match Codegen.Fsm_compile.compile flat with
           | Error _ -> true
           | Ok hmod ->
             let sim = Oracles.Sim.create hmod in
             let fast = Dsim.Fast.create hmod in
             let strobe engine_set edge engine_clr ev =
               let port = Codegen.Fsm_compile.event_input ev in
               engine_set port 1;
               edge ();
               engine_clr port 0
             in
             Oracles.Sim.set_input sim "rst" 1;
             Dsim.Fast.set_input fast "rst" 1;
             Oracles.Sim.clock_edge sim "clk";
             Dsim.Fast.clock_edge fast "clk";
             Oracles.Sim.set_input sim "rst" 0;
             Dsim.Fast.set_input fast "rst" 0;
             List.iter
               (fun ev ->
                 strobe (Oracles.Sim.set_input sim)
                   (fun () -> Oracles.Sim.clock_edge sim "clk")
                   (Oracles.Sim.set_input sim) ev;
                 strobe (Dsim.Fast.set_input fast)
                   (fun () -> Dsim.Fast.clock_edge fast "clk")
                   (Dsim.Fast.set_input fast) ev;
                 if Oracles.Sim.snapshot sim <> Dsim.Fast.snapshot fast then
                   Alcotest.failf "FSM snapshots diverge (seed %d)" seed;
                 if
                   Oracles.Sim.get_enum sim "state"
                   <> Dsim.Fast.get_enum fast "state"
                 then Alcotest.failf "FSM states diverge (seed %d)" seed)
               (Workload.Gen_statechart.event_sequence ~seed ~length:25 3);
             true)))

(* ------------------------------------------------------------------ *)
(* Fixtures shared with test_dsim *)

let counter_module () =
  Module_.make
    ~ports:
      [
        Module_.input "clk" Htype.Bit;
        Module_.input "rst" Htype.Bit;
        Module_.input "en" Htype.Bit;
        Module_.output "q" (Htype.Unsigned 4);
      ]
    ~signals:[ Module_.signal ~init:0 "cnt" (Htype.Unsigned 4) ]
    ~processes:
      [
        Module_.seq_process
          ~reset:("rst", [ Stmt.Assign ("cnt", Expr.of_int ~width:4 0) ])
          ~name:"p_cnt" ~clock:"clk"
          [
            Stmt.If
              ( Expr.(Ref "en" ==: one),
                [ Stmt.Assign ("cnt", Expr.(Ref "cnt" +: of_int 1)) ],
                [] );
          ];
        Module_.comb_process ~name:"p_out" [ Stmt.Assign ("q", Expr.Ref "cnt") ];
      ]
    "counter"

let engine_tests =
  [
    tc "counter behaves identically on the fast engine" (fun () ->
        let fast = Dsim.Fast.create (counter_module ()) in
        Dsim.Fast.set_input fast "en" 1;
        Dsim.Fast.run fast ~clock:"clk" ~cycles:5;
        check Alcotest.int "q" 5 (Dsim.Fast.get fast "q");
        Dsim.Fast.set_input fast "rst" 1;
        Dsim.Fast.clock_edge fast "clk";
        check Alcotest.int "reset" 0 (Dsim.Fast.get fast "q");
        check Alcotest.bool "acyclic comb logic is levelized" true
          (Dsim.Fast.levelized fast));
    tc "uart soc loopback byte matches the reference" (fun () ->
        let flat =
          Hdl.Elaborate.flatten
            (Iplib.Soc.design ~name:"soc"
               [ ("tx", Iplib.Cores.uart_tx ()); ("rx", Iplib.Cores.uart_rx ()) ])
        in
        let sim = Oracles.Sim.create flat in
        let fast = Dsim.Fast.create flat in
        let both_set name v =
          Oracles.Sim.set_input sim name v;
          Dsim.Fast.set_input fast name v
        in
        let both_edge () =
          Oracles.Sim.clock_edge sim "clk";
          Dsim.Fast.clock_edge fast "clk"
        in
        both_set "rst" 1;
        both_edge ();
        both_set "rst" 0;
        both_set "rx_rxd" 1;
        both_edge ();
        both_set "tx_data" 0xA5;
        both_set "tx_start" 1;
        for _ = 1 to 16 do
          both_set "rx_rxd" (Oracles.Sim.get sim "tx_txd");
          both_edge ();
          both_set "tx_start" 0
        done;
        check
          Alcotest.(list (pair string int))
          "snapshots" (Oracles.Sim.snapshot sim) (Dsim.Fast.snapshot fast));
    tc "latch-style self-reading comb falls back and still agrees"
      (fun () ->
        (* q reads itself: the comb dependency graph has a self-loop,
           so levelization must refuse and the worklist fallback run *)
        let m =
          Module_.make
            ~ports:
              [
                Module_.input "en" Htype.Bit;
                Module_.input "d" (Htype.Unsigned 4);
              ]
            ~signals:[ Module_.signal "q" (Htype.Unsigned 4) ]
            ~processes:
              [
                Module_.comb_process ~name:"p_latch"
                  [
                    Stmt.Assign
                      ("q", Expr.Mux (Expr.Ref "en", Expr.Ref "d", Expr.Ref "q"));
                  ];
              ]
            "latch"
        in
        let sim = Oracles.Sim.create m in
        let fast = Dsim.Fast.create m in
        check Alcotest.bool "not levelized" false (Dsim.Fast.levelized fast);
        List.iter
          (fun (en, d) ->
            Oracles.Sim.set_input sim "en" en;
            Dsim.Fast.set_input fast "en" en;
            Oracles.Sim.set_input sim "d" d;
            Dsim.Fast.set_input fast "d" d;
            check
              Alcotest.(list (pair string int))
              "latch snapshot" (Oracles.Sim.snapshot sim)
              (Dsim.Fast.snapshot fast))
          [ (1, 5); (0, 9); (1, 9); (1, 3); (0, 12) ]);
    tc "unstable comb loop raises on both engines" (fun () ->
        let m =
          Module_.make
            ~signals:[ Module_.signal "x" Htype.Bit ]
            ~processes:
              [
                Module_.comb_process ~name:"p"
                  [ Stmt.Assign ("x", Expr.Unop (Expr.Not, Expr.Ref "x")) ];
              ]
            "osc"
        in
        (match Oracles.Sim.create m with
         | _sim -> Alcotest.fail "reference should not settle"
         | exception Dsim.Netlist.Simulation_error _ -> ());
        match Dsim.Fast.create m with
        | _fast -> Alcotest.fail "fast engine should not settle"
        | exception Dsim.Netlist.Simulation_error _ -> ());
    tc "settle budget is configurable and names unstable signals" (fun () ->
        let m =
          Module_.make
            ~signals:[ Module_.signal "x" Htype.Bit ]
            ~processes:
              [
                Module_.comb_process ~name:"p"
                  [ Stmt.Assign ("x", Expr.Unop (Expr.Not, Expr.Ref "x")) ];
              ]
            "osc"
        in
        (match Dsim.Fast.create ~settle_budget:7 m with
         | _fast -> Alcotest.fail "should not settle"
         | exception Dsim.Netlist.Simulation_error msg ->
           let contains needle =
             let nh = String.length msg and nn = String.length needle in
             let rec at i =
               i + nn <= nh && (String.sub msg i nn = needle || at (i + 1))
             in
             at 0
           in
           check Alcotest.bool "budget in message" true (contains "7 rounds");
           check Alcotest.bool "signal named" true (contains "x"));
        match Dsim.Fast.create ~settle_budget:0 (counter_module ()) with
        | _fast -> Alcotest.fail "zero budget must be rejected"
        | exception Invalid_argument _ -> ());
    tc "unknown names and enum literals fail at compile time" (fun () ->
        let ghost_read =
          Module_.make
            ~signals:[ Module_.signal "y" Htype.Bit ]
            ~processes:
              [
                Module_.comb_process ~name:"p"
                  [ Stmt.Assign ("y", Expr.Ref "ghost") ];
              ]
            "bad"
        in
        (match Dsim.Fast.create ghost_read with
         | _fast -> Alcotest.fail "expected Simulation_error"
         | exception Dsim.Netlist.Simulation_error _ -> ());
        let ghost_lit =
          Module_.make
            ~signals:[ Module_.signal "y" (Htype.Enum [ "A"; "B" ]) ]
            ~processes:
              [
                Module_.comb_process ~name:"p"
                  [ Stmt.Assign ("y", Expr.Enum_lit "GHOST") ];
              ]
            "bad_lit"
        in
        match Dsim.Fast.create ghost_lit with
        | _fast -> Alcotest.fail "expected Simulation_error"
        | exception Dsim.Netlist.Simulation_error _ -> ());
  ]

(* ------------------------------------------------------------------ *)
(* 62-bit masking regression: (1 lsl w) - 1 overflows the native-int
   sign for w >= 62, which used to corrupt Slice/Resize of wide
   arithmetic (0 - 1 came back as max_int instead of -1). *)

let wide_tests =
  let wide = Htype.Unsigned 62 in
  let m =
    Module_.make
      ~ports:[ Module_.input "a" wide; Module_.input "b" wide ]
      ~signals:[ Module_.signal "res" wide; Module_.signal "sli" wide ]
      ~processes:
        [
          Module_.comb_process ~name:"p_res"
            [
              Stmt.Assign
                ("res", Expr.Resize (Expr.Binop (Expr.Sub, Expr.Ref "a", Expr.Ref "b"), 62));
            ];
          Module_.comb_process ~name:"p_sli"
            [
              Stmt.Assign
                ("sli", Expr.Slice (Expr.Binop (Expr.Sub, Expr.Ref "a", Expr.Ref "b"), 61, 0));
            ];
        ]
      "wide"
  in
  [
    tc "62-bit resize of 0-1 is all-ones on the reference engine" (fun () ->
        let sim = Oracles.Sim.create m in
        Oracles.Sim.set_input sim "b" 1;
        check Alcotest.int "resize" (-1) (Oracles.Sim.get sim "res");
        check Alcotest.int "slice" (-1) (Oracles.Sim.get sim "sli"));
    tc "62-bit resize of 0-1 is all-ones on the fast engine" (fun () ->
        let fast = Dsim.Fast.create m in
        Dsim.Fast.set_input fast "b" 1;
        check Alcotest.int "resize" (-1) (Dsim.Fast.get fast "res");
        check Alcotest.int "slice" (-1) (Dsim.Fast.get fast "sli"));
    tc "mask_bits guards the wide widths" (fun () ->
        check Alcotest.int "w=4" 15 (Dsim.Netlist.mask_bits 4);
        check Alcotest.int "w=61" ((1 lsl 61) - 1) (Dsim.Netlist.mask_bits 61);
        check Alcotest.int "w=62" (-1) (Dsim.Netlist.mask_bits 62);
        check Alcotest.int "w=63" (-1) (Dsim.Netlist.mask_bits 63));
  ]

(* ------------------------------------------------------------------ *)
(* Renderers over either engine *)

let render_tests =
  [
    tc "vcd output is byte-identical across engines" (fun () ->
        let drive set edge sample =
          set "en" 1;
          for t = 0 to 7 do
            edge ();
            sample t
          done
        in
        let sim = Oracles.Sim.create (counter_module ()) in
        let vref = Dsim.Vcd.of_probe (Oracles.Sim.probe sim) in
        drive (Oracles.Sim.set_input sim)
          (fun () -> Oracles.Sim.clock_edge sim "clk")
          (fun t -> Dsim.Vcd.sample vref ~time:t);
        let fast = Dsim.Fast.create (counter_module ()) in
        let vfast = Dsim.Vcd.create fast in
        drive (Dsim.Fast.set_input fast)
          (fun () -> Dsim.Fast.clock_edge fast "clk")
          (fun t -> Dsim.Vcd.sample vfast ~time:t);
        check Alcotest.string "vcd" (Dsim.Vcd.render vref)
          (Dsim.Vcd.render vfast));
    tc "vcd renders a twice-declared signal like the list-based writer"
      (fun () ->
        (* both slots of [d] render with the first slot's id and width *)
        let m =
          Module_.make
            ~ports:[ Module_.input "clk" Htype.Bit; Module_.input "a" Htype.Bit ]
            ~signals:
              [
                Module_.signal ~init:1 "d" Htype.Bit;
                Module_.signal ~init:2 "d" (Htype.Unsigned 3);
              ]
            ~processes:
              [ Module_.comb_process ~name:"p_d" [ Stmt.Assign ("d", Expr.Ref "a") ] ]
            "dup"
        in
        let fast = Dsim.Fast.create m in
        let vcd = Dsim.Vcd.create fast and vref = Oracles.Vcd_ref.create fast in
        List.iteri
          (fun time a ->
            Dsim.Fast.set_input fast "a" a;
            Dsim.Vcd.sample vcd ~time;
            Oracles.Vcd_ref.sample vref ~time)
          [ 0; 1; 1; 0 ];
        check Alcotest.string "vcd" (Oracles.Vcd_ref.render vref)
          (Dsim.Vcd.render vcd));
    tc "timing diagrams are byte-identical across engines" (fun () ->
        let sim = Oracles.Sim.create (counter_module ()) in
        let tref =
          Dsim.Timing.of_probe ~signals:[ "en"; "q" ] (Oracles.Sim.probe sim)
        in
        Oracles.Sim.set_input sim "en" 1;
        for _ = 1 to 5 do
          Dsim.Timing.sample tref;
          Oracles.Sim.clock_edge sim "clk"
        done;
        let fast = Dsim.Fast.create (counter_module ()) in
        let tfast = Dsim.Timing.create ~signals:[ "en"; "q" ] fast in
        Dsim.Fast.set_input fast "en" 1;
        for _ = 1 to 5 do
          Dsim.Timing.sample tfast;
          Dsim.Fast.clock_edge fast "clk"
        done;
        check Alcotest.string "timing" (Dsim.Timing.render tref)
          (Dsim.Timing.render tfast));
    tc "timing rejects unknown signals on the fast engine" (fun () ->
        let fast = Dsim.Fast.create (counter_module ()) in
        match Dsim.Timing.create ~signals:[ "ghost" ] fast with
        | _tm -> Alcotest.fail "expected Simulation_error"
        | exception Dsim.Netlist.Simulation_error _ -> ());
  ]

(* ------------------------------------------------------------------ *)
(* Telemetry *)

let telemetry_tests =
  [
    tc "fast engine registers all three dsim counters" (fun () ->
        let reg = Telemetry.Metrics.create () in
        let fast = Dsim.Fast.create ~metrics:reg (counter_module ()) in
        Dsim.Fast.set_input fast "en" 1;
        Dsim.Fast.run fast ~clock:"clk" ~cycles:20;
        let value name =
          Telemetry.Metrics.counter_value (Telemetry.Metrics.counter reg name)
        in
        check Alcotest.int "events counter" (Dsim.Fast.events fast)
          (value "dsim.events");
        check Alcotest.int "delta counter" (Dsim.Fast.delta_cycles fast)
          (value "dsim.delta_cycles");
        check Alcotest.int "skipped counter" (Dsim.Fast.skipped_evals fast)
          (value "dsim.skipped_evals");
        check Alcotest.bool "events counted" true (Dsim.Fast.events fast > 0);
        check Alcotest.bool "deltas counted" true
          (Dsim.Fast.delta_cycles fast > 0));
    tc "steady state skips comb evaluations" (fun () ->
        let fast = Dsim.Fast.create (counter_module ()) in
        (* en stays 0: cnt never changes, so the comb process q := cnt
           must not be re-evaluated by the settling after each edge *)
        let s0 = Dsim.Fast.skipped_evals fast in
        Dsim.Fast.run fast ~clock:"clk" ~cycles:10;
        check Alcotest.bool "skips accumulate" true
          (Dsim.Fast.skipped_evals fast > s0));
    tc "snapshot matches signals and get" (fun () ->
        let fast = Dsim.Fast.create (counter_module ()) in
        let snap = Dsim.Fast.snapshot fast in
        let sorted =
          List.sort (fun (a, _) (b, _) -> String.compare a b) snap
        in
        check Alcotest.bool "sorted by name" true (snap = sorted);
        List.iter
          (fun (name, v) ->
            check Alcotest.int name v (Dsim.Fast.get fast name))
          snap;
        check Alcotest.int "one entry per signal"
          (List.length (Dsim.Fast.signals fast))
          (List.length snap));
  ]

let () =
  Alcotest.run "dsim_fast"
    [
      ( "differential",
        [
          qcheck_random_modules;
          qcheck_conflicting_writers;
          qcheck_fsm_modules;
          qcheck_vcd_lockstep;
        ] );
      ("engine", engine_tests);
      ("wide", wide_tests);
      ("render", render_tests);
      ("telemetry", telemetry_tests);
    ]
