(* Tests for the RTL engines and the VCD and timing renderers: every
   case drives the production engine (Dsim.Fast) and the reference
   interpreter (Oracles.Sim) in lockstep through [Oracles.Both], which
   checks that they agree, expected errors included. *)

open Hdl

let tc name f = Alcotest.test_case name `Quick f
let check = Alcotest.check

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

let sim_tests =
  [
    tc "counter counts when enabled" (fun () ->
        let sim = Oracles.Both.create (counter_module ()) in
        Oracles.Both.set_input sim "en" 1;
        Oracles.Both.run sim ~clock:"clk" ~cycles:5;
        check Alcotest.int "q" 5 (Oracles.Both.get sim "q"));
    tc "counter holds when disabled" (fun () ->
        let sim = Oracles.Both.create (counter_module ()) in
        Oracles.Both.set_input sim "en" 1;
        Oracles.Both.run sim ~clock:"clk" ~cycles:3;
        Oracles.Both.set_input sim "en" 0;
        Oracles.Both.run sim ~clock:"clk" ~cycles:4;
        check Alcotest.int "q" 3 (Oracles.Both.get sim "q"));
    tc "synchronous reset wins" (fun () ->
        let sim = Oracles.Both.create (counter_module ()) in
        Oracles.Both.set_input sim "en" 1;
        Oracles.Both.run sim ~clock:"clk" ~cycles:3;
        Oracles.Both.set_input sim "rst" 1;
        Oracles.Both.clock_edge sim "clk";
        check Alcotest.int "reset" 0 (Oracles.Both.get sim "q"));
    tc "width wrap-around" (fun () ->
        let sim = Oracles.Both.create (counter_module ()) in
        Oracles.Both.set_input sim "en" 1;
        Oracles.Both.run sim ~clock:"clk" ~cycles:17;
        check Alcotest.int "wrapped" 1 (Oracles.Both.get sim "q"));
    tc "inputs are masked to port width" (fun () ->
        let sim = Oracles.Both.create (counter_module ()) in
        Oracles.Both.set_input sim "en" 0xFF;
        check Alcotest.int "bit" 1 (Oracles.Both.get sim "en"));
    tc "unknown signal raises" (fun () ->
        let sim = Oracles.Both.create (counter_module ()) in
        match Oracles.Both.get sim "ghost" with
        | _v -> Alcotest.fail "expected Simulation_error"
        | exception Dsim.Netlist.Simulation_error _ -> ());
    tc "comb chains settle through deltas" (fun () ->
        (* a -> b -> c combinational chain *)
        let m =
          Module_.make
            ~ports:
              [ Module_.input "a" Htype.Bit; Module_.output "c" Htype.Bit ]
            ~signals:[ Module_.signal "b" Htype.Bit ]
            ~processes:
              [
                Module_.comb_process ~name:"p1"
                  [ Stmt.Assign ("b", Expr.Ref "a") ];
                Module_.comb_process ~name:"p2"
                  [ Stmt.Assign ("c", Expr.Ref "b") ];
              ]
            "chain"
        in
        let sim = Oracles.Both.create m in
        Oracles.Both.set_input sim "a" 1;
        check Alcotest.int "propagated" 1 (Oracles.Both.get sim "c"));
    tc "unstable comb loop raises" (fun () ->
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
        match Oracles.Both.create m with
        | _sim -> Alcotest.fail "expected Simulation_error"
        | exception Dsim.Netlist.Simulation_error _ -> ());
    tc "enum signals read back as literals" (fun () ->
        let ty = Htype.Enum [ "IDLE"; "BUSY" ] in
        let m =
          Module_.make
            ~ports:[ Module_.input "clk" Htype.Bit ]
            ~signals:[ Module_.signal ~init:0 "st" ty ]
            ~processes:
              [
                Module_.seq_process ~name:"p" ~clock:"clk"
                  [ Stmt.Assign ("st", Expr.Enum_lit "BUSY") ];
              ]
            "fsm"
        in
        let sim = Oracles.Both.create m in
        check Alcotest.string "idle" "IDLE" (Oracles.Both.get_enum sim "st");
        Oracles.Both.clock_edge sim "clk";
        check Alcotest.string "busy" "BUSY" (Oracles.Both.get_enum sim "st"));
    tc "case and mux evaluate" (fun () ->
        let m =
          Module_.make
            ~ports:
              [
                Module_.input "sel" (Htype.Unsigned 2);
                Module_.output "y" (Htype.Unsigned 4);
              ]
            ~processes:
              [
                Module_.comb_process ~name:"p"
                  [
                    Stmt.Case
                      ( Expr.Ref "sel",
                        [
                          (Stmt.Ch_int 0, [ Stmt.Assign ("y", Expr.of_int ~width:4 3) ]);
                          (Stmt.Ch_int 1, [ Stmt.Assign ("y", Expr.of_int ~width:4 7) ]);
                        ],
                        Some [ Stmt.Assign ("y", Expr.of_int ~width:4 15) ] );
                  ];
              ]
            "muxy"
        in
        let sim = Oracles.Both.create m in
        check Alcotest.int "sel0" 3 (Oracles.Both.get sim "y");
        Oracles.Both.set_input sim "sel" 1;
        check Alcotest.int "sel1" 7 (Oracles.Both.get sim "y");
        Oracles.Both.set_input sim "sel" 2;
        check Alcotest.int "default" 15 (Oracles.Both.get sim "y"));
    tc "slice and concat" (fun () ->
        let m =
          Module_.make
            ~ports:
              [
                Module_.input "w" (Htype.Unsigned 8);
                Module_.output "hi" (Htype.Unsigned 4);
                Module_.output "swapped" (Htype.Unsigned 8);
              ]
            ~processes:
              [
                Module_.comb_process ~name:"p"
                  [
                    Stmt.Assign ("hi", Expr.Slice (Expr.Ref "w", 7, 4));
                    Stmt.Assign
                      ( "swapped",
                        Expr.Concat
                          ( Expr.Slice (Expr.Ref "w", 3, 0),
                            Expr.Slice (Expr.Ref "w", 7, 4) ) );
                  ];
              ]
            "slicer"
        in
        let sim = Oracles.Both.create m in
        Oracles.Both.set_input sim "w" 0xA5;
        check Alcotest.int "hi nibble" 0xA (Oracles.Both.get sim "hi");
        check Alcotest.int "swapped" 0x5A (Oracles.Both.get sim "swapped"));
    tc "event counters increase" (fun () ->
        let sim = Oracles.Both.create (counter_module ()) in
        let e0_fast, e0_ref = Oracles.Both.events sim in
        Oracles.Both.set_input sim "en" 1;
        Oracles.Both.run sim ~clock:"clk" ~cycles:10;
        let e_fast, e_ref = Oracles.Both.events sim in
        check Alcotest.bool "more events" true
          (e_fast > e0_fast && e_ref > e0_ref);
        let d_fast, d_ref = Oracles.Both.delta_cycles sim in
        check Alcotest.bool "deltas counted" true (d_fast > 0 && d_ref > 0));
  ]

let vcd_tests =
  [
    tc "vcd has definitions and changes" (fun () ->
        let sim = Oracles.Both.create (counter_module ()) in
        let vcd = Dsim.Vcd.of_probe (Oracles.Both.probe sim) in
        Oracles.Both.set_input sim "en" 1;
        for t = 0 to 3 do
          Oracles.Both.clock_edge sim "clk";
          Dsim.Vcd.sample vcd ~time:t
        done;
        let text = Dsim.Vcd.render vcd in
        let contains needle =
          let nl = String.length needle in
          let hl = String.length text in
          let rec go i =
            i + nl <= hl && (String.sub text i nl = needle || go (i + 1))
          in
          go 0
        in
        check Alcotest.bool "header" true (contains "$enddefinitions");
        check Alcotest.bool "var" true (contains "$var wire 4");
        check Alcotest.bool "timestamps" true (contains "#0");
        check Alcotest.bool "vector change" true (contains "b"));
  ]

let timing_tests =
  [
    tc "timing lanes show bit waveforms" (fun () ->
        let sim = Oracles.Both.create (counter_module ()) in
        let tm =
          Dsim.Timing.of_probe ~signals:[ "en"; "q" ] (Oracles.Both.probe sim)
        in
        Oracles.Both.set_input sim "en" 1;
        for _ = 1 to 4 do
          Dsim.Timing.sample tm;
          Oracles.Both.clock_edge sim "clk"
        done;
        Dsim.Timing.sample tm;
        check Alcotest.int "5 samples" 5 (Dsim.Timing.length tm);
        let text = Dsim.Timing.render tm in
        let lines = String.split_on_char '\n' text in
        (match List.find_opt (fun l -> String.length l > 2 && String.sub l 0 2 = "en") lines with
         | Some lane ->
           check Alcotest.bool "en high" true
             (String.contains lane '#')
         | None -> Alcotest.fail "en lane missing");
        match List.find_opt (fun l -> String.length l > 1 && l.[0] = 'q') lines with
        | Some lane ->
          (* q is a vector: transitions shown as |value *)
          check Alcotest.bool "q values" true (String.contains lane '|')
        | None -> Alcotest.fail "q lane missing");
    tc "unchanged vectors leave blank cells" (fun () ->
        let sim = Oracles.Both.create (counter_module ()) in
        let tm =
          Dsim.Timing.of_probe ~signals:[ "q" ] (Oracles.Both.probe sim)
        in
        (* en=0: q never changes -> exactly one |0 cell *)
        for _ = 1 to 3 do
          Dsim.Timing.sample tm;
          Oracles.Both.clock_edge sim "clk"
        done;
        let text = Dsim.Timing.render tm in
        let pipes =
          String.fold_left (fun n c -> if c = '|' then n + 1 else n) 0 text
        in
        check Alcotest.int "one transition cell" 1 pipes);
    tc "unknown signals are rejected" (fun () ->
        let sim = Oracles.Both.create (counter_module ()) in
        match
          Dsim.Timing.of_probe ~signals:[ "ghost" ] (Oracles.Both.probe sim)
        with
        | _tm -> Alcotest.fail "expected Simulation_error"
        | exception Dsim.Netlist.Simulation_error _ -> ());
  ]

let () =
  Alcotest.run "dsim"
    [ ("sim", sim_tests); ("vcd", vcd_tests); ("timing", timing_tests) ]
