(* Tests for the code generators: VHDL/Verilog/SystemC emitters, the
   statechart FSM compiler, and the ASL-to-C generator. *)

open Uml

let tc name f = Alcotest.test_case name `Quick f
let check = Alcotest.check

let contains hay needle =
  let nl = String.length needle in
  let hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let counter_module () =
  let open Hdl in
  Module_.make
    ~ports:
      [
        Module_.input "clk" Htype.Bit;
        Module_.input "rst" Htype.Bit;
        Module_.output "q" (Htype.Unsigned 4);
      ]
    ~signals:[ Module_.signal ~init:0 "cnt" (Htype.Unsigned 4) ]
    ~processes:
      [
        Module_.seq_process
          ~reset:("rst", [ Stmt.Assign ("cnt", Expr.of_int ~width:4 0) ])
          ~name:"p_cnt" ~clock:"clk"
          [ Stmt.Assign ("cnt", Expr.(Ref "cnt" +: of_int 1)) ];
        Module_.comb_process ~name:"p_out" [ Stmt.Assign ("q", Expr.Ref "cnt") ];
      ]
    "counter"

(* [top] instantiates the counter; listed before it, printed after. *)
let counter_design () =
  let open Hdl in
  let top =
    Module_.make
      ~ports:[ Module_.input "clk" Htype.Bit; Module_.input "rst" Htype.Bit ]
      ~signals:[ Module_.signal "q0" (Htype.Unsigned 4) ]
      ~instances:
        [
          { Module_.inst_name = "u0"; inst_module = "counter";
            inst_conns = [ ("clk", "clk"); ("rst", "rst"); ("q", "q0") ] };
        ]
      "top"
  in
  Module_.design ~top:"top" [ top; counter_module () ]

let all_cores_soc () =
  Iplib.Soc.design ~name:"soc_all"
    (List.mapi
       (fun i core -> (Printf.sprintf "i%d" i, core))
       (Iplib.Cores.catalogue ()))

let emitters_tests =
  [
    tc "vhdl has entity/architecture/process" (fun () ->
        let text = Codegen.Vhdl.of_module (counter_module ()) in
        check Alcotest.bool "entity" true (contains text "entity counter is");
        check Alcotest.bool "arch" true
          (contains text "architecture rtl of counter is");
        check Alcotest.bool "rising_edge" true (contains text "rising_edge(clk)");
        check Alcotest.bool "unsigned" true
          (contains text "unsigned(3 downto 0)"));
    tc "verilog has module/always" (fun () ->
        let text = Codegen.Verilog.of_module (counter_module ()) in
        check Alcotest.bool "module" true (contains text "module counter (");
        check Alcotest.bool "posedge" true (contains text "always @(posedge clk)");
        check Alcotest.bool "range" true (contains text "[3:0]"));
    tc "systemc has SC_MODULE and sensitivity" (fun () ->
        let text = Codegen.Systemc.of_module (counter_module ()) in
        check Alcotest.bool "module" true (contains text "SC_MODULE(counter)");
        check Alcotest.bool "ctor" true (contains text "SC_CTOR(counter)");
        check Alcotest.bool "clock" true (contains text "sensitive << clk.pos()"));
    tc "verilog outputs driven by an instance are nets" (fun () ->
        let text = Codegen.Verilog.of_design (all_cores_soc ()) in
        check Alcotest.bool "top output" true
          (contains text "\n  output i0_tick,\n");
        check Alcotest.bool "connected" true (contains text ".tick(i0_tick)");
        check Alcotest.bool "no reg" false (contains text "output reg i0_");
        check Alcotest.bool "timer assigns its tick" true
          (contains text "\n  output reg tick,\n"));
    tc "verilog internal signals driven by an instance are nets" (fun () ->
        let text = Codegen.Verilog.of_design (counter_design ()) in
        check Alcotest.bool "wire" true (contains text "\n  wire [3:0] q0;\n");
        check Alcotest.bool "counter assigns its q" true
          (contains text "\n  output reg [3:0] q\n"));
    tc "of_design emits dependencies before users" (fun () ->
        let text = Codegen.Vhdl.of_design (counter_design ()) in
        let pos needle =
          let rec go i =
            if i + String.length needle > String.length text then -1
            else if String.sub text i (String.length needle) = needle then i
            else go (i + 1)
          in
          go 0
        in
        check Alcotest.bool "counter first" true
          (pos "entity counter" >= 0
          && pos "entity counter" < pos "entity top"));
    tc "vhdl gives each distinct enum type its own name" (fun () ->
        let open Hdl in
        let mode = Htype.Enum [ "idle"; "run" ] in
        let phase = Htype.Enum [ "a"; "b"; "c" ] in
        let m =
          Module_.make
            ~ports:[ Module_.input "clk" Htype.Bit ]
            ~signals:
              [
                Module_.signal "p1" phase;
                Module_.signal ~init:0 "m0" mode;
                Module_.signal ~init:1 "m1" mode;
                Module_.signal ~init:2 "p2" phase;
              ]
            "two"
        in
        let text = Codegen.Vhdl.of_module m in
        let count needle =
          let n = String.length needle in
          let rec go i acc =
            if i + n > String.length text then acc
            else go (i + 1) (if String.sub text i n = needle then acc + 1 else acc)
          in
          go 0 0
        in
        List.iter
          (fun decl -> check Alcotest.int decl 1 (count decl))
          [
            "  type two_state_t is (S_a, S_b, S_c);\n";
            "  type two_state2_t is (S_idle, S_run);\n";
            "  signal p1 : two_state_t;\n";
            "  signal m0 : two_state2_t := S_idle;\n";
            "  signal m1 : two_state2_t := S_run;\n";
            "  signal p2 : two_state_t := S_c;\n";
          ];
        check Alcotest.int "two type declarations" 2 (count "  type ");
        check Alcotest.string "type_string agrees" "two_state2_t"
          (Codegen.Vhdl.type_string m mode));
    tc "vhdl declares enum types in a package when a port has one"
      (fun () ->
        let open Hdl in
        let mode = Htype.Enum [ "idle"; "run" ] in
        let phase = Htype.Enum [ "a"; "b" ] in
        let m =
          Module_.make
            ~ports:
              [ Module_.input "clk" Htype.Bit; Module_.output "mode" mode ]
            ~signals:[ Module_.signal "ph" phase; Module_.signal "m" mode ]
            "ctl"
        in
        let text = Codegen.Vhdl.of_module m in
        let pos needle =
          let n = String.length needle in
          let rec go i =
            if i + n > String.length text then -1
            else if String.sub text i n = needle then i
            else go (i + 1)
          in
          go 0
        in
        check Alcotest.bool "package first" true
          (String.starts_with
             ~prefix:
               "package ctl_types is\n\
               \  type ctl_state_t is (S_idle, S_run);\n\
               \  type ctl_state2_t is (S_a, S_b);\n\
                end package ctl_types;\n\n\
                library ieee;\n"
             text);
        check Alcotest.bool "used right before the entity" true
          (contains text "use work.ctl_types.all;\n\nentity ctl is");
        check Alcotest.bool "port spelled with it" true
          (contains text "    mode : out ctl_state_t");
        check Alcotest.bool "no type in the architecture" false
          (let arch = pos "architecture rtl" in
           contains (String.sub text arch (String.length text - arch)) "type ");
        check Alcotest.bool "no package without enum ports" false
          (contains
             (Codegen.Vhdl.of_module
                (Module_.make ~signals:[ Module_.signal "m" mode ] "plain"))
             "package"));
  ]

(* --- FSM compiler --------------------------------------------------------- *)

let simple_machine () =
  let a = Smachine.simple_state "A" in
  let b = Smachine.simple_state "B" in
  let init = Smachine.pseudostate Smachine.Initial in
  let r =
    Smachine.region
      [ Smachine.Pseudo init; Smachine.State a; Smachine.State b ]
      [
        Smachine.transition ~source:init.Smachine.ps_id
          ~target:a.Smachine.st_id ();
        Smachine.transition
          ~triggers:[ Smachine.Signal_trigger "go" ]
          ~effect:"n := 1;" ~source:a.Smachine.st_id ~target:b.Smachine.st_id
          ();
        Smachine.transition
          ~triggers:[ Smachine.Signal_trigger "back" ]
          ~effect:"n := 0;" ~source:b.Smachine.st_id ~target:a.Smachine.st_id
          ();
      ]
  in
  Smachine.make "toggler" [ r ]

(* A counts [inc] events in n; [check] reaches B only once n >= 2 *)
let counting_machine () =
  let a = Smachine.simple_state "A" in
  let b = Smachine.simple_state "B" in
  let init = Smachine.pseudostate Smachine.Initial in
  let r =
    Smachine.region
      [ Smachine.Pseudo init; Smachine.State a; Smachine.State b ]
      [
        Smachine.transition ~source:init.Smachine.ps_id
          ~target:a.Smachine.st_id ();
        Smachine.transition
          ~triggers:[ Smachine.Signal_trigger "inc" ]
          ~effect:"n := n + 1;" ~source:a.Smachine.st_id
          ~target:a.Smachine.st_id ();
        Smachine.transition
          ~triggers:[ Smachine.Signal_trigger "check" ]
          ~guard:"n >= 2" ~source:a.Smachine.st_id ~target:b.Smachine.st_id
          ();
      ]
  in
  Smachine.make "counterfsm" [ r ]

let flat_of sm =
  match Statechart.Flatten.flatten sm with
  | Ok f -> f
  | Error m -> Alcotest.fail m

let fsm_tests =
  [
    tc "compiled FSM passes RTL checks" (fun () ->
        match Codegen.Fsm_compile.compile (flat_of (simple_machine ())) with
        | Ok hmod ->
          check (Alcotest.list Alcotest.string) "clean" []
            (Hdl.Check.messages (Hdl.Check.check_module hmod))
        | Error m -> Alcotest.fail m);
    tc "compiled FSM behaves like the flat machine" (fun () ->
        let flat = flat_of (simple_machine ()) in
        match Codegen.Fsm_compile.compile flat with
        | Error m -> Alcotest.fail m
        | Ok hmod ->
          let sim = Oracles.Sim.create hmod in
          Oracles.Sim.set_input sim "rst" 1;
          Oracles.Sim.clock_edge sim "clk";
          Oracles.Sim.set_input sim "rst" 0;
          let events = [ "go"; "back"; "go"; "zzz"; "back" ] in
          let rtl_trace =
            List.filter_map
              (fun ev ->
                let port = Codegen.Fsm_compile.event_input ev in
                (match Oracles.Sim.get sim port with
                 | _known -> Oracles.Sim.set_input sim port 1
                 | exception Dsim.Netlist.Simulation_error _ -> ());
                Oracles.Sim.clock_edge sim "clk";
                (match Oracles.Sim.get sim port with
                 | _known -> Oracles.Sim.set_input sim port 0
                 | exception Dsim.Netlist.Simulation_error _ -> ());
                Some (Oracles.Sim.get_enum sim "state"))
              events
          in
          let flat_trace = Statechart.Flatten.simulate flat events in
          check (Alcotest.list Alcotest.string) "same" flat_trace rtl_trace);
    tc "effect variables become outputs" (fun () ->
        let flat = flat_of (simple_machine ()) in
        match Codegen.Fsm_compile.compile flat with
        | Error m -> Alcotest.fail m
        | Ok hmod ->
          check Alcotest.bool "n is a port" true
            (Hdl.Module_.find_port hmod "n" <> None);
          let sim = Oracles.Sim.create hmod in
          Oracles.Sim.set_input sim "rst" 1;
          Oracles.Sim.clock_edge sim "clk";
          Oracles.Sim.set_input sim "rst" 0;
          Oracles.Sim.set_input sim (Codegen.Fsm_compile.event_input "go") 1;
          Oracles.Sim.clock_edge sim "clk";
          check Alcotest.int "n=1 after go" 1 (Oracles.Sim.get sim "n"));
    tc "guards over effect variables work in hardware" (fun () ->
        let flat = flat_of (counting_machine ()) in
        match Codegen.Fsm_compile.compile flat with
        | Error m -> Alcotest.fail m
        | Ok hmod ->
          let sim = Oracles.Sim.create hmod in
          Oracles.Sim.set_input sim "rst" 1;
          Oracles.Sim.clock_edge sim "clk";
          Oracles.Sim.set_input sim "rst" 0;
          let pulse ev =
            let port = Codegen.Fsm_compile.event_input ev in
            Oracles.Sim.set_input sim port 1;
            Oracles.Sim.clock_edge sim "clk";
            Oracles.Sim.set_input sim port 0
          in
          pulse "check";
          check Alcotest.string "guard blocks at n=0" "A"
            (Oracles.Sim.get_enum sim "state");
          pulse "inc";
          pulse "check";
          check Alcotest.string "guard blocks at n=1" "A"
            (Oracles.Sim.get_enum sim "state");
          pulse "inc";
          pulse "check";
          check Alcotest.string "guard passes at n=2" "B"
            (Oracles.Sim.get_enum sim "state");
          check Alcotest.int "n output" 2 (Oracles.Sim.get sim "n"));
    tc "unsupported effects are a clean error" (fun () ->
        let a = Smachine.simple_state "A" in
        let init = Smachine.pseudostate Smachine.Initial in
        let r =
          Smachine.region
            [ Smachine.Pseudo init; Smachine.State a ]
            [
              Smachine.transition ~source:init.Smachine.ps_id
                ~target:a.Smachine.st_id ();
              Smachine.transition
                ~triggers:[ Smachine.Signal_trigger "go" ]
                ~effect:"while true do ; end;" ~source:a.Smachine.st_id
                ~target:a.Smachine.st_id ();
            ]
        in
        let flat = flat_of (Smachine.make "m" [ r ]) in
        match Codegen.Fsm_compile.compile flat with
        | Ok _m -> Alcotest.fail "expected Error"
        | Error _m -> ());
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make
         ~name:"generated machines compile and match the flat simulation"
         ~count:20
         QCheck.(pair (int_range 1 3000) (int_range 1 3000))
         (fun (seed, ev_seed) ->
           let sm = Workload.Gen_statechart.flat ~seed ~states:5 ~events:3 in
           let flat =
             match Statechart.Flatten.flatten sm with
             | Ok f -> f
             | Error _ -> QCheck.assume_fail ()
           in
           match Codegen.Fsm_compile.compile flat with
           | Error _m -> false
           | Ok hmod ->
             let sim = Oracles.Sim.create hmod in
             Oracles.Sim.set_input sim "rst" 1;
             Oracles.Sim.clock_edge sim "clk";
             Oracles.Sim.set_input sim "rst" 0;
             let events =
               Workload.Gen_statechart.event_sequence ~seed:ev_seed
                 ~length:12 3
             in
             let rtl_trace =
               List.map
                 (fun ev ->
                   let port = Codegen.Fsm_compile.event_input ev in
                   Oracles.Sim.set_input sim port 1;
                   Oracles.Sim.clock_edge sim "clk";
                   Oracles.Sim.set_input sim port 0;
                   Oracles.Sim.get_enum sim "state")
                 events
             in
             rtl_trace = Statechart.Flatten.simulate flat events));
  ]

(* --- C generator ------------------------------------------------------------ *)

let c_model () =
  let m = Model.create "sw" in
  let helper =
    Classifier.make
      ~attributes:[ Classifier.property "bias" Dtype.Integer ]
      ~operations:
        [
          Classifier.operation
            ~params:
              [
                Classifier.parameter "x" Dtype.Integer;
                Classifier.parameter ~direction:Classifier.Return "r"
                  Dtype.Integer;
              ]
            ~body:"return x + self.bias;" "adjust";
        ]
      "Helper"
  in
  Model.add m (Model.E_classifier helper);
  let main =
    Classifier.make
      ~attributes:
        [
          Classifier.property ~default:(Vspec.of_int 10) "acc" Dtype.Integer;
          Classifier.property "buddy" (Dtype.Ref helper.Classifier.cl_id);
        ]
      ~operations:
        [
          Classifier.operation
            ~params:
              [
                Classifier.parameter ~direction:Classifier.Return "r"
                  Dtype.Integer;
              ]
            ~body:
              "var total := 0; for i := 1 to 4 do total := total + i; end; \
               if total > 5 then self.acc := self.acc + total; end; send \
               done_sig(); return self.acc;"
            "step";
        ]
      "Main"
  in
  Model.add m (Model.E_classifier main);
  m

let cgen_tests =
  [
    tc "generated C declares structs and functions" (fun () ->
        let text = Codegen.Cgen.of_model (c_model ()) in
        check Alcotest.bool "struct" true (contains text "struct Main {");
        check Alcotest.bool "ctor" true (contains text "struct Main *Main_new(void)");
        check Alcotest.bool "fn" true (contains text "int Main_step(struct Main *self)");
        check Alcotest.bool "for loop" true (contains text "for (int i = 1; i <= 4; i++)");
        check Alcotest.bool "send hook" true (contains text "socuml_emit(\"done_sig\")");
        check Alcotest.bool "default" true (contains text "self->acc = 10;"));
    tc "method call resolves receiver class" (fun () ->
        let m = c_model () in
        let main =
          match Model.classifier_named m "Main" with
          | Some c -> c
          | None -> Alcotest.fail "Main missing"
        in
        let with_call =
          {
            main with
            Classifier.cl_operations =
              [
                Classifier.operation ~body:"return self.buddy.adjust(1);"
                  "delegate";
              ];
          }
        in
        Model.replace m (Model.E_classifier with_call);
        let text = Codegen.Cgen.of_model m in
        check Alcotest.bool "dispatch" true
          (contains text "Helper_adjust(self->buddy, 1)"));
    tc "unparsable body becomes a stub with a comment" (fun () ->
        let m = Model.create "m" in
        Model.add m
          (Model.E_classifier
             (Classifier.make
                ~operations:[ Classifier.operation ~body:"if if" "broken" ]
                "K"));
        let text = Codegen.Cgen.of_model m in
        check Alcotest.bool "stub" true (contains text "body not translated"));
    tc "generated C compiles with cc when available" (fun () ->
        if Sys.command "command -v cc > /dev/null 2>&1" <> 0 then ()
        else begin
          let text = Codegen.Cgen.of_model (c_model ()) in
          let dir = Filename.temp_file "socuml" "" in
          Sys.remove dir;
          Sys.mkdir dir 0o755;
          let path = Filename.concat dir "gen.c" in
          let oc = open_out path in
          output_string oc text;
          (* satisfy the extern hook so -fsyntax-only is not needed *)
          output_string oc "\nvoid socuml_emit(const char *s) { (void)s; }\n";
          close_out oc;
          let rc =
            Sys.command
              (Printf.sprintf "cc -std=c99 -fsyntax-only -Wall -Werror %s"
                 (Filename.quote path))
          in
          check Alcotest.int "cc accepts" 0 rc
        end);
  ]

let testbench_tests =
  [
    tc "testbench drives events and skips unknown ones" (fun () ->
        let flat = flat_of (simple_machine ()) in
        match Codegen.Fsm_compile.compile flat with
        | Error m -> Alcotest.fail m
        | Ok hmod ->
          let text =
            Codegen.Testbench.vhdl_for_fsm hmod
              ~events:[ "go"; "bogus"; "back" ]
          in
          check Alcotest.bool "entity" true (contains text "entity toggler_tb is");
          check Alcotest.bool "dut" true (contains text "entity work.toggler");
          check Alcotest.bool "go strobe" true (contains text "ev_go <= '1';");
          check Alcotest.bool "back strobe" true (contains text "ev_back <= '1';");
          check Alcotest.bool "bogus skipped" true
            (contains text "-- event bogus: no matching input port"));
  ]

(* --- generated text, pinned by digest ------------------------------------ *)

(* Every statement and expression form the printers know, in value and
   in condition position: [Null], an [If] without else, [Case] over
   integers and over an enum with and without a default, a
   combinational process that reads no port, a clocked process without
   reset, enum and bit signals with initial values. *)
let constructs_module () =
  let open Hdl in
  let mode = Htype.Enum [ "idle"; "run-1"; "halt" ] in
  let a = Expr.Ref "a" and b = Expr.Ref "b" and v = Expr.Ref "v" in
  let acc = Expr.Ref "acc" in
  let set name e = Stmt.Assign (name, e) in
  let bits hi lo = Expr.Slice (v, hi, lo) in
  Module_.make
    ~ports:
      [
        Module_.input "clk" Htype.Bit;
        Module_.input "a" Htype.Bit;
        Module_.input "b" Htype.Bit;
        Module_.input "v" (Htype.Unsigned 4);
        Module_.output "y" Htype.Bit;
        Module_.output "w" (Htype.Unsigned 8);
      ]
    ~signals:
      [
        Module_.signal ~init:1 "m" mode;
        Module_.signal ~init:1 "flag" Htype.Bit;
        Module_.signal ~init:3 "acc" (Htype.Unsigned 8);
      ]
    ~processes:
      [
        Module_.comb_process ~name:"p.mix"
          [
            Stmt.Null;
            Stmt.If
              ( Expr.Binop (Expr.Xor, a, Expr.Unop (Expr.Not, b)),
                [ set "y" (Expr.Unop (Expr.Reduce_and, v)) ],
                [] );
            Stmt.If
              ( Expr.Binop (Expr.Or, Expr.Unop (Expr.Reduce_or, v), Expr.one),
                [ set "y" (Expr.Mux (a, b, Expr.zero)) ],
                [ set "y" (Expr.Binop (Expr.And, a, b)) ] );
            set "w" (Expr.Concat (bits 3 1, Expr.Resize (bits 0 0, 5)));
          ];
        Module_.comb_process ~name:"p_internal"
          [ set "flag" (Expr.Binop (Expr.Lt, acc, Expr.of_int ~width:8 9)) ];
        Module_.seq_process ~name:"p_step" ~clock:"clk"
          [
            Stmt.Case
              ( Expr.Ref "m",
                [
                  (Stmt.Ch_enum "idle", [ set "m" (Expr.Enum_lit "run-1") ]);
                  (Stmt.Ch_enum "run-1", [ Stmt.Null ]);
                ],
                Some [ set "m" (Expr.Enum_lit "idle") ] );
            Stmt.Case
              ( v,
                List.mapi
                  (fun i op ->
                    (Stmt.Ch_int i, [ set "acc" (Expr.Binop (op, acc, v)) ]))
                  [ Expr.Shl; Expr.Shr; Expr.Mul ],
                None );
          ];
      ]
    "constructs"

let hex s = Digest.to_hex (Digest.string s)

let compiled sm =
  match Codegen.Fsm_compile.compile (flat_of sm) with
  | Ok m -> m
  | Error e -> Alcotest.fail e

(* A subject and its generated texts: (kind, printer) pairs. *)
let hdl_module m =
  [
    ("vhdl", fun () -> Codegen.Vhdl.of_module (m ()));
    ("verilog", fun () -> Codegen.Verilog.of_module (m ()));
    ("systemc", fun () -> Codegen.Systemc.of_module (m ()));
  ]

let hdl_design d =
  [
    ("vhdl", fun () -> Codegen.Vhdl.of_design (d ()));
    ("verilog", fun () -> Codegen.Verilog.of_design (d ()));
    ("systemc", fun () -> Codegen.Systemc.of_design (d ()));
  ]

(* The three printers plus a testbench over [events] and one event that
   matches no port. *)
let fsm sm events =
  hdl_module (fun () -> compiled (sm ()))
  @ [
      ( "tb",
        fun () ->
          Codegen.Testbench.vhdl_for_fsm (compiled (sm ()))
            ~events:(events @ [ "unmatched" ]) );
    ]

let c_text m = [ ("c", fun () -> Codegen.Cgen.of_model (m ())) ]

let subjects =
  [
    ("counter", hdl_module counter_module);
    ("counter-top", hdl_design counter_design);
    ("constructs", hdl_module constructs_module);
  ]
  @ List.map
      (fun (core : Iplib.Core.t) ->
        ( "core-" ^ core.Iplib.Core.ip_name,
          hdl_module (fun () -> core.Iplib.Core.ip_module) ))
      (Iplib.Cores.catalogue ())
  @ [
      ("soc-all", hdl_design all_cores_soc);
      ("toggler", fsm simple_machine [ "go"; "bogus"; "back" ]);
      ("counterfsm", fsm counting_machine [ "inc"; "check"; "inc" ]);
    ]
  (* 5 to 7 states: with a power-of-two count, Prng.int draws targets
     from the seed's low bits only and different seeds collide *)
  @ List.init 10 (fun i ->
        let seed = i + 1 in
        ( Printf.sprintf "flat-%d" seed,
          fsm
            (fun () ->
              Workload.Gen_statechart.flat ~seed ~states:(5 + (i mod 3))
                ~events:3)
            (Workload.Gen_statechart.event_sequence ~seed ~length:5 3) ))
  @ List.init 10 (fun i ->
        let seed = i + 1 in
        ( Printf.sprintf "hier-%d" seed,
          fsm
            (fun () ->
              Workload.Gen_statechart.hierarchical ~seed ~depth:(2 + (i mod 2))
                ~breadth:2 ~events:3)
            (Workload.Gen_statechart.event_sequence ~seed ~length:5 3) ))
  @ [ ("c-model", c_text c_model) ]
  @ List.map
      (fun seed ->
        ( Printf.sprintf "c-structural-%d" seed,
          c_text (fun () -> Workload.Gen_model.structural ~seed ~classes:6) ))
      [ 1; 2; 3 ]

(* ("subject.kind", MD5 of the generated text), pinned before the three
   printers shared one statement walker.  soc-all.verilog was
   re-recorded when Verilog stopped declaring outputs driven by an
   instance as reg, and counter-top.verilog when it did the same for
   internal signals (q0 became a wire). *)
let digests =
  [
    ("counter.vhdl", "06d0fa0744ebeac1d5e405ef9c060337");
    ("counter.verilog", "e7280d1d8708e40b8062598576e27c1c");
    ("counter.systemc", "5789b70550088fd683df2797bb8b81bd");
    ("counter-top.vhdl", "f25b5f604f4618af3d97005fd8121b19");
    ("counter-top.verilog", "cdcd015e640291acc5ec698b81dce947");
    ("counter-top.systemc", "d6969ae7ba2c6dc65a3d817deed6bc92");
    ("constructs.vhdl", "56c757c9a3f3893f6d86ef04b596966c");
    ("constructs.verilog", "5a9b375aba01830fb9a7edb2cef3d3af");
    ("constructs.systemc", "363d4c98547efc32e7a451d2880b28ee");
    ("core-timer.vhdl", "a5ca13652411a6acee71d07a7be73020");
    ("core-timer.verilog", "ae0313f2976c1344a063ab1dc3cc987a");
    ("core-timer.systemc", "34f20d5c3b27131c67ebd9a62c54086c");
    ("core-gpio.vhdl", "365ff8355eb93e43e6836c7db5e8301a");
    ("core-gpio.verilog", "5b9d7d741f81ef67778311a6e148debb");
    ("core-gpio.systemc", "3b2db4cdd75d13762b8cd062b9357c09");
    ("core-fifo4.vhdl", "a3a437bf5c34ed1c0652b2606cbf7587");
    ("core-fifo4.verilog", "26be0afa314d6c09a5249105d2926508");
    ("core-fifo4.systemc", "4c850055d3ad42bea3cd569b0fbb139c");
    ("core-uart_tx.vhdl", "914bf50bf5d093b35bf28f7b45b340bf");
    ("core-uart_tx.verilog", "87afb7b8d2ef0069de4ebc975ceb9491");
    ("core-uart_tx.systemc", "19ea686eebdb784c8dd4f76ecde28f0a");
    ("core-uart_rx.vhdl", "762ed7ab5b95a8d1c39d430b471ad8a3");
    ("core-uart_rx.verilog", "5e3b7e145ad6765d48367a9d822bf208");
    ("core-uart_rx.systemc", "98096496eec389ee8d3f44699655126a");
    ("core-arbiter2.vhdl", "9651ef905992d3c4c144e786eb4174db");
    ("core-arbiter2.verilog", "d326c55b97a8add758b15eee4f725ec5");
    ("core-arbiter2.systemc", "5c3977a5ba8c8e5f2f67a45c66abfb38");
    ("core-regfile4.vhdl", "31d734f2f85064634a2b49a7d62fd6b6");
    ("core-regfile4.verilog", "80441b9b854418e79a6772b066a7675c");
    ("core-regfile4.systemc", "5e7af2b331908c76a47a3642d1163a6b");
    ("core-bus2.vhdl", "46aa80813aad2a945215aeed8fb77023");
    ("core-bus2.verilog", "b517fa7d41eb87093c9037d86b9c4f54");
    ("core-bus2.systemc", "04ec9ded6351ec5552a8aff49c81f4f3");
    ("core-dma.vhdl", "c4093052519ce09bc067fddfeaf95ebb");
    ("core-dma.verilog", "5cf1749dfb393a14d5f7194789ce3d0d");
    ("core-dma.systemc", "a4b8e8987348848375553af09ca03d15");
    ("core-irq_ctrl.vhdl", "76ea8cadcbc604dcd0007d1689aca82c");
    ("core-irq_ctrl.verilog", "ab112876f362ba6fc2f0aa444071660d");
    ("core-irq_ctrl.systemc", "92bc008457370d4ee66e0fd8d064374b");
    ("core-watchdog.vhdl", "c6cf3a97dd5075c3c3a52c63bb412b5a");
    ("core-watchdog.verilog", "009c96c5358289a9472f88de6101a7f0");
    ("core-watchdog.systemc", "c741543cd81a37737f0ffbed2a163c81");
    ("soc-all.vhdl", "81b50149758ed06de59e679217dad464");
    ("soc-all.verilog", "d9f9c1e1fd8f9e24ba9f48b2a9d74a59");
    ("soc-all.systemc", "051bc0fe903e25e9c6bdb75002d3e018");
    ("toggler.vhdl", "9245b943fdc8f8f954f2a3b13b8e326b");
    ("toggler.verilog", "c730250f6fb51323f8dc9c345fdfff0e");
    ("toggler.systemc", "7a8e41822296f0fb07ea25f7602aeb45");
    ("toggler.tb", "c4e6e807e9ecd851c2bca2ca93689436");
    ("counterfsm.vhdl", "f7685b9862f5e35a71711a870728cac4");
    ("counterfsm.verilog", "4c36547c8eeaed0d605ed5b4f4b8b238");
    ("counterfsm.systemc", "79cc9d5bbc63da97a7819dea168c719d");
    ("counterfsm.tb", "fa807169125b5ed129a6c32f6ee0e1eb");
    ("flat-1.vhdl", "df8e1b58e0a907b2a13efe77606e045c");
    ("flat-1.verilog", "87283c8aa86588c548bd5d22a86939db");
    ("flat-1.systemc", "2c8afe2c632485f7c51b1c5520155da2");
    ("flat-1.tb", "e1f49d8df02abbbec9011405cd9e2d12");
    ("flat-2.vhdl", "8ed48fdc23156883b194462df6d108ab");
    ("flat-2.verilog", "baa889dbeee74e3c923d046716eb58d7");
    ("flat-2.systemc", "cf27ea091de23f3abf42a96fc84591b2");
    ("flat-2.tb", "8d669d269e160ea9bdec26244e977a17");
    ("flat-3.vhdl", "2bd596b557643d3aa95cf9d556806486");
    ("flat-3.verilog", "ac928f472b6a67b267e1ec29f54bd40f");
    ("flat-3.systemc", "2b4f7b63dee01703d07117aa0f0bfa6e");
    ("flat-3.tb", "959e73f677a1c0b839f59f411a2b751d");
    ("flat-4.vhdl", "f11ee03026e78d4daad27edea1b05cf1");
    ("flat-4.verilog", "85ebe1ab108bbc1e9ec2fc141911a0d0");
    ("flat-4.systemc", "4d1883926827f83dc64a7ea0cbdac818");
    ("flat-4.tb", "98ddad722bc0ca6e2b096507d6cb6a93");
    ("flat-5.vhdl", "588fb9024335cfa889257c877a50f4ae");
    ("flat-5.verilog", "4c780c302a0e4f66251a0e2a0c5c9a12");
    ("flat-5.systemc", "a7c34adfee649f39570c144dfad3f8c6");
    ("flat-5.tb", "d1a5b08201bb9b24ca20db991254f046");
    ("flat-6.vhdl", "edb1a84647492d0e6b9906b938bfea68");
    ("flat-6.verilog", "9d57a5a735edc3f36f0eace6f7fad192");
    ("flat-6.systemc", "13fd13c975a3997845c7fe4e279b5c4d");
    ("flat-6.tb", "e94ffc7e6d4992225f512d5c70c44b80");
    ("flat-7.vhdl", "b95d6b4b63f7c3620f1250030d98e111");
    ("flat-7.verilog", "2baed3d4d9ef18cbabc5c0aba71f15b2");
    ("flat-7.systemc", "50acd931e106f8baf6f0a46bd111228c");
    ("flat-7.tb", "f234c3f3cfee2b4d707945c24521a10d");
    ("flat-8.vhdl", "50ea88eaf676a6c5e6d14c6a94df0dd8");
    ("flat-8.verilog", "ced2cb498d215431d15cf341e798beb5");
    ("flat-8.systemc", "f9c12d9097fb4bc5e728be2bfabf62d4");
    ("flat-8.tb", "a15690e355f76ce4f4fce7e89b52217a");
    ("flat-9.vhdl", "6d7f6d40896315a4a48e7b0c99ee3a63");
    ("flat-9.verilog", "efd53408ad1e0900fd1ad9d8e9253fd4");
    ("flat-9.systemc", "423ae40e4ee5238ba54778bbd57ce5e4");
    ("flat-9.tb", "e76e212d90d7d0e067e4f0591d4f3f46");
    ("flat-10.vhdl", "5151df5a5f53531ea8dd9e2ac46e2c14");
    ("flat-10.verilog", "72c1b4709bba3cb11f7bc806518145a9");
    ("flat-10.systemc", "4f2797ea5e985334f9692e809f1eb2bb");
    ("flat-10.tb", "28009d86ee58e533c8fccefd2b92d22a");
    ("hier-1.vhdl", "c07d2483c5bac2f37f351fd4d321ae1a");
    ("hier-1.verilog", "2841adbf1668aa0c548b258d7a0d558b");
    ("hier-1.systemc", "b46eee2188c4076981c8e0c3acf601c1");
    ("hier-1.tb", "373ceabb1e228f209c1f4cacc65caf3f");
    ("hier-2.vhdl", "2ac02706d4f9d72ae199e56542c9f156");
    ("hier-2.verilog", "8254d69ab77e91e5528ac6a24626c64f");
    ("hier-2.systemc", "f2c34e4d613f16955c6c75ba73c86fde");
    ("hier-2.tb", "11fadd11cd4f11a0503f331db5ac99e8");
    ("hier-3.vhdl", "c30a2ef8af8b38735189d4016d9f3553");
    ("hier-3.verilog", "64b1a6303899783e5777dba5248071fe");
    ("hier-3.systemc", "28bcfb5432af6586c3ddc85876e68faf");
    ("hier-3.tb", "6791fdbdfdf00d4a433721aa50933d59");
    ("hier-4.vhdl", "fc30d3dc259da2f1daebc53782a7c589");
    ("hier-4.verilog", "5fdabd39ef5aae0fb09c8e199e5f870f");
    ("hier-4.systemc", "48500b7f3f4ced1656ea73dc49cdfb3a");
    ("hier-4.tb", "2afa55421cf41118e2085ee808895783");
    ("hier-5.vhdl", "b419e967337328cd266d0faaad6218d9");
    ("hier-5.verilog", "b1608127412d65cf439f0810e626f7d2");
    ("hier-5.systemc", "4e14f0c421771667109645f1c5b76c00");
    ("hier-5.tb", "0fab30b1e1e59f5d70afc607b146d325");
    ("hier-6.vhdl", "2de4076e5de569f03cfd0ef8d48e9342");
    ("hier-6.verilog", "1deefbaed15af17c32f1d6bb0e1949dd");
    ("hier-6.systemc", "03cd165e90d285180b26226bf6490ed5");
    ("hier-6.tb", "0a2fa095410395a3f2fcd3d6de276642");
    ("hier-7.vhdl", "1ce29830fa7ad1d46821f9064339d51c");
    ("hier-7.verilog", "80b9a15260a3a91283d6cdf29dbbfef6");
    ("hier-7.systemc", "279c3d4ef7355395dc7e753adf28d2fd");
    ("hier-7.tb", "e4d3213694017ba2bc35092046a46c44");
    ("hier-8.vhdl", "a34804cd7254d0072e5e514875457b86");
    ("hier-8.verilog", "4c1102e4d51a550c0835c4231f3f8fe0");
    ("hier-8.systemc", "beb716a1d316afe129411964f6df48fb");
    ("hier-8.tb", "82ad86931f74319e144cf3fbf253e44c");
    ("hier-9.vhdl", "6a0b29b3d0603856ca2468a2d0a2a39a");
    ("hier-9.verilog", "5029a4697bc9b54876250676214cfba6");
    ("hier-9.systemc", "dd4a81594de14a4e5d080f563f8bec3d");
    ("hier-9.tb", "769f3e79ce067b4b66aef0c2184d7318");
    ("hier-10.vhdl", "cb0dc5536b486b24ae44d99da95472c8");
    ("hier-10.verilog", "fa1f8d9584869467eee78dc4db2e3dcd");
    ("hier-10.systemc", "1c0cb359ee1ee499b10b9210fafc2c78");
    ("hier-10.tb", "29708b6fbc57f2606a5d454d9b643c9f");
    ("c-model.c", "6cf182e2ba7f31c320da98b9e5eacc4e");
    ("c-structural-1.c", "2e8c5dc6745b1ecf57bf2a4826fb538d");
    ("c-structural-2.c", "358645ea81e1a892253fced2fce77249");
    ("c-structural-3.c", "1f32f93aad030f51be4f1a7e75c47e76");
  ]

let digest_tests =
  List.map
    (fun (subject, texts) ->
      tc subject (fun () ->
          List.iter
            (fun (kind, text) ->
              let row = subject ^ "." ^ kind in
              let expected =
                match List.assoc_opt row digests with
                | Some d -> d
                | None -> Alcotest.failf "no digest for %s" row
              in
              check Alcotest.string row expected (hex (text ())))
            texts))
    subjects

let () =
  Alcotest.run "codegen"
    [
      ("emitters", emitters_tests); ("fsm", fsm_tests); ("cgen", cgen_tests);
      ("testbench", testbench_tests); ("digests", digest_tests);
    ]
