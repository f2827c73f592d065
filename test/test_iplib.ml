(* Tests for the IP core library: every core's RTL is checked and
   simulated against its intended behavior on both RTL engines, and the
   SoC assembly is verified in both views. *)

let tc name f = Alcotest.test_case name `Quick f
let check = Alcotest.check

(* Every scenario drives the production engine and the reference
   interpreter in lockstep: each read first checks that the two
   engines' full snapshots agree, then returns the production value. *)
module Both = Oracles.Both

let sim_of core =
  let sim = Both.create core.Iplib.Core.ip_module in
  Both.set_input sim "rst" 1;
  Both.clock_edge sim "clk";
  Both.set_input sim "rst" 0;
  sim

let catalogue_tests =
  [
    tc "every core passes the RTL checks" (fun () ->
        List.iter
          (fun core ->
            match Hdl.Check.check_module core.Iplib.Core.ip_module with
            | [] -> ()
            | problems ->
              Alcotest.fail
                (core.Iplib.Core.ip_name ^ ": "
                ^ String.concat "; " (Hdl.Check.messages problems)))
          (Iplib.Cores.catalogue ()));
    tc "component ports mirror RTL ports" (fun () ->
        List.iter
          (fun core ->
            let rtl_ports = Iplib.Core.port_names core in
            let model_ports =
              List.map
                (fun (p : Uml.Component.port) -> p.Uml.Component.port_name)
                core.Iplib.Core.ip_component.Uml.Component.cmp_ports
            in
            check (Alcotest.list Alcotest.string) core.Iplib.Core.ip_name
              rtl_ports model_ports)
          (Iplib.Cores.catalogue ()));
    tc "areas are positive" (fun () ->
        List.iter
          (fun core ->
            check Alcotest.bool core.Iplib.Core.ip_name true
              (core.Iplib.Core.ip_area > 0))
          (Iplib.Cores.catalogue ()));
  ]

let behavior_tests =
  [
    tc "timer counts and wraps with tick" (fun () ->
        let core = Iplib.Cores.timer ~width:4 () in
        let sim = sim_of core in
        Both.set_input sim "enable" 1;
        Both.run sim ~clock:"clk" ~cycles:15;
        check Alcotest.int "count" 15 (Both.get sim "count");
        check Alcotest.int "tick at max" 1 (Both.get sim "tick");
        Both.clock_edge sim "clk";
        check Alcotest.int "wrapped" 0 (Both.get sim "count"));
    tc "timer freezes when disabled" (fun () ->
        let core = Iplib.Cores.timer () in
        let sim = sim_of core in
        Both.run sim ~clock:"clk" ~cycles:5;
        check Alcotest.int "still zero" 0 (Both.get sim "count"));
    tc "gpio stores on we" (fun () ->
        let core = Iplib.Cores.gpio () in
        let sim = sim_of core in
        Both.cycle ~inputs:[ ("we", 1); ("din", 0x5A) ] sim "clk";
        Both.cycle ~inputs:[ ("we", 0); ("din", 0xFF) ] sim "clk";
        check Alcotest.int "held" 0x5A (Both.get sim "dout"));
    tc "fifo preserves order" (fun () ->
        let core = Iplib.Cores.fifo4 () in
        let sim = sim_of core in
        check Alcotest.int "empty" 1 (Both.get sim "empty");
        List.iter
          (fun v -> Both.cycle ~inputs:[ ("wr", 1); ("din", v) ] sim "clk")
          [ 1; 2; 3 ];
        Both.set_input sim "wr" 0;
        check Alcotest.int "not empty" 0 (Both.get sim "empty");
        let out = ref [] in
        for _ = 1 to 3 do
          out := Both.get sim "dout" :: !out;
          Both.cycle ~inputs:[ ("rd", 1) ] sim "clk"
        done;
        Both.set_input sim "rd" 0;
        check (Alcotest.list Alcotest.int) "fifo order" [ 1; 2; 3 ]
          (List.rev !out);
        check Alcotest.int "empty again" 1 (Both.get sim "empty"));
    tc "fifo signals full and refuses overflow" (fun () ->
        let core = Iplib.Cores.fifo4 () in
        let sim = sim_of core in
        List.iter
          (fun v -> Both.cycle ~inputs:[ ("wr", 1); ("din", v) ] sim "clk")
          [ 1; 2; 3; 4; 5 ];
        Both.set_input sim "wr" 0;
        check Alcotest.int "full" 1 (Both.get sim "full");
        (* the fifth write must have been dropped *)
        let out = ref [] in
        for _ = 1 to 4 do
          out := Both.get sim "dout" :: !out;
          Both.cycle ~inputs:[ ("rd", 1) ] sim "clk"
        done;
        check (Alcotest.list Alcotest.int) "first four" [ 1; 2; 3; 4 ]
          (List.rev !out));
    tc "fifo simultaneous read+write keeps count" (fun () ->
        let core = Iplib.Cores.fifo4 () in
        let sim = sim_of core in
        Both.cycle ~inputs:[ ("wr", 1); ("din", 7) ] sim "clk";
        Both.cycle ~inputs:[ ("wr", 1); ("rd", 1); ("din", 9) ] sim "clk";
        Both.set_input sim "wr" 0;
        Both.set_input sim "rd" 0;
        (* popped 7, pushed 9: head must now be 9, count 1 *)
        check Alcotest.int "head" 9 (Both.get sim "dout");
        check Alcotest.int "not empty" 0 (Both.get sim "empty");
        check Alcotest.int "not full" 0 (Both.get sim "full"));
    tc "uart tx/rx loopback" (fun () ->
        let tx = Iplib.Cores.uart_tx () in
        let rx = Iplib.Cores.uart_rx () in
        let d =
          Iplib.Soc.design ~name:"link" [ ("tx", tx); ("rx", rx) ]
        in
        let sim = Both.create (Hdl.Elaborate.flatten d) in
        Both.set_input sim "rst" 1;
        Both.clock_edge sim "clk";
        Both.set_input sim "rst" 0;
        Both.set_input sim "rx_rxd" 1;
        Both.clock_edge sim "clk";
        Both.set_input sim "tx_data" 0x3C;
        Both.set_input sim "tx_start" 1;
        let received = ref None in
        for _ = 1 to 16 do
          Both.set_input sim "rx_rxd" (Both.get sim "tx_txd");
          Both.clock_edge sim "clk";
          Both.set_input sim "tx_start" 0;
          if Both.get sim "rx_valid" = 1 && !received = None then
            received := Some (Both.get sim "rx_data")
        done;
        check (Alcotest.option Alcotest.int) "byte" (Some 0x3C) !received);
    tc "uart busy while shifting" (fun () ->
        let core = Iplib.Cores.uart_tx () in
        let sim = sim_of core in
        check Alcotest.int "idle" 0 (Both.get sim "busy");
        Both.cycle ~inputs:[ ("start", 1); ("data", 0xFF) ] sim "clk";
        Both.set_input sim "start" 0;
        check Alcotest.int "busy" 1 (Both.get sim "busy"));
    tc "arbiter grants are exclusive and fair" (fun () ->
        let core = Iplib.Cores.arbiter2 () in
        let sim = sim_of core in
        (* no requests: no grants *)
        check Alcotest.int "g0" 0 (Both.get sim "gnt0");
        check Alcotest.int "g1" 0 (Both.get sim "gnt1");
        (* single request is granted *)
        Both.set_input sim "req0" 1;
        check Alcotest.int "g0 alone" 1 (Both.get sim "gnt0");
        (* contention: exactly one grant, alternating over cycles *)
        Both.set_input sim "req1" 1;
        let grants = ref [] in
        for _ = 1 to 6 do
          let g0 = Both.get sim "gnt0" in
          let g1 = Both.get sim "gnt1" in
          check Alcotest.int "exclusive" 1 (g0 + g1);
          grants := g0 :: !grants;
          Both.clock_edge sim "clk"
        done;
        (* both sides served at least twice over six cycles *)
        let zeros = List.length (List.filter (fun g -> g = 1) !grants) in
        check Alcotest.bool "fairness" true (zeros >= 2 && zeros <= 4));
    tc "regfile writes and reads back" (fun () ->
        let core = Iplib.Cores.regfile4 () in
        let sim = sim_of core in
        Both.cycle
          ~inputs:[ ("we", 1); ("addr", 2); ("wdata", 0x42) ]
          sim "clk";
        Both.set_input sim "we" 0;
        Both.set_input sim "addr" 2;
        check Alcotest.int "read back" 0x42 (Both.get sim "rdata");
        Both.set_input sim "addr" 1;
        check Alcotest.int "other slot" 0 (Both.get sim "rdata"));
    tc "bus decodes addresses" (fun () ->
        let core = Iplib.Cores.bus2 () in
        let sim = sim_of core in
        Both.set_input sim "m_we" 1;
        Both.set_input sim "m_addr" 0x10;
        check Alcotest.int "s0 selected" 1 (Both.get sim "s0_we");
        check Alcotest.int "s1 idle" 0 (Both.get sim "s1_we");
        Both.set_input sim "m_addr" 0x90;
        check Alcotest.int "s1 selected" 1 (Both.get sim "s1_we");
        (* read-back mux *)
        Both.set_input sim "s0_rdata" 0xAA;
        Both.set_input sim "s1_rdata" 0xBB;
        Both.set_input sim "m_addr" 0x00;
        check Alcotest.int "read s0" 0xAA (Both.get sim "m_rdata");
        Both.set_input sim "m_addr" 0xF0;
        check Alcotest.int "read s1" 0xBB (Both.get sim "m_rdata"));
  ]

let cores2_tests =
  [
    tc "dma copies regfile to gpio-visible bus" (fun () ->
        (* drive the DMA by hand: a 3-beat copy from a fake memory *)
        let core = Iplib.Cores2.dma () in
        let sim = sim_of core in
        let memory = [| 0xDE; 0xAD; 0xBE; 0xEF |] in
        Both.set_input sim "len" 3;
        Both.set_input sim "start" 1;
        let written = ref [] in
        for _ = 1 to 8 do
          (* model the source memory combinationally *)
          let addr = Both.get sim "src_addr" in
          Both.set_input sim "src_data" memory.(addr land 3);
          if Both.get sim "dst_we" = 1 then
            written :=
              (Both.get sim "dst_addr", Both.get sim "dst_data")
              :: !written;
          Both.clock_edge sim "clk";
          Both.set_input sim "start" 0
        done;
        check
          (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.int))
          "beats"
          [ (0, 0xDE); (1, 0xAD); (2, 0xBE) ]
          (List.rev !written);
        check Alcotest.int "idle again" 0 (Both.get sim "busy"));
    tc "dma pulses done_" (fun () ->
        let core = Iplib.Cores2.dma () in
        let sim = sim_of core in
        Both.set_input sim "len" 1;
        Both.set_input sim "start" 1;
        let saw_done = ref false in
        for _ = 1 to 5 do
          Both.clock_edge sim "clk";
          Both.set_input sim "start" 0;
          if Both.get sim "done_" = 1 then saw_done := true
        done;
        check Alcotest.bool "done seen" true !saw_done);
    tc "irq controller masks and prioritizes" (fun () ->
        let core = Iplib.Cores2.irq_ctrl () in
        let sim = sim_of core in
        (* all lines enabled after reset *)
        Both.set_input sim "irq_in" 0b0110;
        Both.clock_edge sim "clk";
        check Alcotest.int "asserted" 1 (Both.get sim "irq_out");
        check Alcotest.int "lowest wins" 1 (Both.get sim "irq_id");
        (* mask line 1: line 2 becomes the winner *)
        Both.cycle ~inputs:[ ("mask_we", 1); ("mask_in", 0b1101) ] sim "clk";
        Both.set_input sim "mask_we" 0;
        Both.clock_edge sim "clk";
        check Alcotest.int "line 2" 2 (Both.get sim "irq_id");
        (* mask everything *)
        Both.cycle ~inputs:[ ("mask_we", 1); ("mask_in", 0) ] sim "clk";
        Both.set_input sim "mask_we" 0;
        Both.clock_edge sim "clk";
        check Alcotest.int "quiet" 0 (Both.get sim "irq_out"));
    tc "watchdog bites without kicks and not with them" (fun () ->
        let core = Iplib.Cores2.watchdog ~width:3 () in
        let sim = sim_of core in
        (* kick every 4 cycles: never bites *)
        for i = 1 to 20 do
          Both.set_input sim "kick" (if i mod 4 = 0 then 1 else 0);
          Both.clock_edge sim "clk"
        done;
        check Alcotest.int "alive" 0 (Both.get sim "bite");
        (* stop kicking: bites after the counter saturates *)
        Both.set_input sim "kick" 0;
        Both.run sim ~clock:"clk" ~cycles:10;
        check Alcotest.int "bitten" 1 (Both.get sim "bite");
        (* bite is sticky *)
        Both.cycle ~inputs:[ ("kick", 1) ] sim "clk";
        check Alcotest.int "sticky" 1 (Both.get sim "bite"));
  ]

let soc_tests =
  [
    tc "assembled design passes checks and simulates" (fun () ->
        let instances =
          [ ("t0", Iplib.Cores.timer ()); ("g0", Iplib.Cores.gpio ()) ]
        in
        let d = Iplib.Soc.design ~name:"mini" instances in
        check (Alcotest.list Alcotest.string) "clean" []
          (Hdl.Check.messages (Hdl.Check.check_design d));
        let sim = Both.create (Hdl.Elaborate.flatten d) in
        Both.set_input sim "rst" 1;
        Both.clock_edge sim "clk";
        Both.set_input sim "rst" 0;
        Both.set_input sim "t0_enable" 1;
        Both.run sim ~clock:"clk" ~cycles:7;
        check Alcotest.int "timer ran" 7 (Both.get sim "t0_count"));
    tc "two instances of the same core coexist" (fun () ->
        let instances =
          [ ("a", Iplib.Cores.gpio ()); ("b", Iplib.Cores.gpio ()) ]
        in
        let d = Iplib.Soc.design ~name:"dual" instances in
        let sim = Both.create (Hdl.Elaborate.flatten d) in
        Both.set_input sim "rst" 1;
        Both.clock_edge sim "clk";
        Both.set_input sim "rst" 0;
        Both.cycle ~inputs:[ ("a_we", 1); ("a_din", 1) ] sim "clk";
        Both.set_input sim "a_we" 0;
        Both.cycle ~inputs:[ ("b_we", 1); ("b_din", 2) ] sim "clk";
        check Alcotest.int "a" 1 (Both.get sim "a_dout");
        check Alcotest.int "b" 2 (Both.get sim "b_dout"));
    tc "soc component registers IPs with stereotypes" (fun () ->
        let m = Uml.Model.create "soc" in
        let profile = Profiles.Soc_profile.install m in
        let instances = [ ("t0", Iplib.Cores.timer ()) ] in
        let comp = Iplib.Soc.component m ~profile ~name:"Soc" instances in
        check Alcotest.bool "valid" true (Uml.Wfr.is_valid m);
        check (Alcotest.list Alcotest.string) "profile clean" []
          (List.map Uml.Wfr.to_string (Profiles.Soc_profile.check m));
        check Alcotest.int "two hw modules" 2
          (List.length (Profiles.Soc_profile.hw_modules m));
        check Alcotest.int "one part" 1
          (List.length comp.Uml.Component.cmp_parts));
  ]

let () =
  Alcotest.run "iplib"
    [
      ("catalogue", catalogue_tests);
      ("behavior", behavior_tests);
      ("cores2", cores2_tests);
      ("soc", soc_tests);
    ]
