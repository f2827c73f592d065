(* UART SoC: assemble a small SoC from the IP library (UART tx/rx,
   FIFO, timer, GPIO), check it against the SoC profile, generate VHDL
   and Verilog, then simulate a loopback transfer: a byte written to the
   transmitter travels over the serial line into the receiver.

   This exercises the paper's "seamless integration of existing IP" and
   early-prototyping claims end-to-end.

   Run with: dune exec examples/uart_soc.exe *)

let () =
  (* 1. Model view: registered IP components + profile checks. *)
  let m = Uml.Model.create "uart_soc" in
  let profile = Profiles.Soc_profile.install m in
  let instances =
    [
      ("tx", Iplib.Cores.uart_tx ());
      ("rx", Iplib.Cores.uart_rx ());
      ("buf", Iplib.Cores.fifo4 ());
      ("timer", Iplib.Cores.timer ());
      ("leds", Iplib.Cores.gpio ());
    ]
  in
  let _soc = Iplib.Soc.component m ~profile ~name:"UartSoc" instances in
  let wfr = Uml.Wfr.check m in
  let soc_wfr = Profiles.Soc_profile.check m in
  Printf.printf "model: %d elements, %d UML diagnostics, %d SoC diagnostics\n"
    (Uml.Model.size m) (List.length wfr) (List.length soc_wfr);
  Printf.printf "hardware modules in model: %d, total area %d\n"
    (List.length (Profiles.Soc_profile.hw_modules m))
    (Iplib.Soc.total_area instances);

  (* 2. Hardware view: generate HDL in two languages. *)
  let design = Iplib.Soc.design ~name:"uart_soc" instances in
  (match Hdl.Check.check_design design with
   | [] -> print_endline "RTL checks: clean"
   | problems ->
     List.iter (fun d -> print_endline (Hdl.Check.to_string d)) problems;
     if Hdl.Check.errors problems <> [] then exit 1);
  let vhdl = Codegen.Vhdl.of_design design in
  let verilog = Codegen.Verilog.of_design design in
  Printf.printf "generated %d lines of VHDL, %d lines of Verilog\n"
    (Mda.Generate.loc vhdl) (Mda.Generate.loc verilog);

  (* 3. Simulate: transmit 0xA5, wire txd -> rxd by hand each cycle. *)
  let flat = Hdl.Elaborate.flatten design in
  let sim = Dsim.Fast.create flat in
  Dsim.Fast.set_input sim "rst" 1;
  Dsim.Fast.clock_edge sim "clk";
  Dsim.Fast.set_input sim "rst" 0;
  Dsim.Fast.set_input sim "rx_rxd" 1;
  (* idle line *)
  Dsim.Fast.clock_edge sim "clk";
  let byte = 0xA5 in
  Dsim.Fast.set_input sim "tx_data" byte;
  Dsim.Fast.set_input sim "tx_start" 1;
  let timing =
    Dsim.Timing.create
      ~signals:[ "tx_txd"; "tx_busy"; "rx_valid"; "rx_data" ]
      sim
  in
  let received = ref None in
  for _cycle = 1 to 16 do
    (* serial wire: receiver sees the transmitter's output *)
    Dsim.Fast.set_input sim "rx_rxd" (Dsim.Fast.get sim "tx_txd");
    Dsim.Fast.clock_edge sim "clk";
    Dsim.Fast.set_input sim "tx_start" 0;
    Dsim.Timing.sample timing;
    if Dsim.Fast.get sim "rx_valid" = 1 && !received = None then
      received := Some (Dsim.Fast.get sim "rx_data")
  done;
  print_endline "timing diagram of the transfer:";
  print_string (Dsim.Timing.render timing);
  (match !received with
   | Some v ->
     Printf.printf "loopback: sent 0x%02X, received 0x%02X — %s\n" byte v
       (if v = byte then "OK" else "MISMATCH");
     if v <> byte then exit 1
   | None ->
     print_endline "loopback: nothing received";
     exit 1);

  (* 4. Exercise the FIFO: push three bytes, pop them back. *)
  List.iteri
    (fun i v ->
      Dsim.Fast.cycle ~inputs:[ ("buf_wr", 1); ("buf_din", v) ] sim "clk";
      ignore i)
    [ 11; 22; 33 ];
  Dsim.Fast.set_input sim "buf_wr" 0;
  let popped = ref [] in
  for _ = 1 to 3 do
    popped := Dsim.Fast.get sim "buf_dout" :: !popped;
    Dsim.Fast.cycle ~inputs:[ ("buf_rd", 1) ] sim "clk"
  done;
  Dsim.Fast.set_input sim "buf_rd" 0;
  Printf.printf "fifo order preserved: %b (%s)\n"
    (List.rev !popped = [ 11; 22; 33 ])
    (String.concat " " (List.map string_of_int (List.rev !popped)));
  Printf.printf "simulator processed %d events in %d delta cycles (%d evals skipped)\n"
    (Dsim.Fast.events sim) (Dsim.Fast.delta_cycles sim)
    (Dsim.Fast.skipped_evals sim)
