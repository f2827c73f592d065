open Hdl

let sanitize = Hdl_text.sanitize

let vhdl_for_fsm ?(clock_period_ns = 10) m ~events =
  let buf = Buffer.create 2048 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  let name = sanitize m.Module_.mod_name in
  let half = clock_period_ns / 2 in
  line "library ieee;";
  line "use ieee.std_logic_1164.all;";
  line "use ieee.numeric_std.all;";
  line "";
  line "entity %s_tb is" name;
  line "end entity %s_tb;" name;
  line "";
  line "architecture sim of %s_tb is" name;
  List.iter
    (fun (p : Module_.port) ->
      let init =
        match p.Module_.port_type with
        | Htype.Bit -> " := '0'"
        | Htype.Unsigned _ | Htype.Enum _ -> ""
      in
      line "  signal %s : %s%s;" (sanitize p.Module_.port_name)
        (Vhdl.type_string m p.Module_.port_type)
        init)
    m.Module_.mod_ports;
  line "begin";
  line "  dut : entity work.%s" name;
  line "    port map (";
  Buffer.add_string buf
    (String.concat ",\n"
       (List.map
          (fun (p : Module_.port) ->
            Printf.sprintf "      %s => %s"
              (sanitize p.Module_.port_name)
              (sanitize p.Module_.port_name))
          m.Module_.mod_ports));
  line "";
  line "    );";
  line "";
  line "  clk_gen : process";
  line "  begin";
  line "    clk <= '0'; wait for %d ns;" half;
  line "    clk <= '1'; wait for %d ns;" half;
  line "  end process;";
  line "";
  line "  stimulus : process";
  line "  begin";
  line "    rst <= '1';";
  line "    wait until rising_edge(clk);";
  line "    rst <= '0';";
  line "    wait until rising_edge(clk);";
  List.iter
    (fun ev ->
      let port = Fsm_compile.event_input ev in
      if Module_.find_port m port <> None then begin
        line "    %s <= '1';" (sanitize port);
        line "    wait until rising_edge(clk);";
        line "    %s <= '0';" (sanitize port)
      end
      else line "    -- event %s: no matching input port, skipped" ev)
    events;
  line "    wait for %d ns;" (clock_period_ns * 4);
  line "    assert false report \"end of scenario\" severity note;";
  line "    wait;";
  line "  end process;";
  line "end architecture sim;";
  Buffer.contents buf
