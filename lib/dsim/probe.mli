(** Engine-neutral read access to a running simulation.

    The waveform ({!Vcd}) and timing-diagram ({!Timing}) renderers only
    ever *read* signal values; a probe packages exactly that surface.
    {!Fast.probe} is the production one; the reference interpreter in
    [test/oracles/sim.ml] builds its own, so both engines render
    byte-identical output when the simulated values agree. *)

type t = {
  pr_module : Hdl.Module_.t;  (** the simulated flat module *)
  pr_get : string -> int;
      (** current value of a signal or port; raises
          {!Netlist.Simulation_error} for unknown names *)
  pr_signals : (string * Hdl.Htype.t) list;
      (** all simulated signals (ports first), declaration order *)
}
