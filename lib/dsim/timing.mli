(** Timing-diagram rendering (UML's 13th diagram type, grounded in the
    simulator).

    Records selected signals cycle by cycle and renders an ASCII timing
    diagram: bit signals as waveform lanes, vectors as value lanes with
    transitions marked.  Rendering reads through an engine-neutral
    {!Probe}, so two engines produce byte-identical diagrams for
    identical simulated values.

    {v
      clk   : _#_#_#_#
      tick  : ______#_
      count :  0 1 2 3
    v} *)

type t

val create : ?signals:string list -> Fast.t -> t
(** Track the given signals (default: all ports, declaration order).
    @raise Netlist.Simulation_error for unknown names. *)

val of_probe : ?signals:string list -> Probe.t -> t
(** Same, over any probe. *)

val sample : t -> unit
(** Record the current values as the next time step. *)

val length : t -> int
(** Samples recorded so far. *)

val render : t -> string
(** The diagram; one lane per signal, one column (or value cell) per
    sample. *)
