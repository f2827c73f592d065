(** Value-change-dump (VCD) waveform writer.

    Records snapshots of a running simulation per timestep and renders
    the standard VCD text format accepted by GTKWave and friends.  The
    writer reads through an engine-neutral {!Probe}, so two engines
    simulating the same values render byte-identical dumps. *)

type t

val create : Fast.t -> t
(** Register every signal of the simulator. *)

val of_probe : Probe.t -> t
(** Register every signal visible through the probe. *)

val sample : t -> time:int -> unit
(** Record current values at the given time (only changes are stored). *)

val render : t -> string
(** Full VCD file contents. *)

val write_file : t -> string -> unit
