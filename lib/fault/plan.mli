(** Deterministic fault plans: what to perturb, where, and when.

    A plan is the replayable unit of a fault-injection campaign: a seed
    plus a list of faults, one per injected run.  Faults are grouped by
    execution domain — RTL signals on the compiled discrete-event
    engine, event streams feeding the statechart engine, and token
    markings of the Petri/activity engines — mirroring the three engine
    families the campaign runner ({!Campaign}) drives.

    Plans serialize to a line-oriented text form ({!to_string} /
    {!of_string}) that round-trips exactly, so a campaign report can
    embed the plan that produced it and any single run can be replayed
    in isolation.  Generation ({!generate}) draws from
    {!Workload.Prng}: the same seed over the same fault surface always
    yields the same plan, across runs and machines. *)

type rtl_fault =
  | Bit_flip of {
      fb_signal : string;
      fb_cycle : int;  (** 0-based clocked cycle, after the edge *)
      fb_bit : int;  (** bit position, [0, width) *)
    }  (** transient single-event upset: XOR one bit once *)
  | Stuck_at of {
      sa_signal : string;
      sa_value : int;  (** 0 = stuck-at-0, 1 = stuck-at-1 (all bits) *)
      sa_from : int;  (** first affected cycle *)
    }  (** permanent fault: the signal is re-forced after every edge *)
[@@deriving eq, show]

type statechart_fault =
  | Drop_event of { de_index : int }
      (** the [index]-th event of the stimulus is lost in transit *)
  | Dup_event of { du_index : int }
      (** the [index]-th event is delivered twice *)
  | Spurious_event of {
      sp_index : int;  (** insertion position in the stimulus *)
      sp_event : string;
    }  (** an event that was never sent is delivered *)
[@@deriving eq, show]

type token_fault =
  | Lose_token of {
      lt_place : string;
      lt_step : int;  (** 0-based firing step before which to inject *)
    }  (** one token vanishes from a place (no-op on an empty place) *)
  | Dup_token of {
      dt_place : string;
      dt_step : int;
    }  (** one token is duplicated onto a place *)
[@@deriving eq, show]

type fault =
  | F_rtl of rtl_fault
  | F_statechart of statechart_fault
  | F_token of token_fault
[@@deriving eq, show]

type t = {
  seed : int;  (** the seed {!generate} drew from, kept for the report *)
  faults : fault list;
}
[@@deriving eq, show]

val empty : int -> t
(** [empty seed] — the identity plan: no faults.  Campaigns over an
    empty plan must reproduce the golden run byte-for-byte (enforced by
    the qcheck identity property in [test/test_fault.ml]). *)

val fault_to_string : fault -> string
(** One line, e.g. ["rtl bit-flip signal=state cycle=3 bit=1"]. *)

val to_string : t -> string
(** Header line [fault-plan seed=N] followed by one fault per line. *)

val of_string : string -> (t, string) result
(** Inverse of {!to_string}; blank lines and [#] comments ignored. *)

(** The perturbable surface of a model under test, from which
    {!generate} draws fault sites.  Empty components disable the
    corresponding domain. *)
type surface = {
  su_signals : (string * int) list;
      (** RTL fault targets with bit widths (clock/reset excluded by
          the caller) *)
  su_cycles : int;  (** clocked cycles the RTL stimulus runs for *)
  su_events : string list;  (** statechart event alphabet *)
  su_length : int;  (** statechart stimulus length *)
  su_places : string list;  (** Petri places of the token engines *)
  su_steps : int;  (** token-engine firing steps to perturb within *)
}

val surface_domains : surface -> string list
(** Names of the domains the surface enables, in deterministic
    ["rtl"; "statechart"; "token"] order. *)

val generate : seed:int -> count:int -> surface -> t
(** [count] faults drawn round-robin across the enabled domains with a
    {!Workload.Prng} seeded by [seed].  Deterministic: same seed and
    surface, same plan.  An all-empty surface yields {!empty}.  The
    plan is built whole, so memory grows with [count]. *)

val max_count : int
(** The largest [count] that [socuml inject] and the serve daemon
    accept (100 000); larger counts are refused with a diagnostic
    before {!generate} runs. *)
