(** Multiplicities ([lower .. upper]) of properties and parameters. *)

type bound =
  | Bounded of int
  | Unbounded  (** the UML "*" upper bound *)
[@@deriving eq, ord, show]

type t = {
  lower : int;
  upper : bound;
}
[@@deriving eq, ord, show]

val make : int -> bound -> t
(** [make lower upper] builds a multiplicity.
    @raise Invalid_argument if [lower < 0], or [upper = Bounded n] with
    [n < lower]. *)

val one : t
(** [1..1] — the default multiplicity. *)

val optional : t
(** [0..1]. *)

val many : t
(** [0..*]. *)

val is_valid : t -> bool
(** Well-formedness: [0 <= lower] and [lower <= upper]. *)

val admits : t -> int -> bool
(** [admits m n]: can a slot with multiplicity [m] hold [n] values? *)

val to_string : t -> string
(** E.g. ["1"], ["0..1"], ["0..*"], ["2..7"]. *)
