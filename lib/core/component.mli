(** Components and composite structure (Component Diagrams).

    Components expose provided/required interfaces through ports and are
    assembled from parts wired by connectors — the structural model the
    paper equates with IP cores ("software components and IP cores"). *)

type port = {
  port_id : Ident.t;
  port_name : string;
  port_provided : Ident.t list;  (** provided interfaces *)
  port_required : Ident.t list;  (** required interfaces *)
  port_is_behavior : bool;  (** behavior port: wired to the owner itself *)
}
[@@deriving eq, ord, show]

type part = {
  part_id : Ident.t;
  part_name : string;
  part_type : Ident.t;  (** component or class typing this part *)
  part_mult : Mult.t;
}
[@@deriving eq, ord, show]

type connector_end = {
  cend_part : Ident.t option;  (** [None]: the containing component itself *)
  cend_port : Ident.t;
}
[@@deriving eq, ord, show]

type connector_kind =
  | Assembly
  | Delegation
[@@deriving eq, ord, show]

type connector = {
  conn_id : Ident.t;
  conn_name : string;
  conn_kind : connector_kind;
  conn_ends : connector_end list;  (** exactly two ends *)
}
[@@deriving eq, ord, show]

type t = {
  cmp_id : Ident.t;
  cmp_name : string;
  cmp_ports : port list;
  cmp_parts : part list;
  cmp_connectors : connector list;
  cmp_realizations : Ident.t list;  (** realizing classifiers *)
  cmp_behaviors : Ident.t list;  (** owned state machines / activities *)
}
[@@deriving eq, ord, show]

val port : ?id:Ident.t -> ?provided:Ident.t list -> ?required:Ident.t list ->
  ?is_behavior:bool -> string -> port

val part : ?id:Ident.t -> ?mult:Mult.t -> string -> Ident.t -> part

val assembly : ?id:Ident.t -> ?name:string ->
  from_:Ident.t option * Ident.t -> to_:Ident.t option * Ident.t -> unit ->
  connector
(** Assembly connector between [(part, port)] pairs. *)

val delegation : ?id:Ident.t -> ?name:string ->
  outer:Ident.t -> inner:Ident.t option * Ident.t -> unit -> connector
(** Delegation from an outer (component-level) port to an inner part
    port. *)

val make : ?id:Ident.t -> ?ports:port list -> ?parts:part list ->
  ?connectors:connector list -> ?realizations:Ident.t list ->
  ?behaviors:Ident.t list -> string -> t

val find_port : t -> string -> port option
val find_part : t -> string -> part option

val provided_interfaces : t -> Ident.t list
(** Union of interfaces provided by all ports (duplicates removed,
    first-seen order). *)
