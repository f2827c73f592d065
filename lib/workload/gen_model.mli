(** Random structural models (classes, interfaces, components) for the
    XMI round-trip and transformation-scaling experiments. *)

val structural : seed:int -> classes:int -> Uml.Model.t
(** [classes] classes with attributes/operations, one interface per
    four classes, generalizations to earlier classes, one component per
    eight classes with ports typed by the interfaces.  Well-formed. *)

val stereotyped : seed:int -> classes:int -> Uml.Model.t
(** [structural] plus the SoC and RT profiles, with a stereotype on
    every classifier, attribute, operation, component and port.  Tag
    values are chosen so that every SoC and RT rule (SOC-01..05,
    RT-01..03) fires somewhere and most elements stay clean. *)
