(** VHDL code generation from the HDL IR.

    Emits one entity/architecture pair per module and a complete file
    per design.  Deterministic: identical designs produce byte-identical
    text. *)

val type_string : Hdl.Module_.t -> Hdl.Htype.t -> string
(** The VHDL spelling of a port or signal type of the module.  Each
    distinct enum type of the module has its own name, in order of
    first use (ports, then signals): the first is [<name>_state_t], the
    k-th (k >= 2) [<name>_state<k>_t]. *)

val of_module : Hdl.Module_.t -> string
(** The module's entity and rtl architecture.  The module's enum types
    are declared in the architecture, or, when a port has one, in a
    package [<name>_types] printed ahead of the entity, which uses it. *)

val of_design : Hdl.Module_.design -> string
(** All modules (dependencies first), each as entity + rtl
    architecture. *)
