(** Static checks over RTL designs: name resolution, driver rules,
    width compatibility, instance wiring, combinational loops, and
    dead-wire detection.

    Every finding is a structured {!diagnostic} carrying a severity and
    a stable rule code, so callers (the [lint] subsystem, the CLI) can
    filter and render findings uniformly:

    - [HDL-01] duplicate port/signal declaration
    - [HDL-02] expression does not type ([infer_type] failure)
    - [HDL-03] invalid assignment target (unresolved name, input port)
    - [HDL-04] width or case-choice mismatch
    - [HDL-05] signal driven by multiple processes
    - [HDL-06] combinational loop
    - [HDL-07] bad clock or reset (unresolved, not a bit)
    - [HDL-08] instance wiring (unknown module/port, unresolved actual,
      unconnected input)
    - [HDL-09] top module not found
    - [HDL-10] signal or output port read/required but never driven
      (design-level: instance connections resolved)
    - [HDL-11] internal signal neither read nor driven (design-level) *)

type severity =
  | Error
  | Warning

val severity_name : severity -> string

type diagnostic = {
  diag_severity : severity;
  diag_code : string;  (** stable rule identifier, e.g. ["HDL-05"] *)
  diag_message : string;
}

val to_string : diagnostic -> string
(** ["error(HDL-05): signal s driven by multiple processes ..."] *)

val errors : diagnostic list -> diagnostic list
val warnings : diagnostic list -> diagnostic list
val messages : diagnostic list -> string list
(** Bare message texts, in order (for tests and legacy callers). *)

val infer_type : Module_.t -> Expr.t -> (Htype.t, string) result
(** Infer the type of an expression in a module's name scope.
    Arithmetic joins to the wider operand; comparisons and reductions
    yield [Bit]; [Concat] adds widths. *)

val check_module : Module_.t -> diagnostic list
(** Diagnostics local to one module (no instance resolution, so no
    HDL-10/HDL-11 — driving via instance outputs needs the design). *)

val check_design : Module_.design -> diagnostic list
(** All module diagnostics plus instance wiring, hierarchy and
    dead-wire checks.  Empty list = clean. *)

val has_comb_loop : Module_.t -> bool
(** Combinational cycle through the module's [Comb] processes. *)
