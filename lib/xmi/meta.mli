(** The metamodel, described once as {!Schema} values.

    Every {!Uml} type that travels in an interchange file has one schema
    here, giving its XMI placement and its binary layout together; the
    XML interpreter ({!Codec}) and the binary one ([Snap.Codec]) are
    compiled from these values.  Adding a metamodel field is one
    {!Schema.field} entry in its record.

    Irregular XMI encodings ({!Schema.Custom}): multiplicities
    ([lower]/[upper] with their own diagnostics and a [1..1] fallback),
    deferrable triggers (one [<deferrableTrigger>] wrapper per trigger),
    and the [messages] attribute of [ignore]/[consider] fragments. *)

val element : Uml.Model.element Schema.t
val application : Uml.Profile.application Schema.t
val diagram : Uml.Diagram.t Schema.t

val float_text : float -> string
(** XMI spelling of a real literal: [string_of_float] when that reads
    back bit-exact, ["%.17g"] otherwise. *)
