(** Random ASL programs, for property tests and differentials.

    The core shapes are the ones the dataflow tier's properties have
    always drawn: integer and Boolean literals, variables of a pool,
    arithmetic, comparisons, [and]/[or]/[not]; [var], assignment,
    [return], [send]; and [if], [while] and [for] nested two deep, at
    most eight statements a program and three a block. *)

val program : ?objects:bool -> Prng.t -> pool:string list -> Asl.Ast.program
(** [program rng ~pool] draws one program over the variable names of
    [pool] (which must not be empty).  With [objects] (default
    [false]) it also reads and writes [self.x], allocates [new K],
    deletes and sends to variables, prints, calls the builtins [abs],
    [min], [max] and [to_string], and calls the operation [bump] with
    one argument on [self] or on a variable: a run needs a resolver
    that gives class [K] that operation. *)
