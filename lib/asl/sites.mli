(** The ASL view of a UML model, built once for every reader of its
    behaviors (the lint passes, the dataflow passes, the C generator):
    the class oracle the typechecker resolves against, the environment
    the statechart engine gives guards and effects, and one enumeration
    of the model's state-machine and operation behavior sites.

    Every site is parsed through {!Compiled}, so a source string is
    parsed once per process whichever reader meets it first. *)

val ty_of_dtype : Uml.Model.t -> Uml.Dtype.t -> Typecheck.ty
(** ASL view of a UML type reference ([Ref] resolved to its class
    name when the classifier exists). *)

val class_info_of_model : Uml.Model.t -> Typecheck.class_info
(** Attribute/operation oracle backed by the model's classifiers: the
    code generator, the interpreter and lint resolve names through it. *)

val self_class : Uml.Model.t -> Uml.Ident.t option -> string option
(** Name of the classifier behind a behavior's context reference
    ([sm_context] / [ac_context]), when it resolves. *)

val event_env : (string * Typecheck.ty) list
(** The identifier environment the statechart engine provides to guards
    and effects: event parameters [e1] … [e9] as integers and [event] as
    the triggering signal name.  An approximation — parameters are
    integers in every workload and example model. *)

type body =
  | Guard of (Ast.expr, string) result
  | Program of (Ast.program, string) result
      (** The parse outcome; [Error] carries the rendered parse error. *)

type site = {
  site_element : Uml.Ident.t;  (** transition, state or operation *)
  site_what : string;
      (** label in diagnostics: ["transition guard"], ["state entry
          behavior"], ["body of C.op"], … *)
  site_self : string option;  (** class [self] denotes *)
  site_env : (string * Typecheck.ty) list;
      (** names bound on entry: {!event_env} in a state machine, the
          non-return parameters in an operation body *)
  site_body : body;
}

val fold : ('a -> site -> 'a) -> 'a -> Uml.Model.t -> 'a
(** Every behavior site of the model's state machines (per machine:
    each transition's guard then effect, then each state's entry, exit
    and do behavior) and then of its classifiers' operation bodies, in
    model order.  Activities are not enumerated: their action bodies
    share one store, which each reader models in its own way. *)
