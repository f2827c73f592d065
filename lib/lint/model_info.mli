(** Diagnostic constructors for the lint passes, pulling severities
    from the {!Rules} registry.  The ASL view of a model that the
    passes share with the code generator is {!Asl.Sites}. *)

val diag :
  code:string -> ?element:Uml.Ident.t -> string -> Uml.Wfr.diagnostic
(** Build a diagnostic whose severity comes from the registry entry for
    [code] (Error if the code is unregistered). *)

val diagf :
  code:string ->
  ?element:Uml.Ident.t ->
  ('a, unit, string, Uml.Wfr.diagnostic) format4 ->
  'a

val sort : Uml.Wfr.diagnostic list -> Uml.Wfr.diagnostic list
(** Deterministic report order: by rule code, then element, then
    message. *)
