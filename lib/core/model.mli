(** The model container.

    A model owns every element, keyed by identifier, plus stereotype
    applications and diagrams.  The container is imperative (hash-indexed
    for O(1) lookup in large models) but preserves insertion order so
    that serialization and code generation are deterministic.

    Next to the index it keeps the element list itself, which [add],
    [replace] and [remove] update eagerly: {!elements}, {!iter},
    {!fold} and the kind projections walk that list and do no hash
    lookups, and a loaded model can be read from several domains at
    once. *)

type element =
  | E_classifier of Classifier.t
  | E_association of Classifier.association
  | E_package of Pkg.t
  | E_state_machine of Smachine.t
  | E_activity of Activityg.t
  | E_interaction of Interaction.t
  | E_use_case of Usecase.t
  | E_component of Component.t
  | E_instance of Instance.t
  | E_link of Instance.link
  | E_deployment_node of Deployment.node
  | E_artifact of Deployment.artifact
  | E_deployment of Deployment.deployment
  | E_communication_path of Deployment.communication_path
  | E_profile of Profile.t
[@@deriving eq, show]

type t

val create : ?capacity:int -> string -> t
(** [create name] makes an empty model.  [capacity] pre-sizes the
    element index when the caller knows how many elements are coming
    (bulk loaders), avoiding rehash chains during construction. *)

val name : t -> string
val set_name : t -> string -> unit

val element_id : element -> Ident.t
val element_name : element -> string
val element_kind : element -> string
(** Metaclass-style name of the variant, e.g. ["Class"],
    ["StateMachine"]. *)

val add : t -> element -> unit
(** @raise Invalid_argument on a duplicate identifier.  A model that
    raised here is half-updated and must be discarded (every in-repo
    caller builds a fresh model and drops it on failure). *)

val replace : t -> element -> unit
(** Replace the element with the same identifier; adds if absent.
    Insertion order of a replaced element is preserved, which costs
    O(number of elements): the element list is rebuilt around it. *)

val remove : t -> Ident.t -> unit
(** O(number of elements), like [replace]. *)

val find : t -> Ident.t -> element option
val mem : t -> Ident.t -> bool
val elements : t -> element list
(** All elements in insertion order.  O(number of elements). *)

val size : t -> int
val iter : (element -> unit) -> t -> unit
val fold : ('a -> element -> 'a) -> 'a -> t -> 'a

val classifiers : t -> Classifier.t list
val components : t -> Component.t list
val state_machines : t -> Smachine.t list
val activities : t -> Activityg.t list
val use_cases : t -> Usecase.t list
val profiles : t -> Profile.t list
val instances : t -> Instance.t list

val find_classifier : t -> Ident.t -> Classifier.t option
val find_component : t -> Ident.t -> Component.t option
val find_state_machine : t -> Ident.t -> Smachine.t option

val classifier_named : t -> string -> Classifier.t option
val component_named : t -> string -> Component.t option

(** Stereotype queries read an index that [add], [replace], [remove]
    and [add_application] keep up to date: the profile elements in
    element order, and each element's applications in application
    order.  A query costs O(profiles + applications on the element). *)

val add_application : t -> Profile.application -> unit
val applications : t -> Profile.application list
val applications_of : t -> Ident.t -> Profile.application list
(** Stereotype applications attached to the given element, in
    application order. *)

val stereotype_named : t -> string -> (Profile.t * Profile.stereotype) option
(** The first stereotype called [name] of the first profile, in element
    order, that declares one. *)

val application :
  t -> Ident.t -> string -> (Profile.stereotype * Profile.application) option
(** [application m elt name]: the first application, in application
    order, on [elt] of the stereotype [stereotype_named m name]. *)

val has_stereotype : t -> Ident.t -> string -> bool
(** [has_stereotype m elt name]: is [application m elt name] defined? *)

val add_diagram : t -> Diagram.t -> unit
val diagrams : t -> Diagram.t list

val equal : t -> t -> bool
(** Deep structural equality: same name, same elements in the same
    order, same applications and diagrams. *)

val copy : t -> t
(** An independent model: later edits to either side never show in the
    other.  Elements themselves are immutable and shared. *)

val generalization_parents : t -> Ident.t -> Ident.t list
(** Direct generalization targets of a classifier (empty for other
    elements). *)

val all_ancestors : t -> Ident.t -> Ident.Set.t
(** Transitive generalization closure; stops on cycles. *)

val feature_index : t -> (Ident.t, Profile.metaclass) Hashtbl.t
(** Metaclasses of every *nested* feature (attributes, operations,
    ports, parts, connectors, states, transitions, activity nodes) keyed
    by identifier.  Built by one model scan per call; top-level elements
    are not included. *)
