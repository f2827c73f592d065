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

(* [elems] lets reads walk the elements without probing [index];
   [profs] and [apps_of] answer stereotype queries without a model
   scan.  Only the mutators below write them, eagerly, so a loaded model
   can be read from several domains at once. *)
type t = {
  mutable model_name : string;
  mutable elems : element list;  (** reverse insertion order *)
  index : (Ident.t, element) Hashtbl.t;
  mutable profs : Profile.t list;  (** profile elements, element order *)
  mutable apps : Profile.application list;  (** reverse order *)
  apps_of : (Ident.t, Profile.application list) Hashtbl.t;
      (** applications by element, each list in reverse order *)
  mutable diags : Diagram.t list;  (** reverse order *)
}

let create ?(capacity = 64) name =
  { model_name = name; elems = []; index = Hashtbl.create capacity;
    profs = []; apps = []; apps_of = Hashtbl.create 16; diags = [] }

let name m = m.model_name
let set_name m n = m.model_name <- n

let element_id = function
  | E_classifier c -> c.Classifier.cl_id
  | E_association a -> a.Classifier.assoc_id
  | E_package p -> p.Pkg.pkg_id
  | E_state_machine sm -> sm.Smachine.sm_id
  | E_activity a -> a.Activityg.ac_id
  | E_interaction i -> i.Interaction.in_id
  | E_use_case u -> u.Usecase.uc_id
  | E_component c -> c.Component.cmp_id
  | E_instance i -> i.Instance.inst_id
  | E_link l -> l.Instance.link_id
  | E_deployment_node n -> n.Deployment.dn_id
  | E_artifact a -> a.Deployment.art_id
  | E_deployment d -> d.Deployment.dep_id
  | E_communication_path c -> c.Deployment.cpath_id
  | E_profile p -> p.Profile.prof_id

let element_name = function
  | E_classifier c -> c.Classifier.cl_name
  | E_association a -> a.Classifier.assoc_name
  | E_package p -> p.Pkg.pkg_name
  | E_state_machine sm -> sm.Smachine.sm_name
  | E_activity a -> a.Activityg.ac_name
  | E_interaction i -> i.Interaction.in_name
  | E_use_case u -> u.Usecase.uc_name
  | E_component c -> c.Component.cmp_name
  | E_instance i -> i.Instance.inst_name
  | E_link _ -> ""
  | E_deployment_node n -> n.Deployment.dn_name
  | E_artifact a -> a.Deployment.art_name
  | E_deployment _ -> ""
  | E_communication_path _ -> ""
  | E_profile p -> p.Profile.prof_name

let element_kind = function
  | E_classifier c -> (
    match c.Classifier.cl_kind with
    | Classifier.Class -> "Class"
    | Classifier.Interface -> "Interface"
    | Classifier.Data_type -> "DataType"
    | Classifier.Primitive_type -> "PrimitiveType"
    | Classifier.Enumeration _ -> "Enumeration"
    | Classifier.Signal -> "Signal"
    | Classifier.Actor_kind -> "Actor")
  | E_association _ -> "Association"
  | E_package _ -> "Package"
  | E_state_machine _ -> "StateMachine"
  | E_activity _ -> "Activity"
  | E_interaction _ -> "Interaction"
  | E_use_case _ -> "UseCase"
  | E_component _ -> "Component"
  | E_instance _ -> "InstanceSpecification"
  | E_link _ -> "Link"
  | E_deployment_node _ -> "Node"
  | E_artifact _ -> "Artifact"
  | E_deployment _ -> "Deployment"
  | E_communication_path _ -> "CommunicationPath"
  | E_profile _ -> "Profile"

let add m e =
  let id = element_id e in
  (* single probe instead of [mem] + [add]: [replace] hashes once, and
     an unchanged table size afterwards means the id was already bound.
     [add] sits on the bulk-load path, so the doubled hashing showed. *)
  let before = Hashtbl.length m.index in
  Hashtbl.replace m.index id e;
  if Hashtbl.length m.index = before then
    invalid_arg (Printf.sprintf "Model.add: duplicate identifier %s" id);
  m.elems <- e :: m.elems;
  match e with
  | E_profile p -> m.profs <- m.profs @ [ p ]
  | _e -> ()

let elements m = List.rev m.elems

(* [elems] is newest first, so prepending while folding from its head
   yields insertion order without reversing the whole list. *)
let project pick m =
  List.fold_left
    (fun acc e ->
      match pick e with
      | Some x -> x :: acc
      | None -> acc)
    [] m.elems

let is_profile = function E_profile _ -> true | _e -> false

(* A replaced or removed profile keeps or loses its place in element
   order; both are rare, so rescan rather than splice. *)
let reindex_profiles m =
  m.profs <- project (function E_profile p -> Some p | _e -> None) m

let replace m e =
  let id = element_id e in
  match Hashtbl.find_opt m.index id with
  | None -> add m e
  | Some old ->
    Hashtbl.replace m.index id e;
    (* [index] and [elems] hold the same values, so physical equality
       finds the element's slot *)
    m.elems <- List.map (fun x -> if x == old then e else x) m.elems;
    if is_profile old || is_profile e then reindex_profiles m

let remove m id =
  match Hashtbl.find_opt m.index id with
  | None -> ()
  | Some old ->
    Hashtbl.remove m.index id;
    m.elems <- List.filter (fun x -> x != old) m.elems;
    if is_profile old then reindex_profiles m

let find m id = Hashtbl.find_opt m.index id
let mem m id = Hashtbl.mem m.index id

let size m = Hashtbl.length m.index
let iter f m = List.iter f (elements m)
let fold f init m = List.fold_left f init (elements m)

let classifiers m =
  project (function E_classifier c -> Some c | _e -> None) m

let components m =
  project (function E_component c -> Some c | _e -> None) m

let state_machines m =
  project (function E_state_machine s -> Some s | _e -> None) m

let activities m =
  project (function E_activity a -> Some a | _e -> None) m

let use_cases m = project (function E_use_case u -> Some u | _e -> None) m
let profiles m = m.profs
let instances m = project (function E_instance i -> Some i | _e -> None) m

let find_classifier m id =
  match find m id with
  | Some (E_classifier c) -> Some c
  | Some _ | None -> None

let find_component m id =
  match find m id with
  | Some (E_component c) -> Some c
  | Some _ | None -> None

let find_state_machine m id =
  match find m id with
  | Some (E_state_machine s) -> Some s
  | Some _ | None -> None

let classifier_named m n =
  List.find_opt (fun c -> c.Classifier.cl_name = n) (classifiers m)

let component_named m n =
  List.find_opt (fun c -> c.Component.cmp_name = n) (components m)

let add_application m app =
  let id = app.Profile.app_element in
  m.apps <- app :: m.apps;
  Hashtbl.replace m.apps_of id
    (app :: Option.value ~default:[] (Hashtbl.find_opt m.apps_of id))

let applications m = List.rev m.apps

let applications_of m id =
  match Hashtbl.find_opt m.apps_of id with
  | Some apps -> List.rev apps
  | None -> []

let stereotype_named m n =
  let in_profile p =
    match Profile.find_stereotype p n with
    | Some s -> Some (p, s)
    | None -> None
  in
  List.find_map in_profile m.profs

let application m elt n =
  match Hashtbl.find_opt m.apps_of elt with
  | None -> None
  | Some apps -> (
    match stereotype_named m n with
    | None -> None
    | Some (_, ster) ->
      (* [apps] is newest first, so the last match was applied first *)
      let pick found a =
        if Ident.equal a.Profile.app_stereotype ster.Profile.ster_id then
          Some (ster, a)
        else found
      in
      List.fold_left pick None apps)

let has_stereotype m elt n = Option.is_some (application m elt n)

let add_diagram m d = m.diags <- d :: m.diags
let diagrams m = List.rev m.diags

let equal m1 m2 =
  m1.model_name = m2.model_name
  && List.equal equal_element (elements m1) (elements m2)
  && List.equal Profile.equal_application (applications m1) (applications m2)
  && List.equal Diagram.equal (diagrams m1) (diagrams m2)

let copy m =
  {
    model_name = m.model_name;
    elems = m.elems;
    index = Hashtbl.copy m.index;
    profs = m.profs;
    apps = m.apps;
    apps_of = Hashtbl.copy m.apps_of;
    diags = m.diags;
  }

let generalization_parents m id =
  match find_classifier m id with
  | Some c -> c.Classifier.cl_generals
  | None -> []

let all_ancestors m id =
  let rec visit seen id =
    let parents = generalization_parents m id in
    let visit_parent seen p =
      if Ident.Set.mem p seen then seen
      else visit (Ident.Set.add p seen) p
    in
    List.fold_left visit_parent seen parents
  in
  visit Ident.Set.empty id

let feature_index m =
  let tbl = Hashtbl.create 64 in
  let add id mc = Hashtbl.replace tbl id mc in
  let scan = function
    | E_classifier c ->
      List.iter
        (fun (p : Classifier.property) ->
          add p.Classifier.prop_id Profile.M_property)
        c.Classifier.cl_attributes;
      List.iter
        (fun (o : Classifier.operation) ->
          add o.Classifier.op_id Profile.M_operation)
        c.Classifier.cl_operations
    | E_component c ->
      List.iter
        (fun (p : Component.port) -> add p.Component.port_id Profile.M_port)
        c.Component.cmp_ports;
      List.iter
        (fun (p : Component.part) ->
          add p.Component.part_id Profile.M_property)
        c.Component.cmp_parts;
      List.iter
        (fun (conn : Component.connector) ->
          add conn.Component.conn_id Profile.M_connector)
        c.Component.cmp_connectors
    | E_state_machine sm ->
      List.iter
        (fun v ->
          match v with
          | Smachine.State s -> add s.Smachine.st_id Profile.M_state
          | Smachine.Pseudo p -> add p.Smachine.ps_id Profile.M_state
          | Smachine.Final f -> add f.Smachine.fs_id Profile.M_state)
        (Smachine.all_vertices sm);
      List.iter
        (fun (tr : Smachine.transition) ->
          add tr.Smachine.tr_id Profile.M_transition)
        (Smachine.all_transitions sm)
    | E_activity a ->
      List.iter
        (fun n -> add (Activityg.node_id n) Profile.M_action)
        a.Activityg.ac_nodes;
      List.iter
        (fun (e : Activityg.edge) -> add e.Activityg.ed_id Profile.M_any)
        a.Activityg.ac_edges
    | E_association _ | E_package _ | E_interaction _ | E_use_case _
    | E_instance _ | E_link _ | E_deployment_node _ | E_artifact _
    | E_deployment _ | E_communication_path _ | E_profile _ ->
      ()
  in
  iter scan m;
  tbl
