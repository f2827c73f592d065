open Uml

exception Import_error of string

let import_error fmt = Printf.ksprintf (fun m -> raise (Import_error m)) fmt

let id_of e = Ident.of_string (Codec.get_attr e "xmi:id")
let name_of e = Codec.get_attr e "name"
let ref_of e = Ident.of_string (Codec.get_attr e "ref")

let xmi_type e =
  match Sxml.Doc.attr e "xmi:type" with
  | Some t when String.length t > 4 && String.sub t 0 4 = "uml:" ->
    String.sub t 4 (String.length t - 4)
  | Some t -> t
  | None -> import_error "<%s> missing xmi:type" e.Sxml.Doc.tag

(* --- classifiers ----------------------------------------------------- *)

(* enum spellings come from the canonical tables in {!Codec}; unknown
   strings raise [Codec.Decode_error], surfaced as [Import_error] by
   [model_of_string] *)
let visibility_of = Codec.visibility_of_string
let direction_of = Codec.direction_of_string

let aggregation_of e =
  match Sxml.Doc.attr e "aggregation" with
  | None -> Classifier.No_aggregation
  | Some s -> Codec.aggregation_of_string s

let property_of e =
  {
    Classifier.prop_id = id_of e;
    prop_name = name_of e;
    prop_type = Codec.dtype_of_attrs "type" e;
    prop_mult = Codec.mult_of_attrs e;
    prop_default = Codec.vspec_of_attrs "default" e;
    prop_visibility =
      (match Sxml.Doc.attr e "visibility" with
       | Some v -> visibility_of v
       | None -> Classifier.Public);
    prop_is_static = Codec.get_bool e "isStatic";
    prop_is_read_only = Codec.get_bool e "isReadOnly";
    prop_aggregation = aggregation_of e;
  }

let parameter_of e =
  {
    Classifier.param_id = id_of e;
    param_name = name_of e;
    param_type = Codec.dtype_of_attrs "type" e;
    param_direction =
      (match Sxml.Doc.attr e "direction" with
       | Some d -> direction_of d
       | None -> Classifier.In);
    param_default = Codec.vspec_of_attrs "default" e;
  }

let operation_of e =
  {
    Classifier.op_id = id_of e;
    op_name = name_of e;
    op_params = List.map parameter_of (Sxml.Doc.find_children e "ownedParameter");
    op_visibility =
      (match Sxml.Doc.attr e "visibility" with
       | Some v -> visibility_of v
       | None -> Classifier.Public);
    op_is_query = Codec.get_bool e "isQuery";
    op_is_abstract = Codec.get_bool e "isAbstract";
    op_body = Codec.get_opt e "body";
  }

let refs_of e tag = List.map ref_of (Sxml.Doc.find_children e tag)

let classifier_of kind e =
  let cl_kind =
    match kind with
    | "Class" -> Classifier.Class
    | "Interface" -> Classifier.Interface
    | "DataType" -> Classifier.Data_type
    | "PrimitiveType" -> Classifier.Primitive_type
    | "Enumeration" ->
      Classifier.Enumeration
        (List.map name_of (Sxml.Doc.find_children e "ownedLiteral"))
    | "Signal" -> Classifier.Signal
    | "Actor" -> Classifier.Actor_kind
    | other -> import_error "unknown classifier kind %s" other
  in
  {
    Classifier.cl_id = id_of e;
    cl_name = name_of e;
    cl_kind;
    cl_is_abstract = Codec.get_bool e "isAbstract";
    cl_is_active = Codec.get_bool e "isActive";
    cl_attributes =
      List.map property_of (Sxml.Doc.find_children e "ownedAttribute");
    cl_operations =
      List.map operation_of (Sxml.Doc.find_children e "ownedOperation");
    cl_receptions =
      List.map
        (fun r ->
          {
            Classifier.recv_id = id_of r;
            recv_signal = Ident.of_string (Codec.get_attr r "signal");
          })
        (Sxml.Doc.find_children e "ownedReception");
    cl_generals = refs_of e "generalization";
    cl_realized = refs_of e "interfaceRealization";
    cl_behaviors = refs_of e "ownedBehavior";
  }

let association_of e =
  let end_of en =
    let prop =
      match Sxml.Doc.find_child en "endProperty" with
      | Some p -> property_of p
      | None -> import_error "memberEnd without endProperty"
    in
    {
      Classifier.end_property = prop;
      end_navigable = Codec.get_bool en "navigable";
    }
  in
  {
    Classifier.assoc_id = id_of e;
    assoc_name = name_of e;
    assoc_ends = List.map end_of (Sxml.Doc.find_children e "memberEnd");
  }

let package_of e =
  {
    Pkg.pkg_id = id_of e;
    pkg_name = name_of e;
    pkg_owned = refs_of e "ownedMember";
    pkg_subpackages = refs_of e "nestedPackage";
    pkg_imports = refs_of e "packageImport";
  }

(* --- state machines --------------------------------------------------- *)

let pseudostate_kind_of = Codec.pseudostate_kind_of_string

let trigger_of e =
  match Codec.get_attr e "kind" with
  | "signal" -> Smachine.Signal_trigger (Codec.get_attr e "event")
  | "time" -> Smachine.Time_trigger (Codec.get_int e "after")
  | "any" -> Smachine.Any_trigger
  | "completion" -> Smachine.Completion
  | other -> import_error "unknown trigger kind %s" other

let transition_of e =
  {
    Smachine.tr_id = id_of e;
    tr_source = Ident.of_string (Codec.get_attr e "source");
    tr_target = Ident.of_string (Codec.get_attr e "target");
    tr_triggers = List.map trigger_of (Sxml.Doc.find_children e "trigger");
    tr_guard = Codec.get_opt e "guard";
    tr_effect = Codec.get_opt e "effect";
    tr_kind =
      (match Sxml.Doc.attr e "kind" with
       | Some k -> Codec.transition_kind_of_string k
       | None -> Smachine.External);
  }

let rec region_of e =
  {
    Smachine.rg_id = id_of e;
    rg_name = name_of e;
    rg_vertices = List.map vertex_of (Sxml.Doc.find_children e "subvertex");
    rg_transitions =
      List.map transition_of (Sxml.Doc.find_children e "transition");
  }

and vertex_of e =
  match xmi_type e with
  | "State" ->
    let deferred =
      List.concat_map
        (fun d -> List.map trigger_of (Sxml.Doc.find_children d "trigger"))
        (Sxml.Doc.find_children e "deferrableTrigger")
    in
    Smachine.State
      {
        Smachine.st_id = id_of e;
        st_name = name_of e;
        st_regions = List.map region_of (Sxml.Doc.find_children e "region");
        st_entry = Codec.get_opt e "entry";
        st_exit = Codec.get_opt e "exit";
        st_do = Codec.get_opt e "doActivity";
        st_deferred = deferred;
      }
  | "Pseudostate" ->
    Smachine.Pseudo
      {
        Smachine.ps_id = id_of e;
        ps_name = name_of e;
        ps_kind = pseudostate_kind_of (Codec.get_attr e "kind");
      }
  | "FinalState" ->
    Smachine.Final { Smachine.fs_id = id_of e; fs_name = name_of e }
  | other -> import_error "unknown vertex type %s" other

let state_machine_of e =
  {
    Smachine.sm_id = id_of e;
    sm_name = name_of e;
    sm_regions = List.map region_of (Sxml.Doc.find_children e "region");
    sm_context = Option.map Ident.of_string (Codec.get_opt e "context");
  }

(* --- activities ------------------------------------------------------- *)

let activity_node_of e =
  let head = { Activityg.nd_id = id_of e; nd_name = name_of e } in
  match xmi_type e with
  | "OpaqueAction" ->
    Activityg.Action
      { Activityg.act_head = head; act_body = Codec.get_opt e "body" }
  | "CallBehaviorAction" ->
    Activityg.Call_behavior
      {
        Activityg.cb_head = head;
        cb_behavior = Ident.of_string (Codec.get_attr e "behavior");
      }
  | "SendSignalAction" ->
    Activityg.Send_signal
      { Activityg.ev_head = head; ev_event = Codec.get_attr e "event" }
  | "AcceptEventAction" ->
    Activityg.Accept_event
      { Activityg.ev_head = head; ev_event = Codec.get_attr e "event" }
  | "CentralBufferNode" ->
    Activityg.Object_node
      {
        Activityg.on_head = head;
        on_type = Codec.dtype_of_attrs "type" e;
        on_upper_bound = Codec.get_int_opt e "upperBound";
      }
  | "InitialNode" -> Activityg.Initial_node head
  | "ActivityFinalNode" -> Activityg.Activity_final head
  | "FlowFinalNode" -> Activityg.Flow_final head
  | "ForkNode" -> Activityg.Fork_node head
  | "JoinNode" -> Activityg.Join_node head
  | "DecisionNode" -> Activityg.Decision_node head
  | "MergeNode" -> Activityg.Merge_node head
  | other -> import_error "unknown activity node type %s" other

let activity_edge_of e =
  {
    Activityg.ed_id = id_of e;
    ed_source = Ident.of_string (Codec.get_attr e "source");
    ed_target = Ident.of_string (Codec.get_attr e "target");
    ed_guard = Codec.get_opt e "guard";
    ed_weight =
      (match Codec.get_int_opt e "weight" with
       | Some w -> w
       | None -> 1);
    ed_kind = Codec.edge_kind_of_string (xmi_type e);
  }

let activity_of e =
  {
    Activityg.ac_id = id_of e;
    ac_name = name_of e;
    ac_nodes = List.map activity_node_of (Sxml.Doc.find_children e "node");
    ac_edges = List.map activity_edge_of (Sxml.Doc.find_children e "edge");
    ac_context = Option.map Ident.of_string (Codec.get_opt e "context");
  }

(* --- interactions ------------------------------------------------------ *)

let message_sort_of = Codec.message_sort_of_string

let operator_of e =
  let names () =
    match Codec.get_opt e "messages" with
    | Some "" | None -> []
    | Some s -> String.split_on_char ',' s
  in
  match Codec.get_attr e "operator" with
  | "alt" -> Interaction.Alt
  | "opt" -> Interaction.Opt
  | "loop" ->
    Interaction.Loop (Codec.get_int e "minint", Codec.get_int_opt e "maxint")
  | "par" -> Interaction.Par
  | "strict" -> Interaction.Strict
  | "seq" -> Interaction.Seq
  | "break" -> Interaction.Break
  | "critical" -> Interaction.Critical
  | "neg" -> Interaction.Neg
  | "assert" -> Interaction.Assert
  | "ignore" -> Interaction.Ignore (names ())
  | "consider" -> Interaction.Consider (names ())
  | other -> import_error "unknown interaction operator %s" other

let rec interaction_element_of e =
  match e.Sxml.Doc.tag with
  | "message" ->
    Interaction.Message
      {
        Interaction.msg_id = id_of e;
        msg_name = name_of e;
        msg_sort = message_sort_of (Codec.get_attr e "sort");
        msg_from = Ident.of_string (Codec.get_attr e "from");
        msg_to = Ident.of_string (Codec.get_attr e "to");
        msg_arguments =
          List.filter_map
            (fun a -> Codec.vspec_of_attrs "value" a)
            (Sxml.Doc.find_children e "argument");
      }
  | "fragment" ->
    Interaction.Fragment
      {
        Interaction.fr_id = id_of e;
        fr_operator = operator_of e;
        fr_operands =
          List.map
            (fun o ->
              {
                Interaction.opnd_id = id_of o;
                opnd_guard = Codec.get_opt o "guard";
                opnd_body =
                  List.map interaction_element_of (Sxml.Doc.child_elements o);
              })
            (Sxml.Doc.find_children e "operand");
      }
  | other -> import_error "unknown interaction element <%s>" other

let interaction_of e =
  let body_elements =
    List.filter
      (fun c -> c.Sxml.Doc.tag = "message" || c.Sxml.Doc.tag = "fragment")
      (Sxml.Doc.child_elements e)
  in
  {
    Interaction.in_id = id_of e;
    in_name = name_of e;
    in_lifelines =
      List.map
        (fun l ->
          {
            Interaction.ll_id = id_of l;
            ll_name = name_of l;
            ll_represents =
              Option.map Ident.of_string (Codec.get_opt l "represents");
          })
        (Sxml.Doc.find_children e "lifeline");
    in_body = List.map interaction_element_of body_elements;
  }

(* --- use cases ---------------------------------------------------------- *)

let use_case_of e =
  {
    Usecase.uc_id = id_of e;
    uc_name = name_of e;
    uc_subject = Option.map Ident.of_string (Codec.get_opt e "subject");
    uc_actors = refs_of e "actorRef";
    uc_includes = refs_of e "include";
    uc_extends =
      List.map
        (fun x ->
          {
            Usecase.ext_extended =
              Ident.of_string (Codec.get_attr x "extendedCase");
            ext_condition = Codec.get_opt x "condition";
          })
        (Sxml.Doc.find_children e "extend");
  }

(* --- components ---------------------------------------------------------- *)

let component_of e =
  let port_of p =
    {
      Component.port_id = id_of p;
      port_name = name_of p;
      port_provided = refs_of p "provided";
      port_required = refs_of p "required";
      port_is_behavior = Codec.get_bool p "isBehavior";
    }
  in
  let part_of p =
    {
      Component.part_id = id_of p;
      part_name = name_of p;
      part_type = Ident.of_string (Codec.get_attr p "type");
      part_mult = Codec.mult_of_attrs p;
    }
  in
  let connector_of c =
    {
      Component.conn_id = id_of c;
      conn_name = name_of c;
      conn_kind = Codec.connector_kind_of_string (Codec.get_attr c "kind");
      conn_ends =
        List.map
          (fun en ->
            {
              Component.cend_part =
                Option.map Ident.of_string (Codec.get_opt en "part");
              cend_port = Ident.of_string (Codec.get_attr en "port");
            })
          (Sxml.Doc.find_children c "end");
    }
  in
  {
    Component.cmp_id = id_of e;
    cmp_name = name_of e;
    cmp_ports = List.map port_of (Sxml.Doc.find_children e "ownedPort");
    cmp_parts = List.map part_of (Sxml.Doc.find_children e "ownedPart");
    cmp_connectors =
      List.map connector_of (Sxml.Doc.find_children e "ownedConnector");
    cmp_realizations = refs_of e "realization";
    cmp_behaviors = refs_of e "ownedBehavior";
  }

(* --- instances ----------------------------------------------------------- *)

let instance_of e =
  {
    Instance.inst_id = id_of e;
    inst_name = name_of e;
    inst_classifier =
      Option.map Ident.of_string (Codec.get_opt e "classifier");
    inst_slots =
      List.map
        (fun s ->
          {
            Instance.slot_feature = Codec.get_attr s "feature";
            slot_values =
              List.filter_map
                (fun v -> Codec.vspec_of_attrs "value" v)
                (Sxml.Doc.find_children s "value");
          })
        (Sxml.Doc.find_children e "slot");
  }

let link_of e =
  {
    Instance.link_id = id_of e;
    link_association =
      Option.map Ident.of_string (Codec.get_opt e "association");
    link_ends =
      ( Ident.of_string (Codec.get_attr e "end1"),
        Ident.of_string (Codec.get_attr e "end2") );
  }

(* --- deployments ----------------------------------------------------------- *)

let deployment_node_of kind e =
  {
    Deployment.dn_id = id_of e;
    dn_name = name_of e;
    dn_kind = Codec.node_kind_of_string kind;
    dn_nested = refs_of e "nestedNode";
  }

let artifact_of e =
  {
    Deployment.art_id = id_of e;
    art_name = name_of e;
    art_manifests = refs_of e "manifestation";
  }

let deployment_of e =
  {
    Deployment.dep_id = id_of e;
    dep_artifact = Ident.of_string (Codec.get_attr e "artifact");
    dep_target = Ident.of_string (Codec.get_attr e "target");
  }

let communication_path_of e =
  {
    Deployment.cpath_id = id_of e;
    cpath_ends =
      ( Ident.of_string (Codec.get_attr e "end1"),
        Ident.of_string (Codec.get_attr e "end2") );
  }

(* --- profiles ----------------------------------------------------------- *)

let metaclass_of = Codec.metaclass_of_string

let profile_of e =
  {
    Profile.prof_id = id_of e;
    prof_name = name_of e;
    prof_stereotypes =
      List.map
        (fun s ->
          {
            Profile.ster_id = id_of s;
            ster_name = name_of s;
            ster_extends =
              List.map
                (fun x -> metaclass_of (Codec.get_attr x "metaclass"))
                (Sxml.Doc.find_children s "extension");
            ster_tags =
              List.map
                (fun t ->
                  {
                    Profile.tag_name = name_of t;
                    tag_type = Codec.dtype_of_attrs "type" t;
                    tag_default = Codec.vspec_of_attrs "default" t;
                  })
                (Sxml.Doc.find_children s "tagDefinition");
          })
        (Sxml.Doc.find_children e "ownedStereotype");
  }

(* --- top level ------------------------------------------------------------- *)

let element_of e =
  match xmi_type e with
  | ("Class" | "Interface" | "DataType" | "PrimitiveType" | "Enumeration"
    | "Signal" | "Actor") as k ->
    Model.E_classifier (classifier_of k e)
  | "Association" -> Model.E_association (association_of e)
  | "Package" -> Model.E_package (package_of e)
  | "StateMachine" -> Model.E_state_machine (state_machine_of e)
  | "Activity" -> Model.E_activity (activity_of e)
  | "Interaction" -> Model.E_interaction (interaction_of e)
  | "UseCase" -> Model.E_use_case (use_case_of e)
  | "Component" -> Model.E_component (component_of e)
  | "InstanceSpecification" -> Model.E_instance (instance_of e)
  | "Link" -> Model.E_link (link_of e)
  | ("Node" | "Device" | "ExecutionEnvironment") as k ->
    Model.E_deployment_node (deployment_node_of k e)
  | "Artifact" -> Model.E_artifact (artifact_of e)
  | "Deployment" -> Model.E_deployment (deployment_of e)
  | "CommunicationPath" ->
    Model.E_communication_path (communication_path_of e)
  | "Profile" -> Model.E_profile (profile_of e)
  | other -> import_error "unknown element type uml:%s" other

let application_of e =
  {
    Profile.app_element = Ident.of_string (Codec.get_attr e "element");
    app_stereotype = Ident.of_string (Codec.get_attr e "stereotype");
    app_values =
      List.map
        (fun t ->
          let v =
            match Codec.vspec_of_attrs "value" t with
            | Some v -> v
            | None -> import_error "tagValue without value"
          in
          (name_of t, v))
        (Sxml.Doc.find_children e "tagValue");
  }

let diagram_kind_of = Codec.diagram_kind_of_string

let diagram_of e =
  {
    Diagram.dg_id = id_of e;
    dg_name = name_of e;
    dg_kind = diagram_kind_of (Codec.get_attr e "kind");
    dg_elements = refs_of e "elementRef";
  }

let of_xml doc =
  let root =
    match doc with
    | Sxml.Doc.Element e when e.Sxml.Doc.tag = "xmi:XMI" -> e
    | Sxml.Doc.Element e -> import_error "expected <xmi:XMI>, got <%s>" e.Sxml.Doc.tag
    | Sxml.Doc.Text _ -> import_error "expected an element"
  in
  let model_el =
    match Sxml.Doc.find_child root "uml:Model" with
    | Some e -> e
    | None -> import_error "missing <uml:Model>"
  in
  let m = Model.create (Codec.get_attr model_el "name") in
  List.iter
    (fun e ->
      if e.Sxml.Doc.tag = "packagedElement" then Model.add m (element_of e))
    (Sxml.Doc.child_elements model_el);
  (match Sxml.Doc.find_child root "applications" with
   | Some apps ->
     List.iter
       (fun a -> Model.add_application m (application_of a))
       (Sxml.Doc.find_children apps "stereotypeApplication")
   | None -> ());
  (match Sxml.Doc.find_child root "diagrams" with
   | Some ds ->
     List.iter
       (fun d -> Model.add_diagram m (diagram_of d))
       (Sxml.Doc.find_children ds "diagram")
   | None -> ());
  m

let model_of_string s =
  match Sxml.Parse.parse_string s with
  | doc -> (
    match of_xml doc with
    | m -> m
    | exception Codec.Decode_error msg -> raise (Import_error msg))
  | exception exn -> (
    match Sxml.Parse.error_message exn with
    | Some m -> raise (Import_error m)
    | None -> raise exn)
