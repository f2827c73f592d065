type severity =
  | Error
  | Warning

(* Handwritten: ppx_deriving's [open! Ppx_deriving_runtime] would shadow
   the [Error] constructor with [result]'s. *)
let equal_severity (a : severity) (b : severity) = a = b
let compare_severity (a : severity) (b : severity) = Stdlib.compare a b

let pp_severity fmt s =
  Format.pp_print_string fmt
    (match s with
     | Error -> "Error"
     | Warning -> "Warning")

let show_severity s = Format.asprintf "%a" pp_severity s
let _ = compare_severity
let _ = show_severity

type diagnostic = {
  diag_severity : severity;
  diag_rule : string;
  diag_element : Ident.t option;
  diag_message : string;
}
[@@deriving eq, show]

let diag severity rule element message =
  { diag_severity = severity; diag_rule = rule; diag_element = element;
    diag_message = message }

let error rule element fmt =
  Printf.ksprintf (diag Error rule element) fmt

let warning rule element fmt =
  Printf.ksprintf (diag Warning rule element) fmt

(* ------------------------------------------------------------------ *)
(* Reference resolution                                                *)

let check_type_ref m owner rule acc = function
  | Dtype.Ref id when not (Model.mem m id) ->
    error rule (Some owner) "unresolved type reference %s" id :: acc
  | Dtype.Ref _ | Dtype.Boolean | Dtype.Integer | Dtype.Real
  | Dtype.Unlimited_natural | Dtype.String_type | Dtype.Void ->
    acc

let check_elem_ref m owner rule what acc id =
  if Model.mem m id then acc
  else error rule (Some owner) "unresolved %s reference %s" what id :: acc

let check_classifier_refs m (c : Classifier.t) acc =
  let id = c.Classifier.cl_id in
  let acc =
    List.fold_left
      (fun acc (p : Classifier.property) ->
        check_type_ref m id "CL-01" acc p.Classifier.prop_type)
      acc c.Classifier.cl_attributes
  in
  let acc =
    List.fold_left
      (fun acc (op : Classifier.operation) ->
        List.fold_left
          (fun acc (pa : Classifier.parameter) ->
            check_type_ref m id "CL-02" acc pa.Classifier.param_type)
          acc op.Classifier.op_params)
      acc c.Classifier.cl_operations
  in
  let acc =
    List.fold_left (check_elem_ref m id "CL-03" "generalization") acc
      c.Classifier.cl_generals
  in
  let acc =
    List.fold_left (check_elem_ref m id "CL-04" "interface realization") acc
      c.Classifier.cl_realized
  in
  List.fold_left (check_elem_ref m id "CL-05" "owned behavior") acc
    c.Classifier.cl_behaviors

(* ------------------------------------------------------------------ *)
(* Multiplicities                                                      *)

let check_classifier_mults (c : Classifier.t) acc =
  let check acc (p : Classifier.property) =
    if Mult.is_valid p.Classifier.prop_mult then acc
    else
      error "CL-06" (Some c.Classifier.cl_id)
        "attribute %s has invalid multiplicity %s" p.Classifier.prop_name
        (Mult.to_string p.Classifier.prop_mult)
      :: acc
  in
  List.fold_left check acc c.Classifier.cl_attributes

(* ------------------------------------------------------------------ *)
(* Namespaces                                                          *)

let duplicates names =
  let tbl = Hashtbl.create 16 in
  let mark dups n =
    if n = "" then dups
    else if Hashtbl.mem tbl n then if List.mem n dups then dups else n :: dups
    else begin
      Hashtbl.add tbl n ();
      dups
    end
  in
  List.rev (List.fold_left mark [] names)

let check_classifier_namespace (c : Classifier.t) acc =
  let attr_names =
    List.map (fun (p : Classifier.property) -> p.Classifier.prop_name)
      c.Classifier.cl_attributes
  in
  let acc =
    List.fold_left
      (fun acc n ->
        error "NS-01" (Some c.Classifier.cl_id)
          "duplicate attribute name %s in classifier %s" n
          c.Classifier.cl_name
        :: acc)
      acc (duplicates attr_names)
  in
  let op_names =
    List.map (fun (o : Classifier.operation) -> o.Classifier.op_name)
      c.Classifier.cl_operations
  in
  List.fold_left
    (fun acc n ->
      warning "NS-02" (Some c.Classifier.cl_id)
        "overloaded operation name %s in classifier %s" n c.Classifier.cl_name
      :: acc)
    acc (duplicates op_names)

let check_model_namespace m acc =
  let names =
    List.map
      (fun e -> Model.element_kind e ^ ":" ^ Model.element_name e)
      (Model.elements m)
  in
  List.fold_left
    (fun acc n ->
      warning "NS-03" None "duplicate top-level element %s" n :: acc)
    acc (duplicates names)

(* ------------------------------------------------------------------ *)
(* Generalization                                                      *)

let check_generalization m (c : Classifier.t) acc =
  let id = c.Classifier.cl_id in
  let ancestors = Model.all_ancestors m id in
  let acc =
    if Ident.Set.mem id ancestors then
      error "GE-01" (Some id) "generalization cycle through %s"
        c.Classifier.cl_name
      :: acc
    else acc
  in
  let compatible acc parent_id =
    match Model.find_classifier m parent_id with
    | None -> acc (* unresolved: reported by CL-03 *)
    | Some parent ->
      let same_family =
        match c.Classifier.cl_kind, parent.Classifier.cl_kind with
        | Classifier.Interface, Classifier.Interface -> true
        | Classifier.Interface, _other -> false
        | _other, Classifier.Interface -> false
        | _class_like, _class_like2 -> true
      in
      if same_family then acc
      else
        error "GE-02" (Some id)
          "classifier %s cannot specialize %s (incompatible kinds)"
          c.Classifier.cl_name parent.Classifier.cl_name
        :: acc
  in
  List.fold_left compatible acc c.Classifier.cl_generals

(* ------------------------------------------------------------------ *)
(* State machines                                                      *)

let check_state_machine (sm : Smachine.t) acc =
  let open Smachine in
  let vertices = all_vertices sm in
  let transitions = all_transitions sm in
  let vertex_ids =
    Ident.Set.of_list (List.map vertex_id vertices)
  in
  let incoming v =
    List.filter (fun t -> Ident.equal t.tr_target v) transitions
  in
  let outgoing v =
    List.filter (fun t -> Ident.equal t.tr_source v) transitions
  in
  (* SM-01: transition endpoints are vertices of the machine *)
  let acc =
    List.fold_left
      (fun acc t ->
        let acc =
          if Ident.Set.mem t.tr_source vertex_ids then acc
          else
            error "SM-01" (Some t.tr_id) "transition source %s not a vertex"
              t.tr_source
            :: acc
        in
        if Ident.Set.mem t.tr_target vertex_ids then acc
        else
          error "SM-01" (Some t.tr_id) "transition target %s not a vertex"
            t.tr_target
          :: acc)
      acc transitions
  in
  (* SM-02: at most one initial pseudostate per region *)
  let acc =
    List.fold_left
      (fun acc r ->
        let initials =
          List.filter
            (fun v ->
              match v with
              | Pseudo p -> p.ps_kind = Initial
              | State _ | Final _ -> false)
            r.rg_vertices
        in
        if List.length initials <= 1 then acc
        else
          error "SM-02" (Some r.rg_id)
            "region %s has %d initial pseudostates" r.rg_name
            (List.length initials)
          :: acc)
      acc (all_regions sm)
  in
  (* Per-pseudostate topology *)
  let check_vertex acc v =
    match v with
    | State _ -> acc
    | Final f ->
      if outgoing f.fs_id = [] then acc
      else
        error "SM-03" (Some f.fs_id) "final state %s has outgoing transitions"
          f.fs_name
        :: acc
    | Pseudo p -> (
      let n_in = List.length (incoming p.ps_id) in
      let n_out = List.length (outgoing p.ps_id) in
      match p.ps_kind with
      | Initial ->
        let acc =
          if n_out = 1 then acc
          else
            error "SM-04" (Some p.ps_id)
              "initial pseudostate must have exactly one outgoing \
               transition (has %d)"
              n_out
            :: acc
        in
        let bad_trigger =
          List.exists
            (fun t -> t.tr_triggers <> [] || t.tr_guard <> None)
            (outgoing p.ps_id)
        in
        if bad_trigger then
          error "SM-05" (Some p.ps_id)
            "initial transition may not have triggers or guards"
          :: acc
        else acc
      | Fork ->
        if n_in = 1 && n_out >= 2 then acc
        else
          error "SM-06" (Some p.ps_id)
            "fork must have one incoming and at least two outgoing \
             transitions (%d/%d)"
            n_in n_out
          :: acc
      | Join ->
        if n_in >= 2 && n_out = 1 then acc
        else
          error "SM-07" (Some p.ps_id)
            "join must have at least two incoming and one outgoing \
             transition (%d/%d)"
            n_in n_out
          :: acc
      | Junction | Choice ->
        if n_out >= 1 then acc
        else
          error "SM-08" (Some p.ps_id)
            "junction/choice must have at least one outgoing transition"
          :: acc
      | Terminate ->
        if n_out = 0 then acc
        else
          error "SM-09" (Some p.ps_id)
            "terminate pseudostate may not have outgoing transitions"
          :: acc
      | Deep_history | Shallow_history ->
        if n_out <= 1 then acc
        else
          error "SM-10" (Some p.ps_id)
            "history pseudostate has more than one default transition"
          :: acc
      | Entry_point | Exit_point -> acc)
  in
  List.fold_left check_vertex acc vertices

(* ------------------------------------------------------------------ *)
(* Activities                                                          *)

let check_activity (a : Activityg.t) acc =
  let open Activityg in
  let node_ids = Ident.Set.of_list (List.map node_id a.ac_nodes) in
  let acc =
    List.fold_left
      (fun acc e ->
        let acc =
          if Ident.Set.mem e.ed_source node_ids then acc
          else
            error "AC-01" (Some e.ed_id) "edge source %s not a node"
              e.ed_source
            :: acc
        in
        let acc =
          if Ident.Set.mem e.ed_target node_ids then acc
          else
            error "AC-01" (Some e.ed_id) "edge target %s not a node"
              e.ed_target
            :: acc
        in
        if e.ed_weight >= 1 then acc
        else
          error "AC-02" (Some e.ed_id) "edge weight must be positive (%d)"
            e.ed_weight
          :: acc)
      acc a.ac_edges
  in
  let check_node acc n =
    let id = node_id n in
    let n_in = List.length (incoming a id) in
    let n_out = List.length (outgoing a id) in
    match n with
    | Initial_node _ ->
      if n_in = 0 then acc
      else
        error "AC-03" (Some id) "initial node has incoming edges" :: acc
    | Activity_final _ | Flow_final _ ->
      if n_out = 0 then acc
      else error "AC-04" (Some id) "final node has outgoing edges" :: acc
    | Fork_node _ ->
      if n_in = 1 && n_out >= 1 then acc
      else
        error "AC-05" (Some id)
          "fork must have one incoming and at least one outgoing edge \
           (%d/%d)"
          n_in n_out
        :: acc
    | Join_node _ ->
      if n_in >= 1 && n_out = 1 then acc
      else
        error "AC-06" (Some id)
          "join must have at least one incoming and one outgoing edge \
           (%d/%d)"
          n_in n_out
        :: acc
    | Decision_node _ ->
      if n_in >= 1 && n_out >= 1 then acc
      else
        error "AC-07" (Some id)
          "decision must have incoming and outgoing edges (%d/%d)" n_in n_out
        :: acc
    | Merge_node _ ->
      if n_in >= 1 && n_out = 1 then acc
      else
        error "AC-08" (Some id)
          "merge must have at least one incoming and exactly one outgoing \
           edge (%d/%d)"
          n_in n_out
        :: acc
    | Object_node o -> (
      match o.on_upper_bound with
      | Some b when b < 1 ->
        error "AC-09" (Some id) "object node upper bound must be positive"
        :: acc
      | Some _ | None -> acc)
    | Action _ | Call_behavior _ | Send_signal _ | Accept_event _ -> acc
  in
  let acc = List.fold_left check_node acc a.ac_nodes in
  (* AC-10: nodes unreachable from any initial node never see a token *)
  let initials =
    List.filter_map
      (fun n ->
        match n with
        | Initial_node h -> Some h.nd_id
        | _other -> None)
      a.ac_nodes
  in
  if initials = [] then acc
  else begin
    let reached = Hashtbl.create 16 in
    let rec visit id =
      if not (Hashtbl.mem reached id) then begin
        Hashtbl.add reached id ();
        List.iter (fun e -> visit e.ed_target) (outgoing a id)
      end
    in
    List.iter visit initials;
    List.fold_left
      (fun acc n ->
        let id = node_id n in
        if Hashtbl.mem reached id then acc
        else
          warning "AC-10" (Some id) "node %s is unreachable from any initial node"
            (node_name n)
          :: acc)
      acc a.ac_nodes
  end

(* ------------------------------------------------------------------ *)
(* Interactions                                                        *)

let check_interaction (i : Interaction.t) acc =
  let open Interaction in
  let lifeline_ids =
    Ident.Set.of_list (List.map (fun l -> l.ll_id) i.in_lifelines)
  in
  let check_message acc (msg : message) =
    let acc =
      if Ident.Set.mem msg.msg_from lifeline_ids then acc
      else
        error "IN-01" (Some msg.msg_id) "message %s sent from unknown lifeline"
          msg.msg_name
        :: acc
    in
    if Ident.Set.mem msg.msg_to lifeline_ids then acc
    else
      error "IN-01" (Some msg.msg_id) "message %s sent to unknown lifeline"
        msg.msg_name
      :: acc
  in
  let rec check_elements acc elems = List.fold_left check_element acc elems
  and check_element acc = function
    | Message msg -> check_message acc msg
    | Fragment f ->
      let acc =
        match f.fr_operator with
        | Loop (min_iter, max_iter) ->
          let bad =
            min_iter < 0
            ||
            match max_iter with
            | Some u -> u < min_iter
            | None -> false
          in
          if bad then
            error "IN-02" (Some f.fr_id) "loop bounds out of order" :: acc
          else acc
        | Alt ->
          if f.fr_operands = [] then
            error "IN-03" (Some f.fr_id) "alt fragment without operands"
            :: acc
          else acc
        | Opt | Par | Strict | Seq | Break | Critical | Neg | Assert
        | Ignore _ | Consider _ ->
          acc
      in
      List.fold_left
        (fun acc o -> check_elements acc o.opnd_body)
        acc f.fr_operands
  in
  check_elements acc i.in_body

(* ------------------------------------------------------------------ *)
(* Use cases                                                           *)

let check_use_case m (uc : Usecase.t) acc =
  let id = uc.Usecase.uc_id in
  let acc =
    List.fold_left (check_elem_ref m id "UC-01" "include") acc
      uc.Usecase.uc_includes
  in
  let acc =
    List.fold_left
      (fun acc (e : Usecase.extend) ->
        check_elem_ref m id "UC-02" "extend" acc e.Usecase.ext_extended)
      acc uc.Usecase.uc_extends
  in
  let closure = Usecase.include_closure ~all:(Model.use_cases m) uc in
  if Ident.Set.mem id closure then
    error "UC-03" (Some id) "use case %s includes itself transitively"
      uc.Usecase.uc_name
    :: acc
  else acc

(* ------------------------------------------------------------------ *)
(* Components                                                          *)

let check_component m (c : Component.t) acc =
  let open Component in
  let id = c.cmp_id in
  let acc =
    List.fold_left
      (fun acc (p : port) ->
        let acc =
          List.fold_left (check_elem_ref m id "CO-01" "provided interface")
            acc p.port_provided
        in
        List.fold_left (check_elem_ref m id "CO-02" "required interface") acc
          p.port_required)
      acc c.cmp_ports
  in
  let acc =
    List.fold_left
      (fun acc (p : part) ->
        check_elem_ref m id "CO-03" "part type" acc p.part_type)
      acc c.cmp_parts
  in
  (* Connector ends must resolve: part (if any) is a part of this
     component, and the port belongs to the part's type (assembly) or to
     this component (delegation outer end). *)
  let part_by_id pid =
    List.find_opt (fun p -> Ident.equal p.part_id pid) c.cmp_parts
  in
  let own_port_ids = Ident.Set.of_list (List.map (fun p -> p.port_id) c.cmp_ports) in
  let port_of_type ty_id port_id =
    match Model.find_component m ty_id with
    | Some inner ->
      List.exists (fun p -> Ident.equal p.port_id port_id) inner.cmp_ports
    | None -> (
      (* a part may be typed by a plain class: accept any port then *)
      match Model.find_classifier m ty_id with
      | Some _cl -> true
      | None -> false)
  in
  let check_end acc (conn : connector) (e : connector_end) =
    match e.cend_part with
    | None ->
      if Ident.Set.mem e.cend_port own_port_ids then acc
      else
        error "CO-04" (Some conn.conn_id)
          "connector end references port %s not owned by component %s"
          e.cend_port c.cmp_name
        :: acc
    | Some pid -> (
      match part_by_id pid with
      | None ->
        error "CO-05" (Some conn.conn_id)
          "connector end references unknown part %s" pid
        :: acc
      | Some p ->
        if port_of_type p.part_type e.cend_port then acc
        else
          error "CO-06" (Some conn.conn_id)
            "connector end references port %s not offered by part %s"
            e.cend_port p.part_name
          :: acc)
  in
  let acc =
    List.fold_left
      (fun acc conn ->
        let acc =
          if List.length conn.conn_ends = 2 then acc
          else
            error "CO-07" (Some conn.conn_id)
              "connector must have exactly two ends"
            :: acc
        in
        List.fold_left (fun acc e -> check_end acc conn e) acc conn.conn_ends)
      acc c.cmp_connectors
  in
  List.fold_left (check_elem_ref m id "CO-08" "realization") acc
    c.cmp_realizations

(* ------------------------------------------------------------------ *)
(* Instances                                                           *)

let check_instance m (i : Instance.t) acc =
  match i.Instance.inst_classifier with
  | None -> acc
  | Some cid -> (
    match Model.find_classifier m cid with
    | None ->
      error "OB-01" (Some i.Instance.inst_id)
        "instance %s typed by unresolved classifier %s" i.Instance.inst_name
        cid
      :: acc
    | Some cl ->
      if Instance.conforms_to i cl then acc
      else
        error "OB-02" (Some i.Instance.inst_id)
          "instance %s does not conform to classifier %s"
          i.Instance.inst_name cl.Classifier.cl_name
        :: acc)

(* ------------------------------------------------------------------ *)
(* Profile applications                                                *)

let metaclass_of_element = function
  | Model.E_classifier c -> (
    match c.Classifier.cl_kind with
    | Classifier.Interface -> Profile.M_interface
    | Classifier.Class | Classifier.Data_type | Classifier.Primitive_type
    | Classifier.Enumeration _ | Classifier.Signal | Classifier.Actor_kind ->
      Profile.M_class)
  | Model.E_component _ -> Profile.M_component
  | Model.E_package _ -> Profile.M_package
  | Model.E_state_machine _ -> Profile.M_state_machine
  | Model.E_activity _ -> Profile.M_activity
  | Model.E_deployment_node _ -> Profile.M_node
  | Model.E_artifact _ -> Profile.M_artifact
  | Model.E_association _ | Model.E_interaction _ | Model.E_use_case _
  | Model.E_instance _ | Model.E_link _ | Model.E_deployment _
  | Model.E_communication_path _ | Model.E_profile _ ->
    Profile.M_any

(* Stereotypes by id; where profiles share an id, the first in element
   order wins. *)
let stereotype_ids m =
  let tbl = Hashtbl.create 16 in
  let add (s : Profile.stereotype) =
    if not (Hashtbl.mem tbl s.Profile.ster_id) then
      Hashtbl.add tbl s.Profile.ster_id s
  in
  List.iter (fun p -> List.iter add p.Profile.prof_stereotypes)
    (Model.profiles m);
  tbl

let check_application m stereotypes features acc (app : Profile.application) =
  match Hashtbl.find_opt stereotypes app.Profile.app_stereotype with
  | None ->
    error "PR-01" (Some app.Profile.app_element)
      "application references unknown stereotype %s"
      app.Profile.app_stereotype
    :: acc
  | Some ster -> (
    let acc =
      (* declared tags only *)
      List.fold_left
        (fun acc (tag_name, _) ->
          let declared =
            List.exists
              (fun t -> t.Profile.tag_name = tag_name)
              ster.Profile.ster_tags
          in
          if declared then acc
          else
            error "PR-02" (Some app.Profile.app_element)
              "value for undeclared tag %s on stereotype %s" tag_name
              ster.Profile.ster_name
            :: acc)
        acc app.Profile.app_values
    in
    let target_metaclass =
      match Model.find m app.Profile.app_element with
      | Some e -> Some (metaclass_of_element e)
      | None -> Hashtbl.find_opt features app.Profile.app_element
    in
    match target_metaclass with
    | None ->
      error "PR-03" None "stereotype %s applied to unresolved element %s"
        ster.Profile.ster_name app.Profile.app_element
      :: acc
    | Some mc ->
      let ok =
        List.exists
          (fun ext -> Profile.equal_metaclass ext Profile.M_any
                      || Profile.equal_metaclass ext mc)
          ster.Profile.ster_extends
      in
      if ok then acc
      else
        error "PR-04" (Some app.Profile.app_element)
          "stereotype %s does not extend metaclass %s"
          ster.Profile.ster_name
          (Profile.metaclass_name mc)
        :: acc)

(* ------------------------------------------------------------------ *)
(* Diagrams                                                            *)

let check_diagram m acc (d : Diagram.t) =
  List.fold_left
    (fun acc id ->
      if Model.mem m id then acc
      else
        error "DG-01" (Some d.Diagram.dg_id)
          "diagram %s shows unresolved element %s" d.Diagram.dg_name id
        :: acc)
    acc d.Diagram.dg_elements

(* ------------------------------------------------------------------ *)

let check m =
  let acc = [] in
  let acc = check_model_namespace m acc in
  let per_element acc e =
    match e with
    | Model.E_classifier c ->
      let acc = check_classifier_refs m c acc in
      let acc = check_classifier_mults c acc in
      let acc = check_classifier_namespace c acc in
      check_generalization m c acc
    | Model.E_state_machine sm -> check_state_machine sm acc
    | Model.E_activity a -> check_activity a acc
    | Model.E_interaction i -> check_interaction i acc
    | Model.E_use_case uc -> check_use_case m uc acc
    | Model.E_component c -> check_component m c acc
    | Model.E_instance i -> check_instance m i acc
    | Model.E_package p ->
      let id = p.Pkg.pkg_id in
      let acc =
        List.fold_left (check_elem_ref m id "PK-01" "owned element") acc
          p.Pkg.pkg_owned
      in
      let acc =
        List.fold_left (check_elem_ref m id "PK-02" "subpackage") acc
          p.Pkg.pkg_subpackages
      in
      List.fold_left (check_elem_ref m id "PK-03" "import") acc
        p.Pkg.pkg_imports
    | Model.E_deployment d ->
      let id = d.Deployment.dep_id in
      let acc =
        check_elem_ref m id "DE-01" "artifact" acc d.Deployment.dep_artifact
      in
      check_elem_ref m id "DE-02" "deployment target" acc
        d.Deployment.dep_target
    | Model.E_association a ->
      if List.length a.Classifier.assoc_ends >= 2 then acc
      else
        error "AS-01" (Some a.Classifier.assoc_id)
          "association must have at least two ends"
        :: acc
    | Model.E_link l ->
      let e1, e2 = l.Instance.link_ends in
      let acc = check_elem_ref m l.Instance.link_id "LK-01" "link end" acc e1 in
      let acc = check_elem_ref m l.Instance.link_id "LK-01" "link end" acc e2 in
      (match l.Instance.link_association with
       | Some a -> check_elem_ref m l.Instance.link_id "LK-02" "association" acc a
       | None -> acc)
    | Model.E_deployment_node _ | Model.E_artifact _
    | Model.E_communication_path _ | Model.E_profile _ ->
      acc
  in
  let acc = Model.fold per_element acc m in
  let features = Model.feature_index m in
  let stereotypes = stereotype_ids m in
  let acc =
    List.fold_left
      (check_application m stereotypes features)
      acc (Model.applications m)
  in
  let acc = List.fold_left (check_diagram m) acc (Model.diagrams m) in
  List.rev acc

let errors ds = List.filter (fun d -> d.diag_severity = Error) ds
let warnings ds = List.filter (fun d -> d.diag_severity = Warning) ds
let is_valid m = errors (check m) = []

let severity_name = function
  | Error -> "error"
  | Warning -> "warning"

let to_string d =
  let where =
    match d.diag_element with
    | Some id -> Printf.sprintf " [%s]" (Ident.to_string id)
    | None -> ""
  in
  Printf.sprintf "%s(%s)%s: %s"
    (severity_name d.diag_severity)
    d.diag_rule where d.diag_message
