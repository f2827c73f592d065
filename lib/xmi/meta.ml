open Uml
open Schema
module Ac = Activityg
module Cl = Classifier
module Co = Component
module De = Deployment
module In = Interaction
module Is = Instance
module Pr = Profile
module Sm = Smachine
module Uc = Usecase

(* --- shapes shared by most records -------------------------------------- *)

let id get = field (Attr "xmi:id") Ident get
let name get = field (Attr "name") Str get
let ident n get = field (Attr n) Ident get
let opt_str n get = field (Attr n) (Opt Str) get
let opt_ident n get = field (Attr n) (Opt Ident) get
let refs tag get = field (Each (tag, Attr "ref")) (List Ident) get
let each tag ty get = field (Each (tag, Inline)) (List ty) get
let flag ?bits n get = field ~default:false ~omit:true ?bits (Attr n) Bool get
let tag spelling v = case (Some spelling) unit (fun () -> v)

(* --- enums: canonical inventory (binary tag = position) and spelling ---- *)

let visibility =
  enum "visibility"
    Cl.[ Public; Private; Protected; Package_visibility ]
    (function
      | Cl.Public -> "public" | Private -> "private"
      | Protected -> "protected" | Package_visibility -> "package")

let direction =
  enum "direction" Cl.[ In; Out; Inout; Return ] (function
    | Cl.In -> "in" | Out -> "out" | Inout -> "inout" | Return -> "return")

let aggregation =
  enum "aggregation" Cl.[ No_aggregation; Shared; Composite ] (function
    | Cl.No_aggregation -> "none" | Shared -> "shared"
    | Composite -> "composite")

let pseudostate_kind =
  enum "pseudostate kind"
    Sm.
      [ Initial; Deep_history; Shallow_history; Join; Fork; Junction; Choice;
        Entry_point; Exit_point; Terminate ]
    (function
      | Sm.Initial -> "initial" | Deep_history -> "deepHistory"
      | Shallow_history -> "shallowHistory" | Join -> "join" | Fork -> "fork"
      | Junction -> "junction" | Choice -> "choice"
      | Entry_point -> "entryPoint" | Exit_point -> "exitPoint"
      | Terminate -> "terminate")

let transition_kind =
  enum "transition kind" Sm.[ External; Internal; Local ] (function
    | Sm.External -> "external" | Internal -> "internal" | Local -> "local")

let edge_kind =
  enum ~xml_what:"edge type" "edge kind"
    Ac.[ Control_flow; Object_flow ]
    (function
      | Ac.Control_flow -> "ControlFlow" | Object_flow -> "ObjectFlow")

let message_sort =
  enum "message sort"
    In.
      [ Synch_call; Asynch_call; Asynch_signal; Reply; Create_message;
        Delete_message ]
    (function
      | In.Synch_call -> "synchCall" | Asynch_call -> "asynchCall"
      | Asynch_signal -> "asynchSignal" | Reply -> "reply"
      | Create_message -> "createMessage" | Delete_message -> "deleteMessage")

let connector_kind =
  enum "connector kind" Co.[ Assembly; Delegation ] (function
    | Co.Assembly -> "assembly" | Delegation -> "delegation")

let node_kind =
  enum "node kind" De.[ Node; Device; Execution_environment ] (function
    | De.Node -> "Node" | Device -> "Device"
    | Execution_environment -> "ExecutionEnvironment")

let metaclass =
  enum "metaclass"
    Pr.
      [ M_class; M_interface; M_component; M_port; M_property; M_operation;
        M_package; M_state_machine; M_state; M_transition; M_activity;
        M_action; M_node; M_artifact; M_connector; M_any ]
    Pr.metaclass_name

let diagram_kind =
  enum "diagram kind" Diagram.all_kinds (function
    | Diagram.Class_diagram -> "class" | Object_diagram -> "object"
    | Package_diagram -> "package"
    | Composite_structure_diagram -> "compositeStructure"
    | Component_diagram -> "component" | Deployment_diagram -> "deployment"
    | Use_case_diagram -> "useCase" | Activity_diagram -> "activity"
    | State_machine_diagram -> "stateMachine" | Sequence_diagram -> "sequence"
    | Communication_diagram -> "communication"
    | Interaction_overview_diagram -> "interactionOverview"
    | Timing_diagram -> "timing")

(* --- values, types, multiplicities -------------------------------------- *)

let float_text r =
  let s = string_of_float r in
  let exact = Int64.bits_of_float (float_of_string s) = Int64.bits_of_float r in
  if exact then s else Printf.sprintf "%.17g" r

let vspec =
  let c_int = case (Some "int") Int (fun i -> Vspec.Int_literal i)
  and c_real = case (Some "real") Float (fun r -> Vspec.Real_literal r)
  and c_bool = case (Some "bool") Bool (fun b -> Vspec.Bool_literal b)
  and c_string = case (Some "string") Str (fun s -> Vspec.String_literal s)
  and c_enum = case (Some "enum") Str (fun s -> Vspec.Enum_literal s)
  and c_null = tag "null" Vspec.Null_literal
  and c_opaque =
    case (Some "opaque") Str (fun s -> Vspec.Opaque_expression s) in
  variant "value"
    (Kind_pair (Printf.sprintf "missing %s payload for kind %s"))
    "unknown value kind %s"
    [ Any c_int; Any c_real; Any c_bool; Any c_string; Any c_enum; Any c_null;
      Any c_opaque ]
    (function
      | Vspec.Int_literal i -> V (c_int, i) | Real_literal r -> V (c_real, r)
      | Bool_literal b -> V (c_bool, b) | String_literal s -> V (c_string, s)
      | Enum_literal s -> V (c_enum, s) | Null_literal -> V (c_null, ())
      | Opaque_expression s -> V (c_opaque, s))

(* [Void] is written as no attributes at all *)
let dtype =
  let c_boolean = tag "Boolean" Dtype.Boolean
  and c_integer = tag "Integer" Dtype.Integer
  and c_real = tag "Real" Dtype.Real
  and c_unlimited = tag "UnlimitedNatural" Dtype.Unlimited_natural
  and c_string = tag "String" Dtype.String_type
  and c_void = case None unit (fun () -> Dtype.Void)
  and c_ref = case (Some "ref") Ident (fun id -> Dtype.Ref id) in
  variant "type"
    (Kind_pair (fun _ _ -> "type ref without target"))
    "unknown type kind %s"
    [ Any c_boolean; Any c_integer; Any c_real; Any c_unlimited; Any c_string;
      Any c_void; Any c_ref ]
    (function
      | Dtype.Boolean -> V (c_boolean, ()) | Integer -> V (c_integer, ())
      | Real -> V (c_real, ()) | Unlimited_natural -> V (c_unlimited, ())
      | String_type -> V (c_string, ()) | Void -> V (c_void, ())
      | Ref id -> V (c_ref, id))

(* XMI: [lower] and [upper] ("*" when unbounded) with their own
   diagnostics, and 1..1 when either is missing *)
let mult =
  let c_bounded = case None Int (fun n -> Mult.Bounded n)
  and c_unbounded = case None unit (fun () -> Mult.Unbounded) in
  let bound =
    variant "multiplicity bound" By_tag "unknown multiplicity bound <%s>"
      [ Any c_bounded; Any c_unbounded ]
      (function
        | Mult.Bounded n -> V (c_bounded, n) | Unbounded -> V (c_unbounded, ()))
  in
  let int_of what s =
    match int_of_string_opt s with
    | Some i -> i | None -> decode_error "bad multiplicity %s %s" what s
  in
  custom
    ~wire:
      (record "multiplicity"
         (fun lower upper -> { Mult.lower; upper })
         [ field Inline Int (fun m -> m.Mult.lower);
           field Inline bound (fun m -> m.Mult.upper) ])
    ~xml:(pair (Attr "lower") (Opt Str) (Attr "upper") (Opt Str))
    (fun { Mult.lower; upper } -> let upper =
        match upper with Mult.Bounded n -> string_of_int n | Unbounded -> "*"
      in
      (Some (string_of_int lower), Some upper))
    (function
      | Some lo, Some "*" ->
        { Mult.lower = int_of "lower" lo; upper = Unbounded }
      | Some lo, Some up -> let lower = int_of "lower" lo in
        { Mult.lower; upper = Bounded (int_of "upper" up) }
      | _missing1, _missing2 -> Mult.one)

(* --- classifiers -------------------------------------------------------- *)

(* The hot records (properties, parameters, operations, classifiers: the
   bulk of every structural model) pack their enum tags, booleans and
   option/common-case markers into one flags byte instead of one byte
   per field: record decode is call-bound, not byte-bound. *)

let property =
  record "property"
    (fun prop_id prop_name prop_type prop_mult prop_default prop_visibility
         prop_is_static prop_is_read_only prop_aggregation ->
      { Cl.prop_id; prop_name; prop_type; prop_mult; prop_default;
        prop_visibility; prop_is_static; prop_is_read_only; prop_aggregation })
    [ id (fun p -> p.Cl.prop_id); name (fun p -> p.Cl.prop_name);
      field (Attr "type") dtype (fun p -> p.Cl.prop_type);
      field ~bits:(Unless (7, Mult.one)) Inline mult (fun p -> p.Cl.prop_mult);
      field ~bits:(Present 6) (Attr "default") (Opt vspec) (fun p ->
          p.Cl.prop_default);
      field ~default:Cl.Public ~bits:(Index (0, 2)) (Attr "visibility")
        visibility (fun p -> p.Cl.prop_visibility);
      flag ~bits:(Bit 2) "isStatic" (fun p -> p.Cl.prop_is_static);
      flag ~bits:(Bit 3) "isReadOnly" (fun p -> p.Cl.prop_is_read_only);
      field ~default:Cl.No_aggregation ~omit:true ~bits:(Index (4, 2))
        (Attr "aggregation") aggregation (fun p -> p.Cl.prop_aggregation)
    ]

let parameter =
  record "parameter"
    (fun param_id param_name param_type param_direction param_default ->
      { Cl.param_id; param_name; param_type; param_direction;
        param_default })
    [ id (fun p -> p.Cl.param_id); name (fun p -> p.Cl.param_name);
      field (Attr "type") dtype (fun p -> p.Cl.param_type);
      field ~default:Cl.In ~bits:(Index (0, 2)) (Attr "direction")
        direction (fun p -> p.Cl.param_direction);
      field ~bits:(Present 2) (Attr "default") (Opt vspec) (fun p ->
          p.Cl.param_default) ]

let operation =
  record "operation"
    (fun op_id op_name op_params op_visibility op_is_query op_is_abstract
         op_body ->
      { Cl.op_id; op_name; op_params; op_visibility; op_is_query;
        op_is_abstract; op_body })
    [ id (fun o -> o.Cl.op_id); name (fun o -> o.Cl.op_name);
      each "ownedParameter" parameter (fun o -> o.Cl.op_params);
      field ~default:Cl.Public ~bits:(Index (0, 2)) (Attr "visibility")
        visibility (fun o -> o.Cl.op_visibility);
      flag ~bits:(Bit 2) "isQuery" (fun o -> o.Cl.op_is_query);
      flag ~bits:(Bit 3) "isAbstract" (fun o -> o.Cl.op_is_abstract);
      field ~bits:(Present 4) (Attr "body") (Opt Str) (fun o -> o.Cl.op_body) ]

let reception =
  record "reception"
    (fun recv_id recv_signal -> { Cl.recv_id; recv_signal })
    [ id (fun r -> r.Cl.recv_id); ident "signal" (fun r -> r.Cl.recv_signal) ]

let classifier_kind =
  let c_class = tag "Class" Cl.Class
  and c_interface = tag "Interface" Cl.Interface
  and c_data_type = tag "DataType" Cl.Data_type
  and c_primitive = tag "PrimitiveType" Cl.Primitive_type
  and c_enumeration =
    case ~at:(Each ("ownedLiteral", Attr "name")) (Some "Enumeration")
      (List Str) (fun lits -> Cl.Enumeration lits)
  and c_signal = tag "Signal" Cl.Signal
  and c_actor = tag "Actor" Cl.Actor_kind in
  variant "classifier kind" By_xmi_type "unknown classifier kind %s"
    [ Any c_class; Any c_interface; Any c_data_type; Any c_primitive;
      Any c_enumeration; Any c_signal; Any c_actor ]
    (function
      | Cl.Class -> V (c_class, ()) | Interface -> V (c_interface, ())
      | Data_type -> V (c_data_type, ()) | Primitive_type -> V (c_primitive, ())
      | Enumeration lits -> V (c_enumeration, lits) | Signal -> V (c_signal, ())
      | Actor_kind -> V (c_actor, ()))

let classifier =
  record "classifier"
    (fun cl_id cl_name cl_kind cl_is_abstract cl_is_active cl_attributes
         cl_operations cl_receptions cl_generals cl_realized cl_behaviors ->
      { Cl.cl_id; cl_name; cl_kind; cl_is_abstract; cl_is_active;
        cl_attributes; cl_operations; cl_receptions; cl_generals; cl_realized;
        cl_behaviors })
    [ id (fun c -> c.Cl.cl_id); name (fun c -> c.Cl.cl_name);
      field ~bits:(Index (0, 3)) Xmi_type classifier_kind (fun c ->
          c.Cl.cl_kind);
      flag ~bits:(Bit 3) "isAbstract" (fun c -> c.Cl.cl_is_abstract);
      flag ~bits:(Bit 4) "isActive" (fun c -> c.Cl.cl_is_active);
      each "ownedAttribute" property (fun c -> c.Cl.cl_attributes);
      each "ownedOperation" operation (fun c -> c.Cl.cl_operations);
      each "ownedReception" reception (fun c -> c.Cl.cl_receptions);
      refs "generalization" (fun c -> c.Cl.cl_generals);
      refs "interfaceRealization" (fun c -> c.Cl.cl_realized);
      refs "ownedBehavior" (fun c -> c.Cl.cl_behaviors) ]

let association =
  let association_end =
    record "association end"
      (fun end_property end_navigable -> { Cl.end_property; end_navigable })
      [ field (Child "endProperty") property (fun e -> e.Cl.end_property);
        flag "navigable" (fun e -> e.Cl.end_navigable) ]
  in
  record "association"
    (fun assoc_id assoc_name assoc_ends ->
      { Cl.assoc_id; assoc_name; assoc_ends })
    [ id (fun a -> a.Cl.assoc_id); name (fun a -> a.Cl.assoc_name);
      each "memberEnd" association_end (fun a -> a.Cl.assoc_ends) ]

let package =
  record "package"
    (fun pkg_id pkg_name pkg_owned pkg_subpackages pkg_imports ->
      { Pkg.pkg_id; pkg_name; pkg_owned; pkg_subpackages; pkg_imports })
    [ id (fun p -> p.Pkg.pkg_id); name (fun p -> p.Pkg.pkg_name);
      refs "ownedMember" (fun p -> p.Pkg.pkg_owned);
      refs "nestedPackage" (fun p -> p.Pkg.pkg_subpackages);
      refs "packageImport" (fun p -> p.Pkg.pkg_imports) ]

(* --- state machines ----------------------------------------------------- *)

let trigger =
  let c_signal =
    case ~at:(Attr "event") (Some "signal") Str (fun n -> Sm.Signal_trigger n)
  and c_time =
    case ~at:(Attr "after") (Some "time") Int (fun d -> Sm.Time_trigger d)
  and c_any = tag "any" Sm.Any_trigger
  and c_completion = tag "completion" Sm.Completion in
  variant "trigger" (By_attr "kind") "unknown trigger kind %s"
    [ Any c_signal; Any c_time; Any c_any; Any c_completion ]
    (function
      | Sm.Signal_trigger n -> V (c_signal, n) | Time_trigger d -> V (c_time, d)
      | Any_trigger -> V (c_any, ()) | Completion -> V (c_completion, ()))

(* XMI wraps each deferred trigger in its own [<deferrableTrigger>] and
   reads back every trigger of every wrapper *)
let deferred_triggers =
  custom ~wire:(List trigger) ~xml:(List (List trigger))
    (List.map (fun t -> Stdlib.List.[ t ]))
    List.concat

let transition =
  record ~xmi_order:[ 0; 1; 2; 6; 3; 4; 5 ] "transition"
    (fun tr_id tr_source tr_target tr_triggers tr_guard tr_effect tr_kind ->
      { Sm.tr_id; tr_source; tr_target; tr_triggers; tr_guard; tr_effect;
        tr_kind })
    [ id (fun t -> t.Sm.tr_id); ident "source" (fun t -> t.Sm.tr_source);
      ident "target" (fun t -> t.Sm.tr_target);
      each "trigger" trigger (fun t -> t.Sm.tr_triggers);
      opt_str "guard" (fun t -> t.Sm.tr_guard);
      opt_str "effect" (fun t -> t.Sm.tr_effect);
      field ~default:Sm.External (Attr "kind") transition_kind (fun t ->
          t.Sm.tr_kind) ]

let region =
  fix (fun region -> let state =
        record ~xmi_order:[ 0; 1; 6; 2; 3; 4; 5 ] "state"
          (fun st_id st_name st_regions st_entry st_exit st_do st_deferred ->
            { Sm.st_id; st_name; st_regions; st_entry; st_exit; st_do;
              st_deferred })
          [ id (fun s -> s.Sm.st_id); name (fun s -> s.Sm.st_name);
            each "region" region (fun s -> s.Sm.st_regions);
            opt_str "entry" (fun s -> s.Sm.st_entry);
            opt_str "exit" (fun s -> s.Sm.st_exit);
            opt_str "doActivity" (fun s -> s.Sm.st_do);
            field (Each ("deferrableTrigger", Each ("trigger", Inline)))
              deferred_triggers (fun s -> s.Sm.st_deferred) ]
      and pseudostate =
        record "pseudostate"
          (fun ps_id ps_name ps_kind -> { Sm.ps_id; ps_name; ps_kind })
          [ id (fun p -> p.Sm.ps_id); name (fun p -> p.Sm.ps_name);
            field (Attr "kind") pseudostate_kind (fun p -> p.Sm.ps_kind) ]
      and final =
        record "final state"
          (fun fs_id fs_name -> { Sm.fs_id; fs_name })
          [ id (fun f -> f.Sm.fs_id); name (fun f -> f.Sm.fs_name) ]
      in
      let c_state = case (Some "State") state (fun s -> Sm.State s)
      and c_pseudo =
        case (Some "Pseudostate") pseudostate (fun p -> Sm.Pseudo p)
      and c_final = case (Some "FinalState") final (fun f -> Sm.Final f) in
      let vertex =
        variant "vertex" By_xmi_type "unknown vertex type %s"
          [ Any c_state; Any c_pseudo; Any c_final ]
          (function
            | Sm.State s -> V (c_state, s) | Pseudo p -> V (c_pseudo, p)
            | Final f -> V (c_final, f))
      in
      record "region"
        (fun rg_id rg_name rg_vertices rg_transitions ->
          { Sm.rg_id; rg_name; rg_vertices; rg_transitions })
        [ id (fun r -> r.Sm.rg_id); name (fun r -> r.Sm.rg_name);
          each "subvertex" vertex (fun r -> r.Sm.rg_vertices);
          each "transition" transition (fun r -> r.Sm.rg_transitions) ])

let state_machine =
  record "state machine"
    (fun sm_id sm_name sm_regions sm_context ->
      { Sm.sm_id; sm_name; sm_regions; sm_context })
    [ id (fun s -> s.Sm.sm_id); name (fun s -> s.Sm.sm_name);
      each "region" region (fun s -> s.Sm.sm_regions);
      opt_ident "context" (fun s -> s.Sm.sm_context) ]

(* --- activities --------------------------------------------------------- *)

let node_head =
  record "node head"
    (fun nd_id nd_name -> { Ac.nd_id; nd_name })
    [ id (fun h -> h.Ac.nd_id); name (fun h -> h.Ac.nd_name) ]

let head get = field Inline node_head get

let activity_node =
  let action =
    record "action"
      (fun act_head act_body -> { Ac.act_head; act_body })
      [ head (fun a -> a.Ac.act_head); opt_str "body" (fun a -> a.Ac.act_body) ]
  and call_behavior =
    record "call behavior"
      (fun cb_head cb_behavior -> { Ac.cb_head; cb_behavior })
      [ head (fun c -> c.Ac.cb_head);
        ident "behavior" (fun c -> c.Ac.cb_behavior) ]
  and event_action =
    record "event action"
      (fun ev_head ev_event -> { Ac.ev_head; ev_event })
      [ head (fun e -> e.Ac.ev_head);
        field (Attr "event") Str (fun e -> e.Ac.ev_event) ]
  and object_node =
    record "object node"
      (fun on_head on_type on_upper_bound ->
        { Ac.on_head; on_type; on_upper_bound })
      [ head (fun o -> o.Ac.on_head);
        field (Attr "type") dtype (fun o -> o.Ac.on_type);
        field (Attr "upperBound") (Opt Int) (fun o -> o.Ac.on_upper_bound)
      ]
  in
  let node spelling payload inj = case (Some spelling) payload inj in
  let c_action = node "OpaqueAction" action (fun a -> Ac.Action a)
  and c_call =
    node "CallBehaviorAction" call_behavior (fun c -> Ac.Call_behavior c)
  and c_send =
    node "SendSignalAction" event_action (fun e -> Ac.Send_signal e)
  and c_accept =
    node "AcceptEventAction" event_action (fun e -> Ac.Accept_event e)
  and c_object =
    node "CentralBufferNode" object_node (fun o -> Ac.Object_node o)
  and c_initial = node "InitialNode" node_head (fun h -> Ac.Initial_node h)
  and c_final =
    node "ActivityFinalNode" node_head (fun h -> Ac.Activity_final h)
  and c_flow_final = node "FlowFinalNode" node_head (fun h -> Ac.Flow_final h)
  and c_fork = node "ForkNode" node_head (fun h -> Ac.Fork_node h)
  and c_join = node "JoinNode" node_head (fun h -> Ac.Join_node h)
  and c_decision =
    node "DecisionNode" node_head (fun h -> Ac.Decision_node h)
  and c_merge = node "MergeNode" node_head (fun h -> Ac.Merge_node h) in
  variant "activity node" By_xmi_type "unknown activity node type %s"
    [ Any c_action; Any c_call; Any c_send; Any c_accept; Any c_object;
      Any c_initial; Any c_final; Any c_flow_final; Any c_fork; Any c_join;
      Any c_decision; Any c_merge ]
    (function
      | Ac.Action a -> V (c_action, a) | Call_behavior c -> V (c_call, c)
      | Send_signal e -> V (c_send, e) | Accept_event e -> V (c_accept, e)
      | Object_node o -> V (c_object, o) | Initial_node h -> V (c_initial, h)
      | Activity_final h -> V (c_final, h) | Flow_final h -> V (c_flow_final, h)
      | Fork_node h -> V (c_fork, h) | Join_node h -> V (c_join, h)
      | Decision_node h -> V (c_decision, h) | Merge_node h -> V (c_merge, h))

let activity_edge =
  record ~xmi_order:[ 0; 1; 2; 4; 3; 5 ] "edge"
    (fun ed_id ed_source ed_target ed_guard ed_weight ed_kind ->
      { Ac.ed_id; ed_source; ed_target; ed_guard; ed_weight; ed_kind })
    [ id (fun e -> e.Ac.ed_id); ident "source" (fun e -> e.Ac.ed_source);
      ident "target" (fun e -> e.Ac.ed_target);
      opt_str "guard" (fun e -> e.Ac.ed_guard);
      field ~default:1 (Attr "weight") Int (fun e -> e.Ac.ed_weight);
      field Xmi_type edge_kind (fun e -> e.Ac.ed_kind) ]

let activity =
  record "activity"
    (fun ac_id ac_name ac_nodes ac_edges ac_context ->
      { Ac.ac_id; ac_name; ac_nodes; ac_edges; ac_context })
    [ id (fun a -> a.Ac.ac_id); name (fun a -> a.Ac.ac_name);
      each "node" activity_node (fun a -> a.Ac.ac_nodes);
      each "edge" activity_edge (fun a -> a.Ac.ac_edges);
      opt_ident "context" (fun a -> a.Ac.ac_context) ]

(* --- interactions ------------------------------------------------------- *)

(* The [messages] attribute of [ignore]/[consider]: names joined with
   ',', each '\\' and ',' escaped by a backslash; the list holding one
   empty name is the lone text "\\".  On read, a backslash before any
   other character is kept as written. *)
let message_names_text (names : string list) =
  match names with
  | [ "" ] -> "\\" | names -> let escape s =
      let b = Buffer.create (String.length s) in
      String.iter
        (fun c -> if c = ',' || c = '\\' then Buffer.add_char b '\\';
          Buffer.add_char b c)
        s;
      Buffer.contents b
    in
    String.concat "," (List.map escape names)

let message_names_of_text s : string list =
  match s with
  | "" -> [] | "\\" -> [ "" ]
  | s -> let n = String.length s and b = Buffer.create (String.length s) in
    let rec go i (acc : string list) =
      if i >= n then List.rev (Buffer.contents b :: acc)
      else
        match s.[i] with
        | '\\' when i + 1 < n && (s.[i + 1] = ',' || s.[i + 1] = '\\') ->
          Buffer.add_char b s.[i + 1];
          go (i + 2) acc
        | ',' -> let name = Buffer.contents b in
          Buffer.clear b;
          go (i + 1) (name :: acc)
        | c -> Buffer.add_char b c;
          go (i + 1) acc
    in
    go 0 []

(* always written; optional on read, absent meaning none *)
let message_names =
  custom ~wire:(List Str) ~xml:(Opt Str)
    (fun names -> Some (message_names_text names))
    (function None -> [] | Some s -> message_names_of_text s)

let operator =
  let names spelling inj =
    case ~at:(Attr "messages") (Some spelling) message_names inj
  in
  let c_alt = tag "alt" In.Alt
  and c_opt = tag "opt" In.Opt
  and c_loop =
    case (Some "loop")
      (pair (Attr "minint") Int (Attr "maxint") (Opt Int))
      (fun (mn, mx) -> In.Loop (mn, mx))
  and c_par = tag "par" In.Par
  and c_strict = tag "strict" In.Strict
  and c_seq = tag "seq" In.Seq
  and c_break = tag "break" In.Break
  and c_critical = tag "critical" In.Critical
  and c_neg = tag "neg" In.Neg
  and c_assert = tag "assert" In.Assert
  and c_ignore = names "ignore" (fun l -> In.Ignore l)
  and c_consider = names "consider" (fun l -> In.Consider l) in
  variant "interaction operator" (By_attr "operator")
    "unknown interaction operator %s"
    [ Any c_alt; Any c_opt; Any c_loop; Any c_par; Any c_strict; Any c_seq;
      Any c_break; Any c_critical; Any c_neg; Any c_assert; Any c_ignore;
      Any c_consider ]
    (function
      | In.Alt -> V (c_alt, ()) | Opt -> V (c_opt, ())
      | Loop (mn, mx) -> V (c_loop, (mn, mx)) | Par -> V (c_par, ())
      | Strict -> V (c_strict, ()) | Seq -> V (c_seq, ())
      | Break -> V (c_break, ()) | Critical -> V (c_critical, ())
      | Neg -> V (c_neg, ()) | Assert -> V (c_assert, ())
      | Ignore l -> V (c_ignore, l) | Consider l -> V (c_consider, l))

let message =
  record "message"
    (fun msg_id msg_name msg_sort msg_from msg_to msg_arguments ->
      { In.msg_id; msg_name; msg_sort; msg_from; msg_to; msg_arguments })
    [ id (fun m -> m.In.msg_id); name (fun m -> m.In.msg_name);
      field (Attr "sort") message_sort (fun m -> m.In.msg_sort);
      ident "from" (fun m -> m.In.msg_from); ident "to" (fun m -> m.In.msg_to);
      field (Each ("argument", Attr "value")) (List vspec) (fun m ->
          m.In.msg_arguments) ]

let interaction_element =
  fix (fun element -> let operand =
        record "operand"
          (fun opnd_id opnd_guard opnd_body ->
            { In.opnd_id; opnd_guard; opnd_body })
          [ id (fun o -> o.In.opnd_id);
            opt_str "guard" (fun o -> o.In.opnd_guard);
            field (Tagged true) (List element) (fun o -> o.In.opnd_body) ]
      in
      let fragment =
        record "fragment"
          (fun fr_id fr_operator fr_operands ->
            { In.fr_id; fr_operator; fr_operands })
          [ id (fun f -> f.In.fr_id);
            field Inline operator (fun f -> f.In.fr_operator);
            each "operand" operand (fun f -> f.In.fr_operands) ]
      in
      let c_message = case (Some "message") message (fun m -> In.Message m)
      and c_fragment =
        case (Some "fragment") fragment (fun f -> In.Fragment f)
      in
      variant "interaction element" By_tag "unknown interaction element <%s>"
        [ Any c_message; Any c_fragment ]
        (function
          | In.Message m -> V (c_message, m) | Fragment f -> V (c_fragment, f)))

let interaction =
  let lifeline =
    record "lifeline"
      (fun ll_id ll_name ll_represents -> { In.ll_id; ll_name; ll_represents })
      [ id (fun l -> l.In.ll_id); name (fun l -> l.In.ll_name);
        opt_ident "represents" (fun l -> l.In.ll_represents) ]
  in
  record "interaction"
    (fun in_id in_name in_lifelines in_body ->
      { In.in_id; in_name; in_lifelines; in_body })
    [ id (fun i -> i.In.in_id); name (fun i -> i.In.in_name);
      each "lifeline" lifeline (fun i -> i.In.in_lifelines);
      field (Tagged false) (List interaction_element) (fun i -> i.In.in_body) ]

(* --- use cases, components, instances ----------------------------------- *)

let use_case =
  let extend =
    record "extend"
      (fun ext_extended ext_condition -> { Uc.ext_extended; ext_condition })
      [ ident "extendedCase" (fun x -> x.Uc.ext_extended);
        opt_str "condition" (fun x -> x.Uc.ext_condition) ]
  in
  record "use case"
    (fun uc_id uc_name uc_subject uc_actors uc_includes uc_extends ->
      { Uc.uc_id; uc_name; uc_subject; uc_actors; uc_includes; uc_extends })
    [ id (fun u -> u.Uc.uc_id); name (fun u -> u.Uc.uc_name);
      opt_ident "subject" (fun u -> u.Uc.uc_subject);
      refs "actorRef" (fun u -> u.Uc.uc_actors);
      refs "include" (fun u -> u.Uc.uc_includes);
      each "extend" extend (fun u -> u.Uc.uc_extends) ]

let component =
  let port =
    record "port"
      (fun port_id port_name port_provided port_required port_is_behavior ->
        { Co.port_id; port_name; port_provided; port_required;
          port_is_behavior })
      [ id (fun p -> p.Co.port_id); name (fun p -> p.Co.port_name);
        refs "provided" (fun p -> p.Co.port_provided);
        refs "required" (fun p -> p.Co.port_required);
        flag "isBehavior" (fun p -> p.Co.port_is_behavior) ]
  and part =
    record "part"
      (fun part_id part_name part_type part_mult ->
        { Co.part_id; part_name; part_type; part_mult })
      [ id (fun p -> p.Co.part_id); name (fun p -> p.Co.part_name);
        ident "type" (fun p -> p.Co.part_type);
        field Inline mult (fun p -> p.Co.part_mult) ]
  and connector_end =
    record ~xmi_order:[ 1; 0 ] "connector end"
      (fun cend_part cend_port -> { Co.cend_part; cend_port })
      [ opt_ident "part" (fun e -> e.Co.cend_part);
        ident "port" (fun e -> e.Co.cend_port) ]
  in
  let connector =
    record "connector"
      (fun conn_id conn_name conn_kind conn_ends ->
        { Co.conn_id; conn_name; conn_kind; conn_ends })
      [ id (fun c -> c.Co.conn_id); name (fun c -> c.Co.conn_name);
        field (Attr "kind") connector_kind (fun c -> c.Co.conn_kind);
        each "end" connector_end (fun c -> c.Co.conn_ends) ]
  in
  record "component"
    (fun cmp_id cmp_name cmp_ports cmp_parts cmp_connectors cmp_realizations
         cmp_behaviors ->
      { Co.cmp_id; cmp_name; cmp_ports; cmp_parts; cmp_connectors;
        cmp_realizations; cmp_behaviors })
    [ id (fun c -> c.Co.cmp_id); name (fun c -> c.Co.cmp_name);
      each "ownedPort" port (fun c -> c.Co.cmp_ports);
      each "ownedPart" part (fun c -> c.Co.cmp_parts);
      each "ownedConnector" connector (fun c -> c.Co.cmp_connectors);
      refs "realization" (fun c -> c.Co.cmp_realizations);
      refs "ownedBehavior" (fun c -> c.Co.cmp_behaviors) ]

let instance =
  let slot =
    record "slot"
      (fun slot_feature slot_values -> { Is.slot_feature; slot_values })
      [ field (Attr "feature") Str (fun s -> s.Is.slot_feature);
        field (Each ("value", Attr "value")) (List vspec) (fun s ->
            s.Is.slot_values) ]
  in
  record "instance"
    (fun inst_id inst_name inst_classifier inst_slots ->
      { Is.inst_id; inst_name; inst_classifier; inst_slots })
    [ id (fun i -> i.Is.inst_id); name (fun i -> i.Is.inst_name);
      opt_ident "classifier" (fun i -> i.Is.inst_classifier);
      each "slot" slot (fun i -> i.Is.inst_slots) ]

let ends get = field Inline (pair (Attr "end1") Ident (Attr "end2") Ident) get

let link =
  record ~xmi_order:[ 0; 2; 1 ] "link"
    (fun link_id link_association link_ends ->
      { Is.link_id; link_association; link_ends })
    [ id (fun l -> l.Is.link_id);
      opt_ident "association" (fun l -> l.Is.link_association);
      ends (fun l -> l.Is.link_ends) ]

(* --- deployments, profiles, diagrams ------------------------------------ *)

let deployment_node =
  record "deployment node"
    (fun dn_id dn_name dn_kind dn_nested ->
      { De.dn_id; dn_name; dn_kind; dn_nested })
    [ id (fun n -> n.De.dn_id); name (fun n -> n.De.dn_name);
      field Xmi_type node_kind (fun n -> n.De.dn_kind);
      refs "nestedNode" (fun n -> n.De.dn_nested) ]

let artifact =
  record "artifact"
    (fun art_id art_name art_manifests ->
      { De.art_id; art_name; art_manifests })
    [ id (fun a -> a.De.art_id); name (fun a -> a.De.art_name);
      refs "manifestation" (fun a -> a.De.art_manifests) ]

let deployment =
  record "deployment"
    (fun dep_id dep_artifact dep_target ->
      { De.dep_id; dep_artifact; dep_target })
    [ id (fun d -> d.De.dep_id); ident "artifact" (fun d -> d.De.dep_artifact);
      ident "target" (fun d -> d.De.dep_target) ]

let communication_path =
  record "communication path"
    (fun cpath_id cpath_ends -> { De.cpath_id; cpath_ends })
    [ id (fun c -> c.De.cpath_id); ends (fun c -> c.De.cpath_ends) ]

let profile =
  let tag_definition =
    record "tag definition"
      (fun tag_name tag_type tag_default ->
        { Pr.tag_name; tag_type; tag_default })
      [ field (Attr "name") Str (fun t -> t.Pr.tag_name);
        field (Attr "type") dtype (fun t -> t.Pr.tag_type);
        field (Attr "default") (Opt vspec) (fun t -> t.Pr.tag_default) ]
  in
  let stereotype =
    record "stereotype"
      (fun ster_id ster_name ster_extends ster_tags ->
        { Pr.ster_id; ster_name; ster_extends; ster_tags })
      [ id (fun s -> s.Pr.ster_id); name (fun s -> s.Pr.ster_name);
        field (Each ("extension", Attr "metaclass")) (List metaclass) (fun s ->
            s.Pr.ster_extends);
        each "tagDefinition" tag_definition (fun s -> s.Pr.ster_tags) ]
  in
  record "profile"
    (fun prof_id prof_name prof_stereotypes ->
      { Pr.prof_id; prof_name; prof_stereotypes })
    [ id (fun p -> p.Pr.prof_id); name (fun p -> p.Pr.prof_name);
      each "ownedStereotype" stereotype (fun p -> p.Pr.prof_stereotypes) ]

let application =
  record "application"
    (fun app_element app_stereotype app_values ->
      { Pr.app_element; app_stereotype; app_values })
    [ ident "element" (fun a -> a.Pr.app_element);
      ident "stereotype" (fun a -> a.Pr.app_stereotype);
      each "tagValue" (pair (Attr "name") Str (Attr "value") vspec) (fun a ->
          a.Pr.app_values) ]

let diagram =
  record "diagram"
    (fun dg_id dg_name dg_kind dg_elements ->
      { Diagram.dg_id; dg_name; dg_kind; dg_elements })
    [ id (fun d -> d.Diagram.dg_id); name (fun d -> d.Diagram.dg_name);
      field (Attr "kind") diagram_kind (fun d -> d.Diagram.dg_kind);
      refs "elementRef" (fun d -> d.Diagram.dg_elements) ]

(* Classifiers and deployment nodes spell their own [xmi:type] (their
   kind); every other element kind has one fixed spelling. *)
let element =
  let kind spelling payload inj = case (Some spelling) payload inj in
  let c_classifier = case None classifier (fun c -> Model.E_classifier c)
  and c_association =
    kind "Association" association (fun a -> Model.E_association a)
  and c_package = kind "Package" package (fun p -> Model.E_package p)
  and c_machine =
    kind "StateMachine" state_machine (fun s -> Model.E_state_machine s)
  and c_activity = kind "Activity" activity (fun a -> Model.E_activity a)
  and c_interaction =
    kind "Interaction" interaction (fun i -> Model.E_interaction i)
  and c_use_case = kind "UseCase" use_case (fun u -> Model.E_use_case u)
  and c_component = kind "Component" component (fun c -> Model.E_component c)
  and c_instance =
    kind "InstanceSpecification" instance (fun i -> Model.E_instance i)
  and c_link = kind "Link" link (fun l -> Model.E_link l)
  and c_node = case None deployment_node (fun n -> Model.E_deployment_node n)
  and c_artifact = kind "Artifact" artifact (fun a -> Model.E_artifact a)
  and c_deployment =
    kind "Deployment" deployment (fun d -> Model.E_deployment d)
  and c_path =
    kind "CommunicationPath" communication_path (fun c ->
        Model.E_communication_path c)
  and c_profile = kind "Profile" profile (fun p -> Model.E_profile p) in
  variant "element" By_xmi_type "unknown element type uml:%s"
    [ Any c_classifier; Any c_association; Any c_package; Any c_machine;
      Any c_activity; Any c_interaction; Any c_use_case; Any c_component;
      Any c_instance; Any c_link; Any c_node; Any c_artifact; Any c_deployment;
      Any c_path; Any c_profile ]
    (function
      | Model.E_classifier c -> V (c_classifier, c)
      | E_association a -> V (c_association, a)
      | E_package p -> V (c_package, p) | E_state_machine s -> V (c_machine, s)
      | E_activity a -> V (c_activity, a)
      | E_interaction i -> V (c_interaction, i)
      | E_use_case u -> V (c_use_case, u) | E_component c -> V (c_component, c)
      | E_instance i -> V (c_instance, i) | E_link l -> V (c_link, l)
      | E_deployment_node n -> V (c_node, n) | E_artifact a -> V (c_artifact, a)
      | E_deployment d -> V (c_deployment, d)
      | E_communication_path c -> V (c_path, c)
      | E_profile p -> V (c_profile, p))
