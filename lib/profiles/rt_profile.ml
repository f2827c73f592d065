open Uml

let stereotype_names = [ "capsule"; "protocol"; "rtPort"; "periodic" ]

let profile () =
  let tag = Profile.tag in
  let stereotypes =
    [
      Profile.stereotype ~extends:[ Profile.M_class ]
        ~tags:[ tag ~default:(Vspec.Int_literal 0) "priority" Dtype.Integer ]
        "capsule";
      Profile.stereotype ~extends:[ Profile.M_interface ] "protocol";
      Profile.stereotype ~extends:[ Profile.M_port ]
        ~tags:
          [ tag ~default:(Vspec.Bool_literal false) "conjugated" Dtype.Boolean ]
        "rtPort";
      Profile.stereotype ~extends:[ Profile.M_operation ]
        ~tags:
          [
            tag "period" Dtype.Integer;
            tag "deadline" Dtype.Integer;
            tag "wcet" Dtype.Integer;
          ]
        "periodic";
    ]
  in
  Profile.make "RT" stereotypes

let install m =
  let p = profile () in
  Model.add m (Model.E_profile p);
  p

let apply m ~profile:p ~stereotype ?(values = []) element =
  match Profile.find_stereotype p stereotype with
  | None ->
    invalid_arg (Printf.sprintf "Rt_profile.apply: no stereotype %s" stereotype)
  | Some s ->
    Model.add_application m
      (Profile.apply ~values ~stereotype:s.Profile.ster_id ~element ())

let diag rule element message =
  {
    Wfr.diag_severity = Wfr.Error;
    diag_rule = rule;
    diag_element = Some element;
    diag_message = message;
  }

let check m =
  let check_capsule acc (cl : Classifier.t) =
    if
      Model.has_stereotype m cl.Classifier.cl_id "capsule"
      && not cl.Classifier.cl_is_active
    then
      diag "RT-01" cl.Classifier.cl_id
        (Printf.sprintf "«capsule» %s must be an active class"
           cl.Classifier.cl_name)
      :: acc
    else acc
  in
  let check_periodic acc (cl : Classifier.t) =
    List.fold_left
      (fun acc (op : Classifier.operation) ->
        let tag =
          Soc_profile.tag_int m ~element:op.Classifier.op_id
            ~stereotype:"periodic"
        in
        let period = tag "period" and deadline = tag "deadline" in
        let acc =
          match period with
          | Some p when p <= 0 ->
            diag "RT-02" op.Classifier.op_id
              (Printf.sprintf "«periodic» %s has non-positive period"
                 op.Classifier.op_name)
            :: acc
          | Some _ | None -> acc
        in
        match period, deadline with
        | Some p, Some d when d > p ->
          diag "RT-03" op.Classifier.op_id
            (Printf.sprintf "«periodic» %s deadline %d exceeds period %d"
               op.Classifier.op_name d p)
          :: acc
        | _other1, _other2 -> acc)
      acc cl.Classifier.cl_operations
  in
  let classifiers = Model.classifiers m in
  let acc = List.fold_left check_capsule [] classifiers in
  let acc = List.fold_left check_periodic acc classifiers in
  List.rev acc
