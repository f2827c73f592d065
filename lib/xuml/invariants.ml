open Uml

type violation = {
  viol_object : string;
  viol_invariant : string;
  viol_reason : string;
}

let starts_with_inv name =
  String.length name >= 4 && String.sub name 0 4 = "inv_"

let invariant_names m class_name =
  let rec collect seen acc cl_id =
    if Ident.Set.mem cl_id seen then (seen, acc)
    else
      let seen = Ident.Set.add cl_id seen in
      match Model.find_classifier m cl_id with
      | None -> (seen, acc)
      | Some cl ->
        let acc =
          List.fold_left
            (fun acc (op : Classifier.operation) ->
              if
                starts_with_inv op.Classifier.op_name
                && not (List.mem op.Classifier.op_name acc)
              then acc @ [ op.Classifier.op_name ]
              else acc)
            acc cl.Classifier.cl_operations
        in
        List.fold_left
          (fun (seen, acc) parent -> collect seen acc parent)
          (seen, acc) cl.Classifier.cl_generals
  in
  match Model.classifier_named m class_name with
  | None -> []
  | Some cl ->
    let _, acc = collect Ident.Set.empty [] cl.Classifier.cl_id in
    acc

let object_name sys r =
  match
    List.find_opt (fun (_n, r') -> r' = r) (System.objects sys)
  with
  | Some (n, _) -> n
  | None -> Printf.sprintf "<obj %d>" r

let check_object sys r =
  let store = System.store sys in
  match Asl.Store.class_of store r with
  | None -> []
  | Some class_name ->
    let names = invariant_names (System.model sys) class_name in
    List.filter_map
      (fun inv ->
        match System.call sys ~self_:r inv [] with
        | Asl.Value.V_bool true -> None
        | Asl.Value.V_bool false ->
          Some
            {
              viol_object = object_name sys r;
              viol_invariant = inv;
              viol_reason = "returned false";
            }
        | other ->
          Some
            {
              viol_object = object_name sys r;
              viol_invariant = inv;
              viol_reason =
                Printf.sprintf "returned %s (Boolean expected)"
                  (Asl.Value.to_string other);
            }
        | exception System.Xuml_error msg ->
          Some
            {
              viol_object = object_name sys r;
              viol_invariant = inv;
              viol_reason = msg;
            })
      names

let check sys =
  let store = System.store sys in
  List.concat_map
    (fun (_name, r) ->
      if Asl.Store.is_alive store r then check_object sys r else [])
    (System.objects sys)
