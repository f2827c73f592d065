open Uml

let structural ~seed ~classes =
  let rng = Prng.create seed in
  let m = Model.create (Printf.sprintf "random_%d_%d" seed classes) in
  let interface_ids = ref [] in
  let class_ids = ref [] in
  let types =
    [ Dtype.Integer; Dtype.Boolean; Dtype.String_type; Dtype.Real ]
  in
  for i = 0 to classes - 1 do
    if i mod 4 = 0 then begin
      let ops =
        List.init
          (1 + Prng.int rng 3)
          (fun j ->
            Classifier.operation
              ~params:
                [
                  Classifier.parameter "arg" (Prng.pick rng types);
                  Classifier.parameter ~direction:Classifier.Return "result"
                    (Prng.pick rng types);
                ]
              (Printf.sprintf "op_i%d_%d" i j))
      in
      let itf =
        Classifier.make ~kind:Classifier.Interface ~operations:ops
          (Printf.sprintf "I%d" i)
      in
      Model.add m (Model.E_classifier itf);
      interface_ids := itf.Classifier.cl_id :: !interface_ids
    end;
    let attrs =
      List.init
        (1 + Prng.int rng 4)
        (fun j ->
          Classifier.property
            (Printf.sprintf "attr%d_%d" i j)
            (Prng.pick rng types))
    in
    let ops =
      List.init
        (Prng.int rng 3)
        (fun j ->
          Classifier.operation
            ~body:(Printf.sprintf "return %d;" (Prng.int rng 100))
            (Printf.sprintf "op%d_%d" i j))
    in
    let generals =
      match !class_ids with
      | [] -> []
      | ids -> if Prng.int rng 3 = 0 then [ Prng.pick rng ids ] else []
    in
    let realized =
      match !interface_ids with
      | [] -> []
      | ids -> if Prng.bool rng then [ Prng.pick rng ids ] else []
    in
    let cl =
      Classifier.make ~attributes:attrs ~operations:ops ~generals ~realized
        (Printf.sprintf "C%d" i)
    in
    Model.add m (Model.E_classifier cl);
    class_ids := cl.Classifier.cl_id :: !class_ids;
    if i mod 8 = 7 && !interface_ids <> [] then begin
      let provided = [ Prng.pick rng !interface_ids ] in
      let required =
        if Prng.bool rng then [ Prng.pick rng !interface_ids ] else []
      in
      let port = Component.port ~provided ~required "p0" in
      let comp =
        Component.make ~ports:[ port ] (Printf.sprintf "Comp%d" i)
      in
      Model.add m (Model.E_component comp)
    end
  done;
  m

let stereotyped ~seed ~classes =
  let m = structural ~seed ~classes in
  let soc = Profiles.Soc_profile.install m in
  let rt = Profiles.Rt_profile.install m in
  let soc_apply ?values name id =
    Profiles.Soc_profile.apply m ~profile:soc ~stereotype:name ?values id
  in
  let rt_apply ?values name id =
    Profiles.Rt_profile.apply m ~profile:rt ~stereotype:name ?values id
  in
  let int n = Vspec.Int_literal n in
  let stereotype_classifier i (c : Classifier.t) =
    let id = c.Classifier.cl_id in
    (match c.Classifier.cl_kind with
     | Classifier.Interface -> rt_apply "protocol" id
     | _other when i mod 2 = 0 -> rt_apply "capsule" id (* RT-01 *)
     | _other -> soc_apply ~values:[ ("priority", int i) ] "swTask" id);
    (* addresses repeat every three registers: SOC-04 on four attributes *)
    List.iteri
      (fun j (p : Classifier.property) ->
        soc_apply ~values:[ ("address", int (4 * (j mod 3))) ] "register"
          p.Classifier.prop_id)
      c.Classifier.cl_attributes;
    (* period 0 (RT-02) every fourth, deadline past period every third *)
    List.iteri
      (fun j (o : Classifier.operation) ->
        let period = 10 * ((i + j) mod 4) in
        let deadline = if (i + j) mod 3 = 0 then period + 5 else period in
        rt_apply
          ~values:[ ("period", int period); ("deadline", int deadline) ]
          "periodic" o.Classifier.op_id)
      c.Classifier.cl_operations
  in
  (* every component is a «hwModule»: two «reset» ports (SOC-02), no
     «clock» and a zero-width «hwPort» (SOC-01, SOC-03), or clean; every
     other one a «bus», every fourth with zero dataWidth (SOC-05) *)
  let stereotype_component k (c : Component.t) =
    let id = c.Component.cmp_id in
    soc_apply ~values:[ ("area", int (100 * k)) ] "hwModule" id;
    let ports =
      match k mod 3 with
      | 0 ->
        let resets = [ Component.port "rst0"; Component.port "rst1" ] in
        Model.replace m
          (Model.E_component
             { c with Component.cmp_ports = c.Component.cmp_ports @ resets });
        List.iter (fun p -> soc_apply "reset" p.Component.port_id) resets;
        [ ("clock", []) ]
      | 1 -> [ ("hwPort", [ ("width", int 0) ]) ]
      | _ -> [ ("clock", []); ("hwPort", [ ("width", int 8) ]) ]
    in
    List.iter
      (fun (p : Component.port) ->
        List.iter
          (fun (name, values) -> soc_apply ~values name p.Component.port_id)
          ports)
      c.Component.cmp_ports;
    if k mod 2 = 0 then
      soc_apply
        ~values:[ ("dataWidth", int (if k mod 4 = 0 then 0 else 32)) ]
        "bus" id
  in
  List.iteri stereotype_classifier (Model.classifiers m);
  List.iteri stereotype_component (Model.components m);
  m
