type t = {
  probe : Probe.t;
  tracked : (string * Hdl.Htype.t) list;
  mutable samples : (string * int) list list;  (** reverse order *)
}

let of_probe ?signals probe =
  let tracked =
    match signals with
    | Some names ->
      List.map
        (fun name ->
          (* validate and fetch the type via the engine *)
          let _v = probe.Probe.pr_get name in
          let ty =
            match List.assoc_opt name probe.Probe.pr_signals with
            | Some ty -> ty
            | None -> Hdl.Htype.Bit
          in
          (name, ty))
        names
    | None ->
      List.map
        (fun (p : Hdl.Module_.port) ->
          (p.Hdl.Module_.port_name, p.Hdl.Module_.port_type))
        probe.Probe.pr_module.Hdl.Module_.mod_ports
  in
  { probe; tracked; samples = [] }

let create ?signals sim = of_probe ?signals (Fast.probe sim)

let sample t =
  let snapshot =
    List.map (fun (name, _ty) -> (name, t.probe.Probe.pr_get name)) t.tracked
  in
  t.samples <- snapshot :: t.samples

let length t = List.length t.samples

let render t =
  let samples = List.rev t.samples in
  let buf = Buffer.create 1024 in
  let name_width =
    List.fold_left
      (fun acc (name, _) -> max acc (String.length name))
      3 t.tracked
  in
  let hex_width ty = max 1 ((Hdl.Htype.width ty + 3) / 4) in
  List.iter
    (fun (name, ty) ->
      Buffer.add_string buf (Printf.sprintf "%-*s : " name_width name);
      let is_bit = Hdl.Htype.width ty = 1 in
      let w = hex_width ty in
      let previous = ref None in
      List.iter
        (fun snapshot ->
          let v =
            match List.assoc_opt name snapshot with
            | Some v -> v
            | None -> 0
          in
          if is_bit then Buffer.add_char buf (if v = 0 then '_' else '#')
          else begin
            (match !previous with
             | Some old when old = v ->
               Buffer.add_string buf (String.make (w + 1) ' ')
             | Some _ | None ->
               Buffer.add_string buf (Printf.sprintf "|%0*X" w v));
            previous := Some v
          end)
        samples;
      Buffer.add_char buf '\n')
    t.tracked;
  Buffer.contents buf
