(* Reference oracle for [Dsim.Vcd]: the list-based writer it replaced,
   kept as it was (an assoc-list lookup per signal in [sample], a list
   scan per change in [render]).  Every dump the slot-indexed writer
   renders must equal this one's byte for byte. *)

type t = {
  probe : Dsim.Probe.t;
  ids : (string * string * Hdl.Htype.t) list;  (** signal, vcd id, type *)
  mutable last : (string * int) list;  (** last sampled values *)
  mutable changes : (int * (string * int) list) list;  (** reverse order *)
}

let vcd_id i =
  (* printable identifier characters ! .. ~ *)
  let base = 94 in
  let rec build i acc =
    let c = Char.chr (33 + (i mod base)) in
    let acc = String.make 1 c ^ acc in
    if i < base then acc else build ((i / base) - 1) acc
  in
  build i ""

let of_probe probe =
  let ids =
    List.mapi
      (fun i (name, ty) -> (name, vcd_id i, ty))
      probe.Dsim.Probe.pr_signals
  in
  { probe; ids; last = []; changes = [] }

let create sim = of_probe (Dsim.Fast.probe sim)

let sample t ~time =
  let current =
    List.map (fun (name, _, _) -> (name, t.probe.Dsim.Probe.pr_get name)) t.ids
  in
  let changed =
    List.filter
      (fun (name, v) ->
        match List.assoc_opt name t.last with
        | Some old -> old <> v
        | None -> true)
      current
  in
  if changed <> [] then t.changes <- (time, changed) :: t.changes;
  t.last <- current

let binary_string width v =
  let buf = Bytes.make width '0' in
  for i = 0 to width - 1 do
    if (v lsr (width - 1 - i)) land 1 = 1 then Bytes.set buf i '1'
  done;
  Bytes.to_string buf

let render t =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "$date socuml $end\n";
  Buffer.add_string buf "$version socuml dsim $end\n";
  Buffer.add_string buf "$timescale 1ns $end\n";
  Buffer.add_string buf
    (Printf.sprintf "$scope module %s $end\n"
       t.probe.Dsim.Probe.pr_module.Hdl.Module_.mod_name);
  List.iter
    (fun (name, id, ty) ->
      let w = Hdl.Htype.width ty in
      Buffer.add_string buf
        (Printf.sprintf "$var wire %d %s %s $end\n" w id name))
    t.ids;
  Buffer.add_string buf "$upscope $end\n$enddefinitions $end\n";
  let emit (time, changes) =
    Buffer.add_string buf (Printf.sprintf "#%d\n" time);
    List.iter
      (fun (name, v) ->
        match List.find_opt (fun (n, _, _) -> n = name) t.ids with
        | Some (_, id, ty) ->
          let w = Hdl.Htype.width ty in
          if w = 1 then Buffer.add_string buf (Printf.sprintf "%d%s\n" (v land 1) id)
          else
            Buffer.add_string buf
              (Printf.sprintf "b%s %s\n" (binary_string w v) id)
        | None -> ())
      changes
  in
  List.iter emit (List.rev t.changes);
  Buffer.contents buf

let write_file t path =
  let oc = open_out path in
  (match output_string oc (render t) with
   | () -> close_out oc
   | exception e ->
     close_out_noerr oc;
     raise e)
