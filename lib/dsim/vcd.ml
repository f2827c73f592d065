type t = {
  probe : Probe.t;
  names : string array;  (** signal per slot, declaration order *)
  ids : string array;  (** vcd id per slot, as declared *)
  widths : int array;  (** width per slot *)
  shown : int array;
      (** the slot whose id and width a change of this slot renders
          with: the first slot of the same name *)
  mutable last : int array option;  (** last sampled values *)
  mutable changes : (int * (int * int) list) list;
      (** (time, (slot, value) in slot order), reverse order *)
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
  let signals = Array.of_list probe.Probe.pr_signals in
  let first = Hashtbl.create (Array.length signals) in
  let shown =
    Array.mapi
      (fun i (name, _ty) ->
        match Hashtbl.find_opt first name with
        | Some j -> j
        | None ->
          Hashtbl.add first name i;
          i)
      signals
  in
  {
    probe;
    names = Array.map fst signals;
    ids = Array.mapi (fun i _ -> vcd_id i) signals;
    widths = Array.map (fun (_, ty) -> Hdl.Htype.width ty) signals;
    shown;
    last = None;
    changes = [];
  }

let create sim = of_probe (Fast.probe sim)

let sample t ~time =
  let current = Array.map t.probe.Probe.pr_get t.names in
  let changed = ref [] in
  for i = Array.length current - 1 downto 0 do
    match t.last with
    | Some last when last.(i) = current.(i) -> ()
    | Some _ | None -> changed := (i, current.(i)) :: !changed
  done;
  if !changed <> [] then t.changes <- (time, !changed) :: t.changes;
  t.last <- Some current

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
       t.probe.Probe.pr_module.Hdl.Module_.mod_name);
  Array.iteri
    (fun i name ->
      Buffer.add_string buf
        (Printf.sprintf "$var wire %d %s %s $end\n" t.widths.(i) t.ids.(i)
           name))
    t.names;
  Buffer.add_string buf "$upscope $end\n$enddefinitions $end\n";
  let emit (time, changes) =
    Buffer.add_string buf (Printf.sprintf "#%d\n" time);
    List.iter
      (fun (slot, v) ->
        let s = t.shown.(slot) in
        let id = t.ids.(s) and w = t.widths.(s) in
        if w = 1 then Buffer.add_string buf (Printf.sprintf "%d%s\n" (v land 1) id)
        else
          Buffer.add_string buf
            (Printf.sprintf "b%s %s\n" (binary_string w v) id))
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
