(* Expected responses, from the one-shot path: the [Serve.Ops] body over
   a freshly loaded model ([Serve.Ops.load_artifacts]), no daemon and
   no cache — what `socuml <op>` prints.  Every daemon response is
   compared byte-for-byte against these. *)

open Workloads

type outcome = {
  exit : int;
  output : string;
}

(* The op body the daemon runs for this request, with its fields
   mapped to [Serve.Ops] arguments exactly as [Serve.Daemon] maps them
   (CLI defaults for every field the workloads leave out). *)
let run ~(loader : Serve.Ops.loader) r =
  let out = Buffer.create 4096 and err = Buffer.create 256 in
  let sink = { Serve.Ops.s_out = Buffer.add_string out; s_err = Buffer.add_string err } in
  let on_model f = Serve.Ops.with_artifacts sink loader r.path f in
  let exit =
    Serve.Ops.guarded sink (fun () ->
        match r.op with
        | Lint ->
          Serve.Ops.lint sink ~format:`Text ~only:[] ~disable:[] ~no_hdl:false ~jobs:1 loader
            [ r.path ]
        | Simulate { machine; events; rtl } ->
          on_model (Serve.Ops.simulate sink ~machine ~events ~metrics:None ~rtl)
        | Info -> on_model (Serve.Ops.info sink)
        | Gen lang -> on_model (Serve.Ops.gen sink ~lang)
        | Analyze ->
          Serve.Ops.analyze sink ~metrics:None ~only:[] ~disable:[] ~jobs loader r.path
        | Inject { machine; seed; faults } ->
          on_model
            (Serve.Ops.inject sink ~machine ~seed ~faults ~format:`Text ~metrics:None ~jobs)
        | Validate -> on_model (Serve.Ops.validate sink ~format:`Json))
  in
  { exit; output = Buffer.contents out }

let write_file path bytes =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc bytes)

(* Files a request reads, installed in place (same inode). *)
let install r =
  match r.write with
  | Some w -> write_file w.w_path w.w_bytes
  | None -> ()

type table = (string, outcome) Hashtbl.t

let find (t : table) r = Hashtbl.find t (key r)

(* One reference per distinct request of the priming list and the
   stream.  For [edit] this also proves the racy-edit guard is armed:
   a same-tick variant must have its predecessor's size, and the
   predecessor's bytes must give a different response, or a
   stat-keyed cache serving stale content would go unnoticed. *)
let compute (w : Workloads.t) : table =
  let t = Hashtbl.create 64 in
  let last = Hashtbl.create 2 in
  let add r =
    install r;
    let k = key r in
    if not (Hashtbl.mem t k) then Hashtbl.add t k (run ~loader:Serve.Ops.load_artifacts r);
    match r.write with
    | None -> ()
    | Some wr ->
      (match Hashtbl.find_opt last wr.w_path with
       | Some prev when wr.w_same_tick ->
         if String.length prev <> String.length wr.w_bytes then
           failwith (Printf.sprintf "%s: same-tick edit changed the file size" w.name);
         write_file wr.w_path prev;
         let stale = run ~loader:Serve.Ops.load_artifacts r in
         write_file wr.w_path wr.w_bytes;
         if stale = Hashtbl.find t k then
           failwith
             (Printf.sprintf "%s: same-tick edit of variant %d does not change the response"
                w.name r.variant)
       | Some _ | None -> ());
      Hashtbl.replace last wr.w_path wr.w_bytes
  in
  List.iter add w.priming;
  Array.iter add w.stream;
  t
