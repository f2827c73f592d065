type rendered = {
  out : string;
  err : string;
  exit : int;
}

type answer = {
  rendered : rendered;
  lock : Mutex.t;  (* the owning entry's *)
  mutable encoded : (Json.encoded * Json.encoded) option;
}

type t = {
  model : Uml.Model.t;
  design : unit -> Mda.Generate.hw_result;
  rtl : Uml.Smachine.t -> (Dsim.Netlist.t, string) result;
  petri : Uml.Activityg.t -> Petri.Net.t * Petri.Marking.t * Petri.Compiled.t;
  lint_diags :
    key:string -> (unit -> Uml.Wfr.diagnostic list) -> Uml.Wfr.diagnostic list;
  gen : lang:string -> (unit -> rendered) -> answer;
}

(* One lock per entry, held across derivation: concurrent lint workers
   asking for the same artifact serialize instead of deriving twice.
   Derivations never call back into the accessors, so the lock cannot
   be re-entered. *)
let locked lock f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

let rendered a = a.rendered

let encoded a =
  locked a.lock (fun () ->
      match a.encoded with
      | Some e -> e
      | None ->
        let e = (Json.encode a.rendered.out, Json.encode a.rendered.err) in
        a.encoded <- Some e;
        e)

(* A string-keyed memo under [lock]: the thunk runs on the first miss of
   its key; a raising thunk stores nothing. *)
let keyed_memo lock =
  let memo = Hashtbl.create 2 in
  fun key compute ->
    locked lock (fun () ->
        match Hashtbl.find_opt memo key with
        | Some v -> v
        | None ->
          let v = compute () in
          Hashtbl.add memo key v;
          v)

let compile_rtl sm =
  match Statechart.Flatten.flatten sm with
  | Error reason -> Error reason
  | Ok flat -> (
    match Codegen.Fsm_compile.compile flat with
    | Error reason -> Error reason
    | Ok hmod -> Ok (Dsim.Netlist.compile hmod))

let of_model model =
  let lock = Mutex.create () in
  let design_memo = ref None in
  let rtl_memo : (string, Dsim.Netlist.t) Hashtbl.t = Hashtbl.create 4 in
  let petri_memo :
      (Uml.Activityg.t
      * (Petri.Net.t * Petri.Marking.t * Petri.Compiled.t))
      list
      ref =
    ref []
  in
  let design () =
    locked lock (fun () ->
        match !design_memo with
        | Some d -> d
        | None ->
          let d = Mda.Generate.hw_design model in
          design_memo := Some d;
          d)
  in
  let rtl (sm : Uml.Smachine.t) =
    locked lock (fun () ->
        match Hashtbl.find_opt rtl_memo sm.Uml.Smachine.sm_name with
        | Some nl -> Ok nl
        | None -> (
          match compile_rtl sm with
          | Error _reason as e -> e
          | Ok nl ->
            Hashtbl.add rtl_memo sm.Uml.Smachine.sm_name nl;
            Ok nl))
  in
  let petri (act : Uml.Activityg.t) =
    locked lock (fun () ->
        match List.find_opt (fun (a, _) -> a == act) !petri_memo with
        | Some (_, r) -> r
        | None ->
          let net, m0 = Activity.Translate.to_petri act in
          let r = (net, m0, Petri.Compiled.of_net net) in
          petri_memo := (act, r) :: !petri_memo;
          r)
  in
  let lint_memo = keyed_memo lock and gen_memo = keyed_memo lock in
  let lint_diags ~key check = lint_memo key check in
  let gen ~lang render =
    gen_memo lang (fun () -> { rendered = render (); lock; encoded = None })
  in
  { model; design; rtl; petri; lint_diags; gen }
