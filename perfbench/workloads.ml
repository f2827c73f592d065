(* Seeded inputs of the three workloads: model files, priming requests
   and one pass of the request stream.  Everything here is a pure
   function of the workload seed (identifiers come from the
   process-wide [Uml.Ident] counter, so generation order is fixed and
   runs before anything else allocates identifiers).  The seed changes
   models, event sequences, fault seeds and request order; it never
   changes the stream length or its op mix. *)

module Prng = Workload.Prng
module Sm = Uml.Smachine

type fmt =
  | Xmi
  | Sumb

let fmt_name f =
  match f with
  | Xmi -> "xmi"
  | Sumb -> "sumb"

type op =
  | Lint
  | Simulate of { machine : string option; events : string; rtl : bool }
  | Info
  | Gen of string
  | Analyze
  | Inject of { machine : string option; seed : int; faults : int }
  | Validate

let op_name op =
  match op with
  | Lint -> "lint"
  | Simulate _ -> "simulate"
  | Info -> "info"
  | Gen _ -> "gen"
  | Analyze -> "analyze"
  | Inject _ -> "inject"
  | Validate -> "validate"

(* Content installed at a path just before a request is sent (the
   [edit] workload).  [same_tick] stamps the file with the mtime of the
   previous write to the same path, so it is indistinguishable from its
   predecessor by (dev, inode, size, mtime). *)
type write = {
  w_path : string;
  w_bytes : string;
  w_same_tick : bool;
}

type request = {
  op : op;
  path : string;
  fmt : fmt;
  write : write option;
  variant : int;  (** index of the file content at [path]; 0 when fixed *)
}

type t = {
  name : string;
  files : (string * string) list;  (** written once, before any daemon *)
  priming : request list;
  stream : request array;  (** one pass *)
}

(* [analyze] and [inject] shard over a pool; never ask for more workers
   than the machine has cores. *)
let jobs = min 2 (Domain.recommended_domain_count ())

let fields r =
  let open Serve.Json in
  let model = ("model", Str r.path) in
  let machine m =
    match m with
    | Some name -> [ ("machine", Str name) ]
    | None -> []
  in
  match r.op with
  | Lint -> [ ("op", Str "lint"); model ]
  | Simulate { machine = m; events; rtl } ->
    [ ("op", Str "simulate"); model ]
    @ machine m
    @ [ ("events", Str events); ("rtl", Bool rtl) ]
  | Info -> [ ("op", Str "info"); model ]
  | Gen lang -> [ ("op", Str "gen"); model; ("lang", Str lang) ]
  | Analyze -> [ ("op", Str "analyze"); model; ("jobs", Int jobs) ]
  | Inject { machine = m; seed; faults } ->
    [ ("op", Str "inject"); model ]
    @ machine m
    @ [ ("seed", Int seed); ("faults", Int faults); ("jobs", Int jobs) ]
  | Validate -> [ ("op", Str "validate"); model; ("format", Str "json") ]

let line ~id r = Serve.Json.to_string (Serve.Json.Obj (("id", Serve.Json.Int id) :: fields r))

(* Identifies a distinct request: same key, same expected response. *)
let key r =
  Printf.sprintf "%d|%s" r.variant (Serve.Json.to_string (Serve.Json.Obj (fields r)))

(* --- models -------------------------------------------------------------- *)

let state_name letter i = Printf.sprintf "%c%02d" letter i

(* A flat machine whose states are named [<letter>NN]: every state has
   one transition per event to a seeded target, so any event sequence
   keeps it live and it compiles to RTL. *)
let flat_machine rng ~name ~letter ~states ~events =
  let names = Workload.Gen_statechart.event_names events in
  let sts = Array.init states (fun i -> Sm.simple_state (state_name letter i)) in
  let init = Sm.pseudostate Sm.Initial in
  let trs =
    Sm.transition ~source:init.Sm.ps_id ~target:sts.(0).Sm.st_id ()
    :: List.concat_map
         (fun (s : Sm.state) ->
           List.map
             (fun ev ->
               Sm.transition
                 ~triggers:[ Sm.Signal_trigger ev ]
                 ~source:s.Sm.st_id
                 ~target:sts.(Prng.int rng states).Sm.st_id ())
             names)
         (Array.to_list sts)
  in
  Sm.make name
    [ Sm.region (Sm.Pseudo init :: List.map (fun s -> Sm.State s) (Array.to_list sts)) trs ]

(* Same machine, same identifiers, states renamed to another letter:
   a same-length edit that shows in every simulation trace. *)
let rename_states (sm : Sm.t) letter =
  let rename (r : Sm.region) =
    {
      r with
      Sm.rg_vertices =
        List.map
          (fun v ->
            match v with
            | Sm.State s ->
              let n = s.Sm.st_name in
              Sm.State
                { s with Sm.st_name = String.make 1 letter ^ String.sub n 1 (String.length n - 1) }
            | Sm.Pseudo _ | Sm.Final _ -> v)
          r.Sm.rg_vertices;
    }
  in
  { sm with Sm.sm_regions = List.map rename sm.Sm.sm_regions }

(* A machine whose every transition carries an ASL guard and a looping
   effect: two complementary guarded transitions per (state, event),
   each effect running a [for] and a [while] loop.  All behavior texts
   are distinct, so the ASL memo holds one entry per guard/effect. *)
let asl_machine rng ~name ~states ~events =
  let names = Workload.Gen_statechart.event_names events in
  let sts = Array.init states (fun i -> Sm.simple_state (state_name 'A' i)) in
  let init = Sm.pseudostate Sm.Initial in
  (* seeded constants, fixed trip counts: the text varies with the
     seed, the work per firing does not *)
  let effect () =
    Printf.sprintf
      "var s := %d; for i := 1 to 20 do s := s + i * %d; end; var k := 0; \
       while k < 12 do k := k + 1; s := s - %d; end;"
      (Prng.range rng 0 99) (Prng.range rng 2 9) (Prng.range rng 1 9)
  in
  let trs =
    Sm.transition ~source:init.Sm.ps_id ~target:sts.(0).Sm.st_id ()
    :: List.concat_map
         (fun (s : Sm.state) ->
           List.concat_map
             (fun ev ->
               let guard =
                 Printf.sprintf "(%d * %d + %d) mod 7 < %d and event = \"%s\""
                   (Prng.range rng 2 50) (Prng.range rng 2 50)
                   (Prng.range rng 0 6) (Prng.range rng 1 6) ev
               in
               let target () = sts.(Prng.int rng states).Sm.st_id in
               [
                 Sm.transition ~triggers:[ Sm.Signal_trigger ev ] ~guard
                   ~effect:(effect ()) ~source:s.Sm.st_id ~target:(target ()) ();
                 Sm.transition ~triggers:[ Sm.Signal_trigger ev ]
                   ~guard:(Printf.sprintf "not (%s)" guard)
                   ~effect:(effect ()) ~source:s.Sm.st_id ~target:(target ()) ();
               ])
             names)
         (Array.to_list sts)
  in
  Sm.make name
    [ Sm.region (Sm.Pseudo init :: List.map (fun s -> Sm.State s) (Array.to_list sts)) trs ]

(* initial -> fork -> [branches] chains of [length] actions -> join ->
   final: about (length+1)^branches reachable markings. *)
let fork_activity ~name ~branches ~length =
  let module A = Uml.Activityg in
  let init = A.initial () and final = A.activity_final () in
  let fork = A.fork "fork" and join = A.join "join" in
  let chains =
    List.init branches (fun b ->
        List.init length (fun i -> A.action (Printf.sprintf "a%d_%d" b i)))
  in
  let id = A.node_id in
  let edge a b = A.edge ~source:(id a) ~target:(id b) () in
  let chain_edges chain =
    let rec link nodes =
      match nodes with
      | a :: (b :: _ as rest) -> edge a b :: link rest
      | [ last ] -> [ edge last join ]
      | [] -> []
    in
    match chain with
    | first :: _ -> edge fork first :: link chain
    | [] -> [ edge fork join ]
  in
  A.make name
    ((init :: fork :: join :: final :: List.concat chains))
    (edge init fork :: edge join final :: List.concat_map chain_edges chains)

let structural rng ~classes =
  Workload.Gen_model.structural ~seed:(Prng.int rng 1_000_000) ~classes

let add_machine m sm = Uml.Model.add m (Uml.Model.E_state_machine sm)
let add_activity m act = Uml.Model.add m (Uml.Model.E_activity act)

let events_string rng ~alphabet ~length =
  String.concat ","
    (List.init length (fun _ -> Prng.pick rng (Workload.Gen_statechart.event_names alphabet)))

let request ?write ?(variant = 0) op path fmt = { op; path; fmt; write; variant }

(* The distinct requests of a stream, as priming requests.  They go in
   a fixed (op, path) order, not stream order: which model is loaded
   first changes how much live heap every later request's collections
   scan, and set-up time must not depend on the seed's shuffle. *)
let distinct reqs =
  let seen = Hashtbl.create 16 in
  List.stable_sort
    (fun a b -> compare (op_name a.op, a.path) (op_name b.op, b.path))
    (List.filter
       (fun r ->
         let k = key r in
         if Hashtbl.mem seen k then false
         else begin
           Hashtbl.add seen k ();
           true
         end)
       reqs)

(* Repeat a seeded shuffle of [cycle] [rounds] times. *)
let rounds rng ~rounds cycle =
  Array.of_list (List.concat (List.init rounds (fun i -> Prng.shuffle rng (cycle i))))

(* --- warm: primed daemon, cache hits on unchanged files ----------------- *)

let warm ~dir ~seed =
  let rng = Prng.create (seed * 3 + 1) in
  let big = structural rng ~classes:1000 in
  add_machine big (flat_machine rng ~name:"ctl" ~letter:'S' ~states:48 ~events:8);
  let gen_model = structural rng ~classes:300 in
  add_machine gen_model (flat_machine rng ~name:"ctl" ~letter:'S' ~states:24 ~events:6);
  let big_xmi = Filename.concat dir "big.xmi" and big_sumb = Filename.concat dir "big.sumb" in
  let gen_xmi = Filename.concat dir "gen.xmi" in
  let files =
    [
      (big_xmi, Xmi.Write.to_string big);
      (big_sumb, Snap.Write.to_string big);
      (gen_xmi, Xmi.Write.to_string gen_model);
    ]
  in
  let sequences = Array.init 4 (fun _ -> events_string rng ~alphabet:8 ~length:32) in
  let langs = [| "vhdl"; "verilog"; "systemc" |] in
  (* per round: lint on both formats, one RTL simulation, one info and
     one gen — the polling mix of an editor or CI client *)
  let cycle i =
    let path, fmt = if i mod 2 = 0 then (big_xmi, Xmi) else (big_sumb, Sumb) in
    let other_path, other_fmt = if i mod 2 = 0 then (big_sumb, Sumb) else (big_xmi, Xmi) in
    [
      request Lint big_xmi Xmi;
      request Lint big_sumb Sumb;
      request
        (Simulate { machine = None; events = sequences.(i mod 4); rtl = true })
        path fmt;
      request Info other_path other_fmt;
      request (Gen langs.(i mod 3)) gen_xmi Xmi;
    ]
  in
  let stream = rounds rng ~rounds:12 cycle in
  { name = "warm"; files; priming = distinct (Array.to_list stream); stream }

(* --- edit: every request a miss on freshly written content ------------- *)

(* Variants written per pass: 64 to the XMI path, the first 32 of them
   also to the snapshot path, so a content key comes back only after
   95 other keys have gone through the daemon's 64-entry cache. *)
let edit_variants = 64

let edit ~dir ~seed =
  let rng = Prng.create (seed * 3 + 2) in
  let base = structural rng ~classes:300 in
  let act = fork_activity ~name:"step" ~branches:2 ~length:3 in
  let xmi = Filename.concat dir "edit.xmi" and sumb = Filename.concat dir "edit.sumb" in
  (* variant j: j mod 4 in {0, 3} is a fresh machine; {1, 2} renames the
     previous variant's states and model name without changing any
     length (the racy same-tick edits) *)
  let letters = "STUV" in
  let machines = Array.make edit_variants (flat_machine rng ~name:"ctl" ~letter:'S' ~states:16 ~events:4) in
  for j = 1 to edit_variants - 1 do
    let letter = letters.[j mod 4] in
    machines.(j) <-
      (match j mod 4 with
       | 1 | 2 -> rename_states machines.(j - 1) letter
       | _fresh -> flat_machine rng ~name:"ctl" ~letter ~states:16 ~events:4)
  done;
  let model_of j =
    let m = Uml.Model.copy base in
    Uml.Model.set_name m (Printf.sprintf "edit%03d" j);
    add_machine m machines.(j);
    add_activity m act;
    m
  in
  let racy j = j mod 4 = 1 || j mod 4 = 2 in
  let sequences = Array.init edit_variants (fun _ -> events_string rng ~alphabet:4 ~length:16) in
  let models = Array.init edit_variants model_of in
  let op_of j =
    if j mod 2 = 0 then Lint
    else Simulate { machine = None; events = sequences.(j); rtl = true }
  in
  (* two of every three requests go to the XMI path: with snapshot
     requests several times cheaper, the percentiles then fall inside
     the XMI lint and simulate groups rather than between two groups *)
  let stream =
    Array.init (edit_variants * 3 / 2) (fun i ->
        let path, fmt, j, bytes =
          if i mod 3 < 2 then
            let j = (2 * (i / 3)) + (i mod 3) in
            (xmi, Xmi, j, Xmi.Write.to_string models.(j))
          else
            let j = i / 3 in
            (sumb, Sumb, j, Snap.Write.to_string models.(j))
        in
        request ~variant:(j + 1)
          ~write:{ w_path = path; w_bytes = bytes; w_same_tick = racy j }
          (op_of j) path fmt)
  in
  let base_m = Uml.Model.copy base in
  add_machine base_m (flat_machine rng ~name:"ctl" ~letter:'S' ~states:16 ~events:4);
  add_activity base_m act;
  let base_write path bytes = Some { w_path = path; w_bytes = bytes; w_same_tick = false } in
  let prime op path fmt bytes = request ?write:(base_write path bytes) op path fmt in
  let base_xmi = Xmi.Write.to_string base_m and base_sumb = Snap.Write.to_string base_m in
  let sim = Simulate { machine = None; events = sequences.(0); rtl = true } in
  let priming =
    [
      prime Lint xmi Xmi base_xmi; prime sim xmi Xmi base_xmi;
      prime Lint sumb Sumb base_sumb; prime sim sumb Sumb base_sumb;
    ]
  in
  { name = "edit"; files = []; priming; stream }

(* --- verify: primed daemon, heavy engines ------------------------------ *)

let verify ~dir ~seed =
  let rng = Prng.create (seed * 3 + 3) in
  let m = structural rng ~classes:300 in
  add_machine m (flat_machine rng ~name:"ctl" ~letter:'S' ~states:24 ~events:6);
  add_machine m (asl_machine rng ~name:"asl" ~states:12 ~events:6);
  add_activity m (fork_activity ~name:"pipeline" ~branches:4 ~length:8);
  let path = Filename.concat dir "verify.xmi" in
  let files = [ (path, Xmi.Write.to_string m) ] in
  let sequences = Array.init 4 (fun _ -> events_string rng ~alphabet:6 ~length:300) in
  let fault_seeds = Array.init 4 (fun _ -> 1 + Prng.int rng 10_000) in
  (* per round, cheapest to dearest: 9 simulations, 6 campaigns, 2
     validations, 2 analyses.  The median then falls a twelfth of the
     way into the campaign group and p90 a twentieth of the way into
     the analysis group.  On a shared host each group's latencies split
     into a fast mode and one about 1.5 times slower, in a ratio that
     drifts with the host's load; a rank near the bottom of a group
     stays in the fast mode unless nearly all of the run is slow, where
     a rank inside the group jumps between the modes as the ratio
     crosses it. *)
  let cycle _round =
    List.init 9 (fun k ->
        request
          (Simulate { machine = Some "asl"; events = sequences.(k mod 4); rtl = false })
          path Xmi)
    @ List.init 6 (fun k ->
          request
            (Inject { machine = Some "ctl"; seed = fault_seeds.(k mod 4); faults = 12 })
            path Xmi)
    @ [ request Validate path Xmi; request Validate path Xmi ]
    @ [ request Analyze path Xmi; request Analyze path Xmi ]
  in
  let stream = rounds rng ~rounds:2 cycle in
  { name = "verify"; files; priming = distinct (Array.to_list stream); stream }

let names = [ "warm"; "edit"; "verify" ]

let make name ~dir ~seed =
  match name with
  | "warm" -> Some (warm ~dir ~seed)
  | "edit" -> Some (edit ~dir ~seed)
  | "verify" -> Some (verify ~dir ~seed)
  | _other -> None

let mix w =
  let counts = Hashtbl.create 8 in
  Array.iter
    (fun r ->
      let n = op_name r.op in
      Hashtbl.replace counts n (1 + Option.value (Hashtbl.find_opt counts n) ~default:0))
    w.stream;
  List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) counts [])
