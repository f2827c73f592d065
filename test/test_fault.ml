(* Fault-injection campaigns: the empty-plan identity property on every
   engine family (a campaign with no faults reproduces the golden
   artifacts byte-for-byte), plan serialization round-trips, same-seed
   reports are byte-identical, the RTL and statechart runs equal the
   projection of the recording oracle's trace, the outcome classifiers
   behave on hand-built cases, and every subset of the four specs
   reports as pinned. *)

open Hdl

let tc name f = Alcotest.test_case name `Quick f
let check = Alcotest.check

(* ------------------------------------------------------------------ *)
(* Random fixtures (shared shapes with test_dsim_fast) *)

let rand_ty rng =
  match Workload.Prng.int rng 3 with
  | 0 -> Htype.Bit
  | 1 -> Htype.Unsigned (Workload.Prng.range rng 2 8)
  | _ -> Htype.Unsigned (Workload.Prng.range rng 9 16)

let binops =
  [
    Expr.And; Expr.Or; Expr.Xor; Expr.Add; Expr.Sub; Expr.Mul; Expr.Eq;
    Expr.Neq; Expr.Lt; Expr.Le; Expr.Gt; Expr.Ge; Expr.Shl; Expr.Shr;
  ]

let rec rand_expr rng avail depth =
  let leaf () =
    if Workload.Prng.bool rng then Expr.Ref (Workload.Prng.pick rng avail)
    else Expr.of_int ~width:8 (Workload.Prng.int rng 256)
  in
  if depth <= 0 then leaf ()
  else (
    let sub () = rand_expr rng avail (depth - 1) in
    match Workload.Prng.int rng 8 with
    | 0 | 1 -> leaf ()
    | 2 -> Expr.Unop (Expr.Not, sub ())
    | 3 -> Expr.Mux (sub (), sub (), sub ())
    | 4 -> Expr.Resize (sub (), Workload.Prng.range rng 1 12)
    | _n -> Expr.Binop (Workload.Prng.pick rng binops, sub (), sub ()))

let random_module seed =
  let rng = Workload.Prng.create seed in
  let inputs =
    List.init (Workload.Prng.range rng 1 3) (fun i ->
        (Printf.sprintf "in%d" i, rand_ty rng))
  in
  let regs =
    List.init (Workload.Prng.range rng 1 3) (fun i ->
        (Printf.sprintf "r%d" i, rand_ty rng))
  in
  let base = List.map fst inputs @ List.map fst regs in
  let n_wire = Workload.Prng.range rng 1 3 in
  let rec wires acc avail k =
    if k = 0 then List.rev acc
    else (
      let name = Printf.sprintf "w%d" (n_wire - k) in
      let ty = rand_ty rng in
      let e = rand_expr rng avail 3 in
      wires ((name, ty, e) :: acc) (name :: avail) (k - 1))
  in
  let ws = wires [] base n_wire in
  let seq_body =
    List.map (fun (r, _) -> Stmt.Assign (r, rand_expr rng base 3)) regs
  in
  let reset_body =
    List.map (fun (r, _) -> Stmt.Assign (r, Expr.of_int 0)) regs
  in
  Module_.make
    ~ports:
      (Module_.input "clk" Htype.Bit
       :: Module_.input "rst" Htype.Bit
       :: List.map (fun (n, ty) -> Module_.input n ty) inputs)
    ~signals:
      (List.map
         (fun (n, ty) ->
           Module_.signal ~init:(Workload.Prng.int rng 16) n ty)
         regs
       @ List.map (fun (n, ty, _) -> Module_.signal n ty) ws)
    ~processes:
      (Module_.seq_process
         ~reset:("rst", reset_body)
         ~name:"p_seq" ~clock:"clk" seq_body
       :: List.mapi
            (fun i (n, _, e) ->
              Module_.comb_process
                ~name:(Printf.sprintf "p_w%d" i)
                [ Stmt.Assign (n, e) ])
            ws)
    "rand"

let rtl_spec_of_module seed m =
  let rng = Workload.Prng.create (seed lxor 0x2e2e) in
  let inputs =
    List.filter_map
      (fun (p : Module_.port) ->
        match p.Module_.port_dir with
        | Module_.Input ->
          if p.Module_.port_name = "clk" || p.Module_.port_name = "rst" then
            None
          else Some p.Module_.port_name
        | Module_.Output -> None)
      m.Module_.mod_ports
  in
  let cycles = 12 in
  (* the generator's low bits alternate, so a value is the top 16 of
     its 30 state bits: odd values reach the 1-bit inputs too *)
  let stimulus =
    List.init cycles (fun c ->
        ( c,
          List.filter_map
            (fun name ->
              if Workload.Prng.bool rng then
                Some (name, Workload.Prng.int rng (1 lsl 30) lsr 14)
              else None)
            inputs ))
  in
  {
    Fault.Campaign.rs_module = m;
    rs_clock = "clk";
    rs_reset = Some "rst";
    rs_stimulus = stimulus;
    rs_cycles = cycles;
    rs_settle_budget = 1000;
  }

let random_surface seed =
  let rng = Workload.Prng.create (seed lxor 0x71c3) in
  {
    Fault.Plan.su_signals =
      List.init (Workload.Prng.range rng 1 4) (fun i ->
          (Printf.sprintf "s%d" i, Workload.Prng.range rng 1 16));
    su_cycles = Workload.Prng.range rng 1 20;
    su_events = Workload.Gen_statechart.event_names (Workload.Prng.range rng 1 4);
    su_length = Workload.Prng.range rng 1 20;
    su_places =
      List.init (Workload.Prng.range rng 1 4) (fun i ->
          Printf.sprintf "p%d" i);
    su_steps = Workload.Prng.range rng 1 30;
  }

(* ------------------------------------------------------------------ *)
(* Plan serialization *)

let qcheck_plan_roundtrip =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:200 ~name:"plan to_string/of_string round-trips"
       QCheck.(int_range 0 100_000)
       (fun seed ->
         let plan =
           Fault.Plan.generate ~seed ~count:(seed mod 17) (random_surface seed)
         in
         match Fault.Plan.of_string (Fault.Plan.to_string plan) with
         | Ok plan' -> Fault.Plan.equal plan plan'
         | Error msg -> Alcotest.failf "parse failed: %s (seed %d)" msg seed))

let plan_tests =
  [
    tc "generate is deterministic for a given seed" (fun () ->
        let s = random_surface 7 in
        let a = Fault.Plan.generate ~seed:11 ~count:20 s in
        let b = Fault.Plan.generate ~seed:11 ~count:20 s in
        check Alcotest.bool "equal plans" true (Fault.Plan.equal a b);
        let c = Fault.Plan.generate ~seed:12 ~count:20 s in
        check Alcotest.bool "different seed differs" false
          (Fault.Plan.equal a c));
    tc "empty surface yields the empty plan" (fun () ->
        let s =
          {
            Fault.Plan.su_signals = []; su_cycles = 0; su_events = [];
            su_length = 0; su_places = []; su_steps = 0;
          }
        in
        check Alcotest.bool "empty" true
          (Fault.Plan.equal (Fault.Plan.generate ~seed:3 ~count:9 s)
             (Fault.Plan.empty 3));
        check
          Alcotest.(list string)
          "no domains" [] (Fault.Plan.surface_domains s));
    tc "of_string rejects garbage" (fun () ->
        (match Fault.Plan.of_string "" with
         | Ok _ -> Alcotest.fail "empty input accepted"
         | Error _ -> ());
        (match Fault.Plan.of_string "fault-plan seed=1\nxyz zap a=1" with
         | Ok _ -> Alcotest.fail "unknown fault accepted"
         | Error _ -> ());
        match Fault.Plan.of_string "fault-plan seed=1\nrtl stuck-at signal=x value=7 from=0" with
        | Ok _ -> Alcotest.fail "stuck-at 7 accepted"
        | Error _ -> ());
  ]

(* ------------------------------------------------------------------ *)
(* Empty-plan identity: a run with no faults reproduces the golden
   artifacts byte-for-byte, engine family by engine family. *)

(* The snapshots and the waveform are recorded only by the oracle
   ([Oracles.Campaign_ref]); the production run is checked on what it
   keeps. *)
let qcheck_identity_rtl =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:40
       ~name:"rtl: empty fault list reproduces golden snapshots and VCD"
       QCheck.(int_range 0 100_000)
       (fun seed ->
         let spec = rtl_spec_of_module seed (random_module seed) in
         let golden_ref = Oracles.Campaign_ref.rtl_run spec [] in
         let injected_ref = Oracles.Campaign_ref.rtl_run spec [] in
         let golden = Fault.Campaign.rtl_run spec [] in
         let injected = Fault.Campaign.rtl_run spec [] in
         golden_ref.Oracles.Campaign_ref.rr_snapshots
         = injected_ref.Oracles.Campaign_ref.rr_snapshots
         && String.equal golden_ref.Oracles.Campaign_ref.rr_vcd
              injected_ref.Oracles.Campaign_ref.rr_vcd
         && golden_ref.Oracles.Campaign_ref.rr_error
            = injected_ref.Oracles.Campaign_ref.rr_error
         && golden = injected
         && Fault.Campaign.equal_outcome Fault.Campaign.Masked
              (Fault.Campaign.classify_rtl ~golden injected)))

let qcheck_identity_statechart =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:60
       ~name:"statechart: empty fault list reproduces golden signatures"
       QCheck.(int_range 0 100_000)
       (fun seed ->
         let sm =
           if seed mod 2 = 0 then
             Workload.Gen_statechart.flat ~seed ~states:5 ~events:3
           else
             Workload.Gen_statechart.hierarchical ~seed ~depth:2 ~breadth:2
               ~events:3
         in
         let spec =
           {
             Fault.Campaign.ss_machine = sm;
             ss_events =
               Workload.Gen_statechart.event_sequence ~seed ~length:15 3;
             ss_budget = 1000;
           }
         in
         let golden = Fault.Campaign.sc_run spec [] in
         let injected = Fault.Campaign.sc_run spec [] in
         golden = injected
         && Fault.Campaign.equal_outcome Fault.Campaign.Masked
              (Fault.Campaign.classify_sc ~golden injected)))

let qcheck_identity_tokens =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:60
       ~name:"tokens: empty fault list reproduces golden firings and markings"
       QCheck.(int_range 0 100_000)
       (fun seed ->
         let act =
           if seed mod 2 = 0 then
             Workload.Gen_activity.series_parallel ~seed ~size:8 ~max_width:3
           else
             Workload.Gen_activity.with_decisions ~seed ~size:8 ~max_width:3
         in
         let aspec =
           {
             Fault.Campaign.ac_activity = act;
             ac_choice_seed = seed;
             ac_max_steps = 10_000;
           }
         in
         let net, m0 = Activity.Translate.to_petri act in
         let nspec =
           {
             Fault.Campaign.np_net = net;
             np_marking = m0;
             np_choice_seed = seed;
             np_max_steps = 10_000;
           }
         in
         let ag = Fault.Campaign.act_run aspec [] in
         let ai = Fault.Campaign.act_run aspec [] in
         let ng = Fault.Campaign.net_run nspec [] in
         let ni = Fault.Campaign.net_run nspec [] in
         ag = ai && ng = ni
         && Fault.Campaign.equal_outcome Fault.Campaign.Masked
              (Fault.Campaign.classify_act ~golden:ag ai)
         && Fault.Campaign.equal_outcome Fault.Campaign.Masked
              (Fault.Campaign.classify_net nspec ~golden:ng ni)))

(* ------------------------------------------------------------------ *)
(* Production runs against the recording oracle [Oracles.Campaign_ref]:
   each run must equal the projection of the oracle's trace (the last
   snapshot or signature, [[]] or [""] when there is none; the error,
   status and flags), record the same metrics and classify the same
   against the matching golden run. *)

(* [x := x xor en] settles while [en] is low and oscillates past the
   settle budget once it is raised: an error in mid-run, after some
   cycles have completed. *)
let loop_module () =
  Module_.make
    ~ports:
      [
        Module_.input "clk" Htype.Bit;
        Module_.input "rst" Htype.Bit;
        Module_.input "en" Htype.Bit;
      ]
    ~signals:
      [
        Module_.signal ~init:0 "x" Htype.Bit;
        Module_.signal ~init:0 "r" (Htype.Unsigned 4);
      ]
    ~processes:
      [
        Module_.seq_process
          ~reset:("rst", [ Stmt.Assign ("r", Expr.of_int ~width:4 0) ])
          ~name:"p_r" ~clock:"clk"
          [ Stmt.Assign ("r", Expr.(Ref "r" +: of_int 1)) ];
        Module_.comb_process ~name:"p_x"
          [
            Stmt.Assign
              ("x", Expr.Binop (Expr.Xor, Expr.Ref "x", Expr.Ref "en"));
          ];
      ]
    "loop"

(* Lowering fails: [y] reads a name the module never declares. *)
let unresolved_module () =
  Module_.make
    ~ports:[ Module_.input "clk" Htype.Bit; Module_.input "rst" Htype.Bit ]
    ~signals:[ Module_.signal "y" (Htype.Unsigned 4) ]
    ~processes:
      [
        Module_.comb_process ~name:"p_y"
          [ Stmt.Assign ("y", Expr.Ref "ghost") ];
      ]
    "unresolved"

(* Bit flips and stuck-ats on the module's names and one it does not
   have, at cycles in and past the run.  The kind and the stuck value
   are drawn with bound 3: [Prng.int]'s low bit alternates, so a bound
   of 2 would give every fault of a list the same kind. *)
let random_rtl_faults rng (m : Module_.t) =
  let names =
    "ghost"
    :: List.map
         (fun (p : Module_.port) -> p.Module_.port_name)
         m.Module_.mod_ports
    @ List.map
        (fun (s : Module_.signal) -> s.Module_.sig_name)
        m.Module_.mod_signals
  in
  List.init (Workload.Prng.int rng 4) (fun _ ->
      let signal = Workload.Prng.pick rng names in
      let cycle = Workload.Prng.int rng 14 in
      if Workload.Prng.int rng 3 > 0 then
        Fault.Plan.Bit_flip
          {
            fb_signal = signal;
            fb_cycle = cycle;
            fb_bit = Workload.Prng.int rng 16;
          }
      else
        Fault.Plan.Stuck_at
          {
            sa_signal = signal;
            sa_value = Workload.Prng.int rng 3 mod 2;
            sa_from = cycle;
          })

let rtl_agrees seed =
  let m =
    match seed mod 8 with
    | 0 -> unresolved_module ()
    | 1 | 2 -> loop_module ()
    | _ -> random_module seed
  in
  let spec = rtl_spec_of_module seed m in
  (* the loop module raises [en] at a seeded cycle, or never *)
  let spec =
    match seed mod 8 with
    | 1 | 2 ->
      {
        spec with
        Fault.Campaign.rs_stimulus = [ (seed / 8 mod 16, [ ("en", 1) ]) ];
      }
    | _ -> spec
  in
  let rng = Workload.Prng.create (seed + 1) in
  let golden = Fault.Campaign.rtl_run spec [] in
  let golden_ref = Oracles.Campaign_ref.rtl_run spec [] in
  let agrees faults =
    let reg = Telemetry.Metrics.create () in
    let reg_ref = Telemetry.Metrics.create () in
    let r = Fault.Campaign.rtl_run ~metrics:reg spec faults in
    let o = Oracles.Campaign_ref.rtl_run ~metrics:reg_ref spec faults in
    r.Fault.Campaign.rr_final = Oracles.Campaign_ref.final_snapshot o
    && r.Fault.Campaign.rr_error = o.Oracles.Campaign_ref.rr_error
    && Telemetry.Metrics.report reg = Telemetry.Metrics.report reg_ref
    && Fault.Campaign.classify_rtl ~golden r
       = Oracles.Campaign_ref.classify_rtl ~golden:golden_ref o
  in
  agrees []
  && List.for_all agrees (List.init 4 (fun _ -> random_rtl_faults rng m))

(* [sm] with [f] applied to each top-level region's transition list. *)
let with_top_transitions f (sm : Uml.Smachine.t) =
  {
    sm with
    Uml.Smachine.sm_regions =
      List.map
        (fun (r : Uml.Smachine.region) ->
          {
            r with
            Uml.Smachine.rg_transitions = f r.Uml.Smachine.rg_transitions;
          })
        sm.Uml.Smachine.sm_regions;
  }

(* Flat and hierarchical machines; a flat one whose [k]-th transition
   runs an effect reading an unbound variable (a [Model_error] in
   mid-stream, wherever it first fires); and one with no initial
   transition (a [Model_error] in [start]). *)
let sc_machine seed =
  let flat = Workload.Gen_statechart.flat ~seed ~states:4 ~events:3 in
  match seed mod 4 with
  | 0 -> flat
  | 1 ->
    Workload.Gen_statechart.hierarchical ~seed ~depth:2 ~breadth:2 ~events:3
  | 2 ->
    let k = 1 + (seed / 4 mod 12) in
    with_top_transitions
      (List.mapi (fun i (tr : Uml.Smachine.transition) ->
           if i <> k then tr
           else { tr with Uml.Smachine.tr_effect = Some "var y := nosuch;" }))
      flat
  | _ ->
    with_top_transitions
      (List.filter (fun (tr : Uml.Smachine.transition) ->
           tr.Uml.Smachine.tr_triggers <> []))
      flat

(* Drops, duplicates and spurious events (an unknown one included) at
   indices in and past the stimulus; one set in six drops every event. *)
let random_sc_faults rng n =
  if Workload.Prng.int rng 6 = 0 then
    List.init n (fun i -> Fault.Plan.Drop_event { de_index = i })
  else
    List.init (Workload.Prng.int rng 4) (fun _ ->
        let i = Workload.Prng.int rng (n + 2) in
        match Workload.Prng.int rng 3 with
        | 0 -> Fault.Plan.Drop_event { de_index = i }
        | 1 -> Fault.Plan.Dup_event { du_index = i }
        | _ ->
          Fault.Plan.Spurious_event
            {
              sp_index = i;
              sp_event = Workload.Prng.pick rng [ "ev0"; "ev2"; "zz" ];
            })

let sc_agrees seed =
  let rng = Workload.Prng.create (seed + 1) in
  let events =
    Workload.Gen_statechart.event_sequence ~seed ~length:(1 + (seed mod 15)) 3
  in
  let spec =
    {
      Fault.Campaign.ss_machine = sc_machine seed;
      ss_events = events;
      ss_budget = (if seed mod 7 = 0 then 0 else 1000);
    }
  in
  let golden = Fault.Campaign.sc_run spec [] in
  let golden_ref = Oracles.Campaign_ref.sc_run spec [] in
  let agrees faults =
    let reg = Telemetry.Metrics.create () in
    let reg_ref = Telemetry.Metrics.create () in
    let r = Fault.Campaign.sc_run ~metrics:reg spec faults in
    let o = Oracles.Campaign_ref.sc_run ~metrics:reg_ref spec faults in
    r.Fault.Campaign.sc_final = Oracles.Campaign_ref.final_signature o
    && r.Fault.Campaign.sc_status = o.Oracles.Campaign_ref.sc_status
    && r.Fault.Campaign.sc_error = o.Oracles.Campaign_ref.sc_error
    && r.Fault.Campaign.sc_truncated = o.Oracles.Campaign_ref.sc_truncated
    && Telemetry.Metrics.report reg = Telemetry.Metrics.report reg_ref
    && Fault.Campaign.classify_sc ~golden r
       = Oracles.Campaign_ref.classify_sc ~golden:golden_ref o
  in
  agrees []
  && List.for_all agrees
       (List.init 4 (fun _ -> random_sc_faults rng (List.length events)))

let reference_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count:200
         ~name:"rtl_run = the recording oracle's projection"
         QCheck.(int_range 0 100_000)
         rtl_agrees);
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count:300
         ~name:"sc_run = the recording oracle's projection"
         QCheck.(int_range 0 100_000)
         sc_agrees);
  ]

(* ------------------------------------------------------------------ *)
(* Campaign determinism and accounting *)

let toggle_machine () =
  Workload.Gen_statechart.flat ~seed:5 ~states:3 ~events:2

let campaign_fixture seed faults =
  let sm = toggle_machine () in
  let events = Workload.Gen_statechart.event_sequence ~seed:9 ~length:10 2 in
  let sc =
    { Fault.Campaign.ss_machine = sm; ss_events = events; ss_budget = 1000 }
  in
  let rtl = rtl_spec_of_module 21 (random_module 21) in
  let act = Workload.Gen_activity.series_parallel ~seed:4 ~size:8 ~max_width:3 in
  let aspec =
    {
      Fault.Campaign.ac_activity = act;
      ac_choice_seed = 4;
      ac_max_steps = 10_000;
    }
  in
  let net, m0 = Activity.Translate.to_petri act in
  let nspec =
    {
      Fault.Campaign.np_net = net;
      np_marking = m0;
      np_choice_seed = 4;
      np_max_steps = 10_000;
    }
  in
  let surface =
    {
      Fault.Plan.su_signals =
        List.map
          (fun (s : Module_.signal) ->
            (s.Module_.sig_name, Htype.width s.Module_.sig_type))
          rtl.Fault.Campaign.rs_module.Module_.mod_signals;
      su_cycles = rtl.Fault.Campaign.rs_cycles;
      su_events = Workload.Gen_statechart.event_names 2;
      su_length = List.length events;
      su_places =
        List.map (fun (p : Petri.Net.place) -> p.Petri.Net.pl_id)
          net.Petri.Net.places;
      su_steps = 20;
    }
  in
  let plan = Fault.Plan.generate ~seed ~count:faults surface in
  fun ?metrics () ->
    Fault.Campaign.run ?metrics ~rtl ~statechart:sc ~activity:aspec ~net:nspec
      ~label:"fixture" plan

(* A hand-built report with every outcome, details that need escaping,
   skipped faults and a coverage that is not a whole number. *)
let pinned_report =
  let open Fault in
  let rtl = Plan.F_rtl (Plan.Bit_flip { fb_signal = "q"; fb_cycle = 3; fb_bit = 1 }) in
  let sc = Plan.F_statechart (Plan.Spurious_event { sp_index = 2; sp_event = "go" }) in
  let tok = Plan.F_token (Plan.Dup_token { dt_place = "p1"; dt_step = 4 }) in
  let run i domain fault outcome =
    { Campaign.run_index = i; run_domain = domain; run_fault = fault;
      run_outcome = outcome }
  in
  {
    Campaign.rp_label = "pin \"label\"";
    rp_plan = { Plan.seed = 7; faults = [ rtl; sc; tok; tok ] };
    rp_runs =
      [
        run 0 "rtl" rtl (Campaign.Detected "output \\ differs\n");
        run 1 "statechart" sc Campaign.Silent;
        run 2 "activity" tok Campaign.Masked;
        run 2 "petri" tok (Campaign.Truncated "fuel\001");
      ];
    rp_skipped = [ (tok, "no net"); (rtl, "no rtl \"spec\"") ];
  }

let campaign_tests =
  [
    tc "json digest of a hand-built report" (fun () ->
        check Alcotest.string "md5" "1f81ca6f73fdc7070a24480ca41b985e"
          (Digest.to_hex (Digest.string (Fault.Campaign.to_json pinned_report))));
    tc "same seed yields byte-identical text and json reports" (fun () ->
        let go = campaign_fixture 42 15 in
        let a = go () and b = go () in
        check Alcotest.string "text" (Fault.Campaign.to_text a)
          (Fault.Campaign.to_text b);
        check Alcotest.string "json" (Fault.Campaign.to_json a)
          (Fault.Campaign.to_json b));
    tc "empty plan yields no runs and no skips" (fun () ->
        let go = campaign_fixture 42 0 in
        let r = go () in
        check Alcotest.int "runs" 0 (List.length r.Fault.Campaign.rp_runs);
        check Alcotest.int "skips" 0 (List.length r.Fault.Campaign.rp_skipped);
        let t = Fault.Campaign.totals r in
        check Alcotest.int "injected" 0 t.Fault.Campaign.t_injected;
        check (Alcotest.float 1e-9) "coverage" 1.0 (Fault.Campaign.coverage t));
    tc "totals add up and drive the telemetry counters" (fun () ->
        let reg = Telemetry.Metrics.create () in
        let go = campaign_fixture 3 12 in
        let r = go ~metrics:reg () in
        let t = Fault.Campaign.totals r in
        check Alcotest.int "sum of outcomes"
          t.Fault.Campaign.t_injected
          (t.Fault.Campaign.t_masked + t.Fault.Campaign.t_detected
          + t.Fault.Campaign.t_silent + t.Fault.Campaign.t_truncated);
        check Alcotest.int "one run per outcome"
          (List.length r.Fault.Campaign.rp_runs)
          t.Fault.Campaign.t_injected;
        let value name =
          Telemetry.Metrics.counter_value (Telemetry.Metrics.counter reg name)
        in
        check Alcotest.int "fault.injected" t.Fault.Campaign.t_injected
          (value "fault.injected");
        check Alcotest.int "fault.masked" t.Fault.Campaign.t_masked
          (value "fault.masked");
        check Alcotest.int "fault.detected" t.Fault.Campaign.t_detected
          (value "fault.detected");
        check Alcotest.int "fault.silent" t.Fault.Campaign.t_silent
          (value "fault.silent");
        check Alcotest.int "fault.truncated" t.Fault.Campaign.t_truncated
          (value "fault.truncated"));
    tc "token faults run against both token backends" (fun () ->
        let go = campaign_fixture 8 9 in
        let r = go () in
        let domains =
          List.sort_uniq String.compare
            (List.map
               (fun (u : Fault.Campaign.run) -> u.Fault.Campaign.run_domain)
               r.Fault.Campaign.rp_runs)
        in
        check
          Alcotest.(list string)
          "all four domains" [ "activity"; "petri"; "rtl"; "statechart" ]
          domains);
    tc "faults with no executable domain are skipped with a reason" (fun () ->
        let plan =
          {
            Fault.Plan.seed = 1;
            faults =
              [
                Fault.Plan.F_rtl
                  (Fault.Plan.Bit_flip
                     { fb_signal = "x"; fb_cycle = 0; fb_bit = 0 });
              ];
          }
        in
        let r = Fault.Campaign.run ~label:"none" plan in
        check Alcotest.int "no runs" 0 (List.length r.Fault.Campaign.rp_runs);
        check Alcotest.int "one skip" 1
          (List.length r.Fault.Campaign.rp_skipped));
  ]

(* ------------------------------------------------------------------ *)
(* Classifier behavior on hand-built cases *)

let counter_module () =
  Module_.make
    ~ports:
      [
        Module_.input "clk" Htype.Bit;
        Module_.input "rst" Htype.Bit;
        Module_.input "en" Htype.Bit;
        Module_.output "q" (Htype.Unsigned 4);
      ]
    ~signals:[ Module_.signal ~init:0 "cnt" (Htype.Unsigned 4) ]
    ~processes:
      [
        Module_.seq_process
          ~reset:("rst", [ Stmt.Assign ("cnt", Expr.of_int ~width:4 0) ])
          ~name:"p_cnt" ~clock:"clk"
          [
            Stmt.If
              ( Expr.(Ref "en" ==: one),
                [ Stmt.Assign ("cnt", Expr.(Ref "cnt" +: of_int 1)) ],
                [] );
          ];
        Module_.comb_process ~name:"p_out" [ Stmt.Assign ("q", Expr.Ref "cnt") ];
      ]
    "counter"

let counter_spec () =
  {
    Fault.Campaign.rs_module = counter_module ();
    rs_clock = "clk";
    rs_reset = Some "rst";
    rs_stimulus = [ (0, [ ("en", 1) ]) ];
    rs_cycles = 8;
    rs_settle_budget = 1000;
  }

let classify_tests =
  [
    tc "rtl bit flip on the counter register is silent corruption" (fun () ->
        let spec = counter_spec () in
        let golden = Fault.Campaign.rtl_run spec [] in
        let flip =
          [
            Fault.Plan.Bit_flip { fb_signal = "cnt"; fb_cycle = 3; fb_bit = 3 };
          ]
        in
        let injected = Fault.Campaign.rtl_run spec flip in
        let snapshots faults =
          (Oracles.Campaign_ref.rtl_run spec faults)
            .Oracles.Campaign_ref.rr_snapshots
        in
        check Alcotest.bool "snapshots differ" false
          (snapshots [] = snapshots flip);
        check Alcotest.bool "silent" true
          (Fault.Campaign.equal_outcome Fault.Campaign.Silent
             (Fault.Campaign.classify_rtl ~golden injected)));
    tc "rtl bit flip above the signal width is masked" (fun () ->
        (* en is one bit wide: flipping bit 1 is absorbed by the width
           mask, the canonical masked single-event upset *)
        let spec = counter_spec () in
        let golden = Fault.Campaign.rtl_run spec [] in
        let flip =
          [ Fault.Plan.Bit_flip { fb_signal = "en"; fb_cycle = 2; fb_bit = 1 } ]
        in
        let injected = Fault.Campaign.rtl_run spec flip in
        let vcd faults =
          (Oracles.Campaign_ref.rtl_run spec faults).Oracles.Campaign_ref.rr_vcd
        in
        check Alcotest.bool "vcd identical" true
          (String.equal (vcd []) (vcd flip));
        check Alcotest.bool "masked" true
          (Fault.Campaign.equal_outcome Fault.Campaign.Masked
             (Fault.Campaign.classify_rtl ~golden injected)));
    tc "stuck-at-0 on the counter register is detected or silent" (fun () ->
        let spec = counter_spec () in
        let golden = Fault.Campaign.rtl_run spec [] in
        let stuck =
          [
            Fault.Plan.Stuck_at
              { sa_signal = "cnt"; sa_value = 0; sa_from = 0 };
          ]
        in
        let injected = Fault.Campaign.rtl_run spec stuck in
        check Alcotest.bool "final count frozen" true
          (match
             List.rev
               (Oracles.Campaign_ref.rtl_run spec stuck)
                 .Oracles.Campaign_ref.rr_snapshots
           with
           | last :: _ -> List.assoc "cnt" last = 0
           | [] -> false);
        check Alcotest.int "production final count frozen" 0
          (List.assoc "cnt" injected.Fault.Campaign.rr_final);
        check Alcotest.bool "silent" true
          (Fault.Campaign.equal_outcome Fault.Campaign.Silent
             (Fault.Campaign.classify_rtl ~golden injected)));
    tc "petri token loss violates a p-invariant and is detected" (fun () ->
        (* one-token ring: p0 -> t0 -> p1 -> t1 -> p0; the total token
           count is a P-invariant, so losing the token is detected *)
        let net =
          Petri.Net.make
            [ Petri.Net.place "p0"; Petri.Net.place "p1" ]
            [ Petri.Net.transition "t0"; Petri.Net.transition "t1" ]
            [
              Petri.Net.P_to_t ("p0", "t0", 1);
              Petri.Net.T_to_p ("t0", "p1", 1);
              Petri.Net.P_to_t ("p1", "t1", 1);
              Petri.Net.T_to_p ("t1", "p0", 1);
            ]
        in
        let spec =
          {
            Fault.Campaign.np_net = net;
            np_marking = Petri.Marking.of_list [ ("p0", 1) ];
            np_choice_seed = 1;
            np_max_steps = 10;
          }
        in
        let golden = Fault.Campaign.net_run spec [] in
        check Alcotest.bool "golden truncates at the step budget" true
          golden.Fault.Campaign.nr_truncated;
        let injected =
          Fault.Campaign.net_run spec
            [ Fault.Plan.Lose_token { lt_place = "p0"; lt_step = 2 } ]
        in
        check Alcotest.bool "injected deadlocks" true
          injected.Fault.Campaign.nr_deadlocked;
        match Fault.Campaign.classify_net spec ~golden injected with
        | Fault.Campaign.Detected _ -> ()
        | o ->
          Alcotest.failf "expected detection, got %s"
            (Fault.Campaign.show_outcome o));
    tc "activity step budget exhaustion is truncated" (fun () ->
        let act =
          Workload.Gen_activity.series_parallel ~seed:2 ~size:10 ~max_width:3
        in
        let spec =
          {
            Fault.Campaign.ac_activity = act;
            ac_choice_seed = 2;
            ac_max_steps = 1;
          }
        in
        let golden = Fault.Campaign.act_run spec [] in
        check Alcotest.string "stop" "exhausted" golden.Fault.Campaign.ar_stop;
        match Fault.Campaign.classify_act ~golden golden with
        | Fault.Campaign.Truncated _ -> ()
        | o ->
          Alcotest.failf "expected truncation, got %s"
            (Fault.Campaign.show_outcome o));
    tc "dropping every event leaves the statechart behind" (fun () ->
        let sm = toggle_machine () in
        let events =
          Workload.Gen_statechart.event_sequence ~seed:1 ~length:6 2
        in
        let spec =
          {
            Fault.Campaign.ss_machine = sm;
            ss_events = events;
            ss_budget = 1000;
          }
        in
        let golden = Fault.Campaign.sc_run spec [] in
        let faults =
          List.mapi
            (fun i _ -> Fault.Plan.Drop_event { de_index = i })
            events
        in
        let injected = Fault.Campaign.sc_run spec faults in
        check Alcotest.int "no events delivered" 0
          (List.length
             (Oracles.Campaign_ref.sc_run spec faults)
               .Oracles.Campaign_ref.sc_signatures);
        check Alcotest.string "no final signature" ""
          injected.Fault.Campaign.sc_final;
        match Fault.Campaign.classify_sc ~golden injected with
        | Fault.Campaign.Masked | Fault.Campaign.Silent -> ()
        | Fault.Campaign.Detected d -> Alcotest.failf "detected: %s" d
        | Fault.Campaign.Truncated d -> Alcotest.failf "truncated: %s" d);
  ]

(* ------------------------------------------------------------------ *)
(* Domain subsets: one plan with a fault of every kind, run against
   each of the 16 subsets of the four specs.  The text report, the JSON
   report and the metrics report (with every retained event) are
   pinned by MD5, recorded before the campaign's domains shared one
   table; the no-spec row is also spelled out, so the three skip
   reasons read here verbatim.  Every fixture names its own element
   ids, so the pins do not move with the process-wide id counter. *)

(* Idle -ev0-> Busy -ev1-> Idle, Busy -ev0-> Busy, Idle -ev1-> final:
   an extra [ev1] at Idle ends the machine early. *)
let subset_machine () =
  let open Uml.Smachine in
  let init = pseudostate ~id:"sm_init" Initial in
  let idle = simple_state ~id:"sm_idle" "Idle" in
  let busy = simple_state ~id:"sm_busy" "Busy" in
  let fin = final ~id:"sm_final" () in
  let on id ev source target =
    transition ~id ~triggers:[ Signal_trigger ev ] ~source ~target ()
  in
  make ~id:"sm_pins" "pins"
    [
      region ~id:"sm_region"
        [ Pseudo init; State idle; State busy; Final fin ]
        [
          transition ~id:"sm_t0" ~source:"sm_init" ~target:"sm_idle" ();
          on "sm_t1" "ev0" "sm_idle" "sm_busy";
          on "sm_t2" "ev1" "sm_busy" "sm_idle";
          on "sm_t3" "ev0" "sm_busy" "sm_busy";
          on "sm_t4" "ev1" "sm_idle" "sm_final";
        ];
    ]

(* initial, fork into [a] and [b], join, a seeded choice between [c]
   and [d], merge, final *)
let subset_activity () =
  let open Uml.Activityg in
  let edge id source target = edge ~id ~source ~target () in
  make ~id:"ac_pins" "pins"
    [
      initial ~id:"n_init" (); fork ~id:"n_fork" "fork";
      action ~id:"n_a" "a"; action ~id:"n_b" "b"; join ~id:"n_join" "join";
      decision ~id:"n_dec" "dec"; action ~id:"n_c" "c"; action ~id:"n_d" "d";
      merge ~id:"n_merge" "merge"; activity_final ~id:"n_final" ();
    ]
    [
      edge "e01" "n_init" "n_fork"; edge "e02" "n_fork" "n_a";
      edge "e03" "n_fork" "n_b"; edge "e04" "n_a" "n_join";
      edge "e05" "n_b" "n_join"; edge "e06" "n_join" "n_dec";
      edge "e07" "n_dec" "n_c"; edge "e08" "n_dec" "n_d";
      edge "e09" "n_c" "n_merge"; edge "e10" "n_d" "n_merge";
      edge "e11" "n_merge" "n_final";
    ]

let every_kind_plan =
  {
    Fault.Plan.seed = 5;
    faults =
      [
        Fault.Plan.F_rtl
          (Fault.Plan.Bit_flip { fb_signal = "cnt"; fb_cycle = 3; fb_bit = 3 });
        Fault.Plan.F_rtl
          (Fault.Plan.Stuck_at { sa_signal = "cnt"; sa_value = 0; sa_from = 2 });
        Fault.Plan.F_statechart (Fault.Plan.Drop_event { de_index = 1 });
        Fault.Plan.F_statechart (Fault.Plan.Dup_event { du_index = 0 });
        Fault.Plan.F_statechart
          (Fault.Plan.Spurious_event { sp_index = 2; sp_event = "ev1" });
        Fault.Plan.F_token
          (Fault.Plan.Lose_token { lt_place = "p_e02"; lt_step = 1 });
        Fault.Plan.F_token
          (Fault.Plan.Dup_token { dt_place = "p_e06"; dt_step = 3 });
      ];
  }

(* Spec membership by bit: rtl, statechart, activity, petri. *)
let subset_report mask =
  let act = subset_activity () in
  let has bit spec = if mask land (1 lsl bit) <> 0 then Some spec else None in
  let rtl = has 0 (counter_spec ()) in
  let statechart =
    has 1
      {
        Fault.Campaign.ss_machine = subset_machine ();
        ss_events = [ "ev0"; "ev1"; "ev0"; "ev0"; "ev1" ];
        ss_budget = 1000;
      }
  in
  let activity =
    has 2
      { Fault.Campaign.ac_activity = act; ac_choice_seed = 4; ac_max_steps = 200 }
  in
  let net =
    has 3
      (let net, m0 = Activity.Translate.to_petri act in
       {
         Fault.Campaign.np_net = net;
         np_marking = m0;
         np_choice_seed = 4;
         np_max_steps = 200;
       })
  in
  let reg = Telemetry.Metrics.create () in
  let r =
    Fault.Campaign.run ~metrics:reg ?rtl ?statechart ?activity ?net
      ~label:"subset" every_kind_plan
  in
  let metrics =
    Telemetry.Metrics.report reg
    ^ String.concat "\n"
        (List.map Telemetry.Metrics.render_event (Telemetry.Metrics.events reg))
  in
  (Fault.Campaign.to_text r, Fault.Campaign.to_json r, metrics)

let subset_name mask =
  match
    List.filteri
      (fun bit _ -> mask land (1 lsl bit) <> 0)
      [ "rtl"; "statechart"; "activity"; "petri" ]
  with
  | [] -> "none"
  | names -> String.concat "+" names

(* mask, then the MD5 of the text, JSON and metrics reports *)
let subset_pins =
  [
    ( 0,
      "3416118b8406bc244739681440befd8a",
      "a6d1b6acb3937875262b9bfc158ddd3e",
      "2497a2866f6fe53fb2a1f1a8fe68138b" );
    ( 1,
      "0bb57cb8adcf42e85ecf649b68e5e32d",
      "3a224d8f739646c503de1640a886bf05",
      "3900d925f81305440aaf76cf8e52fdfa" );
    ( 2,
      "a5e8ee41036eb138eabde0c1ba507747",
      "7ce62b439717e4b99b19936a855dbc31",
      "4d5c22fb2db726b243c44aa4e185418f" );
    ( 3,
      "ee7a97f8d03a10e9c4b0bd6580b291df",
      "23310bcf51e1e3ca8a453f7ea82628ac",
      "68eb37a66c9651ba07e0ad9ff128e231" );
    ( 4,
      "5001adc85fbc42c39cdee8816bf85e41",
      "36c258a8e76e62e620e7757222fc1eac",
      "5e0b7aaca5dbe38b27f2735d0b3027c7" );
    ( 5,
      "29c3b2734a036da767b9550e5e33dd9c",
      "3ab43fb2600be22c809ba5e9ac57e645",
      "583dbb07267b3eb0afcda7354996678d" );
    ( 6,
      "699832a37ef0600bb714702cad590c81",
      "d14428980c7a01f54bfd2a1d5c6957b7",
      "39fdfcfbe5b518712edcf921a08753ed" );
    ( 7,
      "be22693b48c8ad209dfcf08f793a001b",
      "19fd5f76e4a885d4b816154a7db63494",
      "c8f561e8dfd0c819106e855e180d0753" );
    ( 8,
      "17562b341f0032086688e93ea0e52030",
      "ab086f41cf79faea5a3941e0c370e4ee",
      "93411f193781d59a528f0357dd895918" );
    ( 9,
      "c454a79c13e29b3623727c087a081e8d",
      "8d39f90653e1788cdc95ea856f7dd9b4",
      "9bd4fff5b89e5c44052f6befeefbc972" );
    ( 10,
      "71aabbcf40347c226654a636a6db63d9",
      "37a71e67c91e2d8c8556b3debff18854",
      "685f16756df4202b8f5fde2454f13fc6" );
    ( 11,
      "64734daaa56a10117a8e240c2cb93bf8",
      "4ca73c06990167b0cdc2815b42612775",
      "1050e24b3d15616ecc3b590e5d7c27b7" );
    ( 12,
      "dc79372fac7cc2a2847f002e6d6349b0",
      "fafc2801a0423ae94a974bc2dd38092e",
      "29432080eb1dc2bff63c5496113911d7" );
    ( 13,
      "d869108d83ffcb69f4d882f04adb7c65",
      "f52ff827792686f21d527606f4e55585",
      "640f132ff6e95b59921f8cb9c7bb00bb" );
    ( 14,
      "1da362451626c7612dc5d53911964e4d",
      "3e969843c0701ccd3c0996ff338a137e",
      "fae0eef5238baa8d8e1053b835369692" );
    ( 15,
      "7db3c7fb1ce804e1d9d358c56b830613",
      "14fde683a6934ec7bde20f51b3a6c0fe",
      "4a600de4e5c50350c27482089177e749" );
  ]

let subset_tests =
  tc "no spec: every fault skipped with its domain's reason" (fun () ->
      let text, _, _ = subset_report 0 in
      check Alcotest.string "text"
        "fault campaign: subset (seed 5, 7 faults planned)\n\
        \  skip   rtl bit-flip signal=cnt cycle=3 bit=3 (no rtl domain in \
         this campaign)\n\
        \  skip   rtl stuck-at signal=cnt value=0 from=2 (no rtl domain in \
         this campaign)\n\
        \  skip   sc drop index=1 (no statechart domain in this campaign)\n\
        \  skip   sc dup index=0 (no statechart domain in this campaign)\n\
        \  skip   sc spurious index=2 event=ev1 (no statechart domain in \
         this campaign)\n\
        \  skip   tok lose place=p_e02 step=1 (no token domain in this \
         campaign)\n\
        \  skip   tok dup place=p_e06 step=3 (no token domain in this \
         campaign)\n\
         summary: injected=0 masked=0 detected=0 silent=0 truncated=0\n\
         coverage: 100.0% of non-masked faults detected\n"
        text)
  :: List.map
       (fun (mask, text_md5, json_md5, metrics_md5) ->
         tc ("reports over " ^ subset_name mask) (fun () ->
             let text, json, metrics = subset_report mask in
             let md5 s = Digest.to_hex (Digest.string s) in
             check Alcotest.string "text" text_md5 (md5 text);
             check Alcotest.string "json" json_md5 (md5 json);
             check Alcotest.string "metrics" metrics_md5 (md5 metrics)))
       subset_pins

(* ------------------------------------------------------------------ *)
(* Event-stream perturbation unit behavior *)

let perturb_tests =
  [
    tc "drop removes exactly the indexed event" (fun () ->
        check
          Alcotest.(list string)
          "drop 1"
          [ "a"; "c" ]
          (Fault.Campaign.perturb_events
             [ Fault.Plan.Drop_event { de_index = 1 } ]
             [ "a"; "b"; "c" ]));
    tc "dup delivers the indexed event twice" (fun () ->
        check
          Alcotest.(list string)
          "dup 0"
          [ "a"; "a"; "b" ]
          (Fault.Campaign.perturb_events
             [ Fault.Plan.Dup_event { du_index = 0 } ]
             [ "a"; "b" ]));
    tc "spurious inserts before the index, appends past the end" (fun () ->
        check
          Alcotest.(list string)
          "insert at 1"
          [ "a"; "x"; "b" ]
          (Fault.Campaign.perturb_events
             [ Fault.Plan.Spurious_event { sp_index = 1; sp_event = "x" } ]
             [ "a"; "b" ]);
        check
          Alcotest.(list string)
          "append"
          [ "a"; "b"; "x" ]
          (Fault.Campaign.perturb_events
             [ Fault.Plan.Spurious_event { sp_index = 9; sp_event = "x" } ]
             [ "a"; "b" ]));
    tc "out-of-range drop and dup are no-ops" (fun () ->
        check
          Alcotest.(list string)
          "unchanged" [ "a"; "b" ]
          (Fault.Campaign.perturb_events
             [
               Fault.Plan.Drop_event { de_index = 5 };
               Fault.Plan.Dup_event { du_index = 7 };
             ]
             [ "a"; "b" ]));
  ]

(* Campaign and lint reports share one JSON printer: the same escapes,
   and every string comes back through the parser. *)
let json_tests =
  let member = Sjson.Json.member in
  let parse s =
    match Sjson.Json.parse s with
    | Ok v -> v
    | Error e -> Alcotest.failf "report does not parse: %s" e
  in
  let contains ~sub s =
    let n = String.length sub in
    let rec at i =
      i + n <= String.length s && (String.sub s i n = sub || at (i + 1))
    in
    at 0
  in
  let raw = QCheck.(string_gen_of_size Gen.(int_bound 64) Gen.char) in
  [
    tc "tab and carriage return spell as in lint reports" (fun () ->
        let name = "a\tb\rc" and spelled = {|"a\tb\rc"|} in
        let campaign =
          Fault.Campaign.to_json
            { pinned_report with Fault.Campaign.rp_label = name }
        in
        let lint = Lint.Report.to_json ~model:name [] in
        check Alcotest.bool "campaign" true (contains ~sub:spelled campaign);
        check Alcotest.bool "lint" true (contains ~sub:spelled lint));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count:300
         ~name:"campaign json gives back label, detail and reason bytes"
         QCheck.(triple raw raw raw)
         (fun (label, detail, reason) ->
           let rtl =
             Fault.Plan.F_rtl
               (Fault.Plan.Stuck_at
                  { sa_signal = "s"; sa_value = 1; sa_from = 0 })
           in
           let v =
             parse
               (Fault.Campaign.to_json
                  {
                    pinned_report with
                    Fault.Campaign.rp_label = label;
                    rp_runs =
                      [
                        {
                          Fault.Campaign.run_index = 0;
                          run_domain = "rtl";
                          run_fault = rtl;
                          run_outcome = Fault.Campaign.Detected detail;
                        };
                      ];
                    rp_skipped = [ (rtl, reason) ];
                  })
           in
           let first key =
             match member key v with
             | Some (Sjson.Json.List (item :: _)) -> item
             | Some _ | None -> Alcotest.failf "no %s" key
           in
           member "label" v = Some (Sjson.Json.Str label)
           && member "detail" (first "runs") = Some (Sjson.Json.Str detail)
           && member "reason" (first "skipped")
              = Some (Sjson.Json.Str reason)));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count:300
         ~name:"lint json gives back model, rule, element and message bytes"
         QCheck.(quad raw raw raw raw)
         (fun (model, rule, element, message) ->
           let d =
             {
               Uml.Wfr.diag_severity = Uml.Wfr.Error;
               diag_rule = rule;
               diag_element = Some element;
               diag_message = message;
             }
           in
           let v = parse (Lint.Report.to_json ~model [ d ]) in
           member "model" v = Some (Sjson.Json.Str model)
           && member "diagnostics" v
              = Some
                  (Sjson.Json.List
                     [
                       Sjson.Json.Obj
                         [
                           ("severity", Sjson.Json.Str "error");
                           ("rule", Sjson.Json.Str rule);
                           ("element", Sjson.Json.Str element);
                           ("message", Sjson.Json.Str message);
                         ];
                     ])));
  ]

let () =
  Alcotest.run "fault"
    [
      ("plan", qcheck_plan_roundtrip :: plan_tests);
      ( "identity",
        [
          qcheck_identity_rtl; qcheck_identity_statechart;
          qcheck_identity_tokens;
        ] );
      ("campaign", campaign_tests @ reference_tests);
      ("classify", classify_tests);
      ("subsets", subset_tests);
      ("perturb", perturb_tests);
      ("json", json_tests);
    ]
