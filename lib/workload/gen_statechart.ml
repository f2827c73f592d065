open Uml

let event_names n = List.init n (fun i -> Printf.sprintf "ev%d" i)

let event_sequence ~seed ~length n =
  let rng = Prng.create seed in
  let names = event_names n in
  List.init length (fun _ -> Prng.pick rng names)

let flat ~seed ~states ~events =
  let rng = Prng.create seed in
  let names = event_names events in
  let state_list =
    List.init states (fun i -> Smachine.simple_state (Printf.sprintf "S%d" i))
  in
  let arr = Array.of_list state_list in
  let init = Smachine.pseudostate Smachine.Initial in
  let init_tr =
    Smachine.transition ~source:init.Smachine.ps_id
      ~target:arr.(0).Smachine.st_id ()
  in
  (* every state gets one transition per event to a pseudo-random state;
     deterministic target choice keeps runs replayable *)
  let transitions =
    List.concat_map
      (fun (s : Smachine.state) ->
        List.map
          (fun ev ->
            let target = arr.(Prng.int rng states) in
            Smachine.transition
              ~triggers:[ Smachine.Signal_trigger ev ]
              ~source:s.Smachine.st_id ~target:target.Smachine.st_id ())
          names)
      state_list
  in
  let region =
    Smachine.region
      (Smachine.Pseudo init :: List.map (fun s -> Smachine.State s) state_list)
      (init_tr :: transitions)
  in
  Smachine.make (Printf.sprintf "flat_s%d_e%d" states events) [ region ]

let hierarchical ~seed ~depth ~breadth ~events =
  let rng = Prng.create seed in
  let names = event_names events in
  let counter = ref 0 in
  let fresh_name prefix =
    incr counter;
    Printf.sprintf "%s%d" prefix !counter
  in
  (* build a composite tree; returns the state and its region-internal
     transition targets (the children) *)
  let rec build level =
    if level >= depth then Smachine.simple_state (fresh_name "L")
    else begin
      let children = List.init breadth (fun _ -> build (level + 1)) in
      let init = Smachine.pseudostate Smachine.Initial in
      let first =
        match children with
        | c :: _ -> c
        | [] -> assert false
      in
      let init_tr =
        Smachine.transition ~source:init.Smachine.ps_id
          ~target:first.Smachine.st_id ()
      in
      let arr = Array.of_list children in
      let sibling_transitions =
        List.concat_map
          (fun (c : Smachine.state) ->
            (* one or two events move between siblings *)
            let how_many = 1 + Prng.int rng 2 in
            List.init how_many (fun _ ->
                let ev = Prng.pick rng names in
                let target = arr.(Prng.int rng breadth) in
                Smachine.transition
                  ~triggers:[ Smachine.Signal_trigger ev ]
                  ~source:c.Smachine.st_id ~target:target.Smachine.st_id ()))
          children
      in
      let region =
        Smachine.region
          (Smachine.Pseudo init
          :: List.map (fun c -> Smachine.State c) children)
          (init_tr :: sibling_transitions)
      in
      Smachine.composite_state (fresh_name "C") [ region ]
    end
  in
  let root = build 0 in
  let init = Smachine.pseudostate Smachine.Initial in
  let init_tr =
    Smachine.transition ~source:init.Smachine.ps_id ~target:root.Smachine.st_id
      ()
  in
  let top =
    Smachine.region
      [ Smachine.Pseudo init; Smachine.State root ]
      [ init_tr ]
  in
  Smachine.make
    (Printf.sprintf "hier_d%d_b%d_e%d" depth breadth events)
    [ top ]

let asl_heavy ~seed ~states ~events =
  let rng = Prng.create seed in
  let names = event_names events in
  let sts =
    Array.init states (fun i -> Smachine.simple_state (Printf.sprintf "A%d" i))
  in
  let init = Smachine.pseudostate Smachine.Initial in
  (* seeded constants, fixed trip counts: the text varies with the
     seed, the loop shape does not *)
  let effect () =
    Printf.sprintf
      "var s := %d; for i := 1 to 20 do s := s + i * %d; end; var k := 0; \
       while k < 12 do k := k + 1; s := s - %d; end;"
      (Prng.range rng 0 99) (Prng.range rng 2 9) (Prng.range rng 1 9)
  in
  let transitions =
    List.concat_map
      (fun (s : Smachine.state) ->
        List.concat_map
          (fun ev ->
            let guard =
              Printf.sprintf "(%d * %d + %d) mod 7 < %d and event = \"%s\""
                (Prng.range rng 2 50) (Prng.range rng 2 50)
                (Prng.range rng 0 6) (Prng.range rng 1 6) ev
            in
            let target () = sts.(Prng.int rng states).Smachine.st_id in
            [
              Smachine.transition
                ~triggers:[ Smachine.Signal_trigger ev ]
                ~guard ~effect:(effect ()) ~source:s.Smachine.st_id
                ~target:(target ()) ();
              Smachine.transition
                ~triggers:[ Smachine.Signal_trigger ev ]
                ~guard:(Printf.sprintf "not (%s)" guard)
                ~effect:(effect ()) ~source:s.Smachine.st_id
                ~target:(target ()) ();
            ])
          names)
      (Array.to_list sts)
  in
  let init_tr =
    Smachine.transition ~source:init.Smachine.ps_id
      ~target:sts.(0).Smachine.st_id ()
  in
  Smachine.make
    (Printf.sprintf "asl_s%d_e%d" states events)
    [
      Smachine.region
        (Smachine.Pseudo init
        :: List.map (fun s -> Smachine.State s) (Array.to_list sts))
        (init_tr :: transitions);
    ]
