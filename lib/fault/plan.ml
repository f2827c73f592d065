type rtl_fault =
  | Bit_flip of { fb_signal : string; fb_cycle : int; fb_bit : int }
  | Stuck_at of { sa_signal : string; sa_value : int; sa_from : int }
[@@deriving eq, show]

type statechart_fault =
  | Drop_event of { de_index : int }
  | Dup_event of { du_index : int }
  | Spurious_event of { sp_index : int; sp_event : string }
[@@deriving eq, show]

type token_fault =
  | Lose_token of { lt_place : string; lt_step : int }
  | Dup_token of { dt_place : string; dt_step : int }
[@@deriving eq, show]

type fault =
  | F_rtl of rtl_fault
  | F_statechart of statechart_fault
  | F_token of token_fault
[@@deriving eq, show]

type t = {
  seed : int;
  faults : fault list;
}
[@@deriving eq, show]

let empty seed = { seed; faults = [] }

(* --- serialization --------------------------------------------------- *)

let fault_to_string = function
  | F_rtl (Bit_flip f) ->
    Printf.sprintf "rtl bit-flip signal=%s cycle=%d bit=%d" f.fb_signal
      f.fb_cycle f.fb_bit
  | F_rtl (Stuck_at f) ->
    Printf.sprintf "rtl stuck-at signal=%s value=%d from=%d" f.sa_signal
      f.sa_value f.sa_from
  | F_statechart (Drop_event f) -> Printf.sprintf "sc drop index=%d" f.de_index
  | F_statechart (Dup_event f) -> Printf.sprintf "sc dup index=%d" f.du_index
  | F_statechart (Spurious_event f) ->
    Printf.sprintf "sc spurious index=%d event=%s" f.sp_index f.sp_event
  | F_token (Lose_token f) ->
    Printf.sprintf "tok lose place=%s step=%d" f.lt_place f.lt_step
  | F_token (Dup_token f) ->
    Printf.sprintf "tok dup place=%s step=%d" f.dt_place f.dt_step

(* key=value fields after the two leading words; names are identifiers
   (no spaces), so splitting on single spaces is lossless *)
let parse_fields words =
  List.fold_left
    (fun acc w ->
      match acc with
      | Error _ as e -> e
      | Ok fields -> (
        match String.index_opt w '=' with
        | None -> Error (Printf.sprintf "malformed field %S" w)
        | Some i ->
          Ok
            ((String.sub w 0 i, String.sub w (i + 1) (String.length w - i - 1))
            :: fields)))
    (Ok []) words

let field fields k =
  match List.assoc_opt k fields with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "missing field %s" k)

let int_field fields k =
  match field fields k with
  | Error _ as e -> e
  | Ok v -> (
    match int_of_string_opt v with
    | Some n -> Ok n
    | None -> Error (Printf.sprintf "field %s is not an integer: %S" k v))

let ( let* ) r f =
  match r with
  | Ok v -> f v
  | Error _ as e -> e

let fault_of_string line =
  match String.split_on_char ' ' (String.trim line) with
  | domain :: kind :: rest -> (
    let* fields = parse_fields rest in
    match (domain, kind) with
    | "rtl", "bit-flip" ->
      let* fb_signal = field fields "signal" in
      let* fb_cycle = int_field fields "cycle" in
      let* fb_bit = int_field fields "bit" in
      Ok (F_rtl (Bit_flip { fb_signal; fb_cycle; fb_bit }))
    | "rtl", "stuck-at" ->
      let* sa_signal = field fields "signal" in
      let* sa_value = int_field fields "value" in
      let* sa_from = int_field fields "from" in
      if sa_value <> 0 && sa_value <> 1 then
        Error (Printf.sprintf "stuck-at value must be 0 or 1, got %d" sa_value)
      else Ok (F_rtl (Stuck_at { sa_signal; sa_value; sa_from }))
    | "sc", "drop" ->
      let* de_index = int_field fields "index" in
      Ok (F_statechart (Drop_event { de_index }))
    | "sc", "dup" ->
      let* du_index = int_field fields "index" in
      Ok (F_statechart (Dup_event { du_index }))
    | "sc", "spurious" ->
      let* sp_index = int_field fields "index" in
      let* sp_event = field fields "event" in
      Ok (F_statechart (Spurious_event { sp_index; sp_event }))
    | "tok", "lose" ->
      let* lt_place = field fields "place" in
      let* lt_step = int_field fields "step" in
      Ok (F_token (Lose_token { lt_place; lt_step }))
    | "tok", "dup" ->
      let* dt_place = field fields "place" in
      let* dt_step = int_field fields "step" in
      Ok (F_token (Dup_token { dt_place; dt_step }))
    | _other ->
      Error (Printf.sprintf "unknown fault kind %S %S" domain kind))
  | _short -> Error (Printf.sprintf "malformed fault line %S" line)

let to_string t =
  String.concat "\n"
    (Printf.sprintf "fault-plan seed=%d" t.seed
     :: List.map fault_to_string t.faults)
  ^ "\n"

let of_string s =
  let lines =
    List.filter
      (fun l -> l <> "" && l.[0] <> '#')
      (List.map String.trim (String.split_on_char '\n' s))
  in
  match lines with
  | [] -> Error "empty fault plan"
  | header :: rest -> (
    match String.split_on_char ' ' header with
    | [ "fault-plan"; seed_field ] -> (
      let* fields = parse_fields [ seed_field ] in
      let* seed = int_field fields "seed" in
      let rec faults acc = function
        | [] -> Ok { seed; faults = List.rev acc }
        | line :: rest ->
          let* f = fault_of_string line in
          faults (f :: acc) rest
      in
      faults [] rest)
    | _other -> Error (Printf.sprintf "malformed plan header %S" header))

(* --- seeded generation ----------------------------------------------- *)

type surface = {
  su_signals : (string * int) list;
  su_cycles : int;
  su_events : string list;
  su_length : int;
  su_places : string list;
  su_steps : int;
}

let rtl_enabled s = s.su_signals <> [] && s.su_cycles > 0
let sc_enabled s = s.su_events <> [] && s.su_length > 0
let token_enabled s = s.su_places <> [] && s.su_steps > 0

let surface_domains s =
  (if rtl_enabled s then [ "rtl" ] else [])
  @ (if sc_enabled s then [ "statechart" ] else [])
  @ if token_enabled s then [ "token" ] else []

let gen_rtl rng s =
  let signal, width = Workload.Prng.pick rng s.su_signals in
  let cycle = Workload.Prng.int rng s.su_cycles in
  if Workload.Prng.bool rng then
    F_rtl (Bit_flip { fb_signal = signal; fb_cycle = cycle; fb_bit = Workload.Prng.int rng (max 1 width) })
  else
    F_rtl
      (Stuck_at
         {
           sa_signal = signal;
           sa_value = (if Workload.Prng.bool rng then 1 else 0);
           sa_from = cycle;
         })

let gen_statechart rng s =
  let index = Workload.Prng.int rng s.su_length in
  match Workload.Prng.int rng 3 with
  | 0 -> F_statechart (Drop_event { de_index = index })
  | 1 -> F_statechart (Dup_event { du_index = index })
  | _spurious ->
    F_statechart
      (Spurious_event
         { sp_index = index; sp_event = Workload.Prng.pick rng s.su_events })

let gen_token rng s =
  let place = Workload.Prng.pick rng s.su_places in
  let step = Workload.Prng.int rng s.su_steps in
  if Workload.Prng.bool rng then
    F_token (Lose_token { lt_place = place; lt_step = step })
  else F_token (Dup_token { dt_place = place; dt_step = step })

let generate ~seed ~count s =
  let gens =
    (if rtl_enabled s then [ gen_rtl ] else [])
    @ (if sc_enabled s then [ gen_statechart ] else [])
    @ if token_enabled s then [ gen_token ] else []
  in
  match gens with
  | [] -> empty seed
  | gens ->
    let rng = Workload.Prng.create seed in
    let n_gens = List.length gens in
    let faults =
      List.init (max 0 count) (fun i -> (List.nth gens (i mod n_gens)) rng s)
    in
    { seed; faults }

let max_count = 100_000
