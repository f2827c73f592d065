type counter = {
  mutable c_value : int;
  c_on : bool;
}

type gauge = {
  mutable g_last : int;
  mutable g_max : int;
  mutable g_set : bool;  (** ever written; merge skips untouched gauges *)
  g_on : bool;
}

type span_stat = {
  mutable s_count : int;
  mutable s_total : int;
  mutable s_max : int;
}

type field =
  | F_int of int
  | F_bool of bool
  | F_str of string

type event = {
  ev_seq : int;
  ev_tick : int;
  ev_scope : string;
  ev_name : string;
  ev_fields : (string * field) list;
}

type t = {
  on : bool;
  clock : Clock.t;
  counters : (string, counter) Hashtbl.t;
  gauges : (string, gauge) Hashtbl.t;
  spans : (string, span_stat) Hashtbl.t;
  sink : event Ring.t;
  mutable seq : int;
}

let make ~on ~clock ~event_capacity =
  {
    on;
    clock;
    counters = Hashtbl.create 16;
    gauges = Hashtbl.create 8;
    spans = Hashtbl.create 8;
    sink = Ring.create event_capacity;
    seq = 0;
  }

let create ?clock ?(event_capacity = 4096) () =
  let clock =
    match clock with
    | Some c -> c
    | None -> Clock.counting ()
  in
  make ~on:true ~clock ~event_capacity

let disabled () = make ~on:false ~clock:Clock.null ~event_capacity:0
let null = disabled ()
let live t = t.on

let counter t name =
  match Hashtbl.find_opt t.counters name with
  | Some c -> c
  | None ->
    let c = { c_value = 0; c_on = t.on } in
    Hashtbl.replace t.counters name c;
    c

let incr ?(by = 1) c = if c.c_on then c.c_value <- c.c_value + by
let counter_value c = c.c_value

let gauge t name =
  match Hashtbl.find_opt t.gauges name with
  | Some g -> g
  | None ->
    let g = { g_last = 0; g_max = 0; g_set = false; g_on = t.on } in
    Hashtbl.replace t.gauges name g;
    g

let set_gauge g v =
  if g.g_on then begin
    g.g_last <- v;
    g.g_set <- true;
    if v > g.g_max then g.g_max <- v
  end

let gauge_value g = g.g_last
let gauge_max g = g.g_max

let span_stat t name =
  match Hashtbl.find_opt t.spans name with
  | Some s -> s
  | None ->
    let s = { s_count = 0; s_total = 0; s_max = 0 } in
    Hashtbl.replace t.spans name s;
    s

let span t name f =
  if not t.on then f ()
  else begin
    let st = span_stat t name in
    let t0 = Clock.ticks t.clock in
    Fun.protect
      ~finally:(fun () ->
        let dt = max 0 (Clock.ticks t.clock - t0) in
        st.s_count <- st.s_count + 1;
        st.s_total <- st.s_total + dt;
        if dt > st.s_max then st.s_max <- dt)
      f
  end

let event t ~scope name fields =
  if t.on then begin
    let e =
      {
        ev_seq = t.seq;
        ev_tick = Clock.ticks t.clock;
        ev_scope = scope;
        ev_name = name;
        ev_fields = fields;
      }
    in
    t.seq <- t.seq + 1;
    Ring.push t.sink e
  end

(* The same sequence number, clock tick and ring accounting as
   [event]; the fields are built only when the ring keeps the event. *)
let event_lazy t ~scope name fields =
  if t.on then begin
    if Ring.capacity t.sink = 0 then begin
      ignore (Clock.ticks t.clock);
      t.seq <- t.seq + 1;
      Ring.add_dropped t.sink 1
    end
    else event t ~scope name (fields ())
  end

let events t = Ring.to_list t.sink
let events_dropped t = Ring.dropped t.sink

(* --- accumulate-then-merge (parallel fan-out) -------------------------- *)

(* A fork always gets a fresh counting clock: span durations under a
   counting clock are *relative* (the number of clock reads strictly
   inside the span), so a task recording into its own fork reproduces
   exactly the durations it would have recorded into the parent — the
   property the byte-identical [--jobs N] reports rest on. *)
let fork t =
  if not t.on then null
  else
    make ~on:true ~clock:(Clock.counting ())
      ~event_capacity:(Ring.capacity t.sink)

let merge_into ~into src =
  if into.on && src.on && into != src then begin
    Hashtbl.iter
      (fun name (c : counter) ->
        let dst = counter into name in
        dst.c_value <- dst.c_value + c.c_value)
      src.counters;
    Hashtbl.iter
      (fun name (g : gauge) ->
        if g.g_set then begin
          let dst = gauge into name in
          dst.g_last <- g.g_last;
          dst.g_set <- true;
          if g.g_max > dst.g_max then dst.g_max <- g.g_max
        end)
      src.gauges;
    Hashtbl.iter
      (fun name (s : span_stat) ->
        let dst = span_stat into name in
        dst.s_count <- dst.s_count + s.s_count;
        dst.s_total <- dst.s_total + s.s_total;
        if s.s_max > dst.s_max then dst.s_max <- s.s_max)
      src.spans;
    (* Events are re-stamped with the destination's sequence (matching
       what a sequential run would have assigned); ticks stay task-local.
       Sibling drops carry over so recorded+dropped is conserved. *)
    List.iter
      (fun e ->
        Ring.push into.sink { e with ev_seq = into.seq };
        into.seq <- into.seq + 1)
      (Ring.to_list src.sink);
    Ring.add_dropped into.sink (Ring.dropped src.sink)
  end

let field_to_string = function
  | F_int i -> string_of_int i
  | F_bool b -> string_of_bool b
  | F_str s -> s

let render_event e =
  let fields =
    String.concat ""
      (List.map
         (fun (k, v) -> Printf.sprintf " %s=%s" k (field_to_string v))
         e.ev_fields)
  in
  Printf.sprintf "%06d @%d %s/%s%s" e.ev_seq e.ev_tick e.ev_scope e.ev_name
    fields

let sorted_bindings tbl =
  List.sort
    (fun (a, _) (b, _) -> String.compare a b)
    (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])

let report t =
  let b = Buffer.create 256 in
  List.iter
    (fun (name, c) ->
      Buffer.add_string b (Printf.sprintf "counter %-34s %d\n" name c.c_value))
    (sorted_bindings t.counters);
  List.iter
    (fun (name, g) ->
      Buffer.add_string b
        (Printf.sprintf "gauge   %-34s last=%d max=%d\n" name g.g_last g.g_max))
    (sorted_bindings t.gauges);
  List.iter
    (fun (name, s) ->
      Buffer.add_string b
        (Printf.sprintf "span    %-34s count=%d total=%d max=%d\n" name
           s.s_count s.s_total s.s_max))
    (sorted_bindings t.spans);
  Buffer.add_string b
    (Printf.sprintf "events  recorded=%d dropped=%d\n" (Ring.length t.sink)
       (Ring.dropped t.sink));
  Buffer.contents b
