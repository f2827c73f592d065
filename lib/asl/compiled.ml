(* Each memo table is a bounded LRU: entries carry a last-use stamp
   from a shared logical tick, and inserting past the cap evicts the
   least-recently-used entry.  Eviction only ever costs a re-parse on
   the next miss — compiled values are pure functions of the source
   text — so a long-running daemon can hold the tables at a fixed
   size without changing any result. *)

(* The parse outcome, and the slot-resolved closures of a parsed text,
   built on first use: lint reads only the AST, engines only the code.
   Resolution is a pure function of the AST, so two domains racing on
   the first use build equal handles and either may win the cell. *)
type ('ast, 'code) compiled = {
  c_ast : ('ast, string) result;
  c_code : 'code option Atomic.t;
}

type guard = (Ast.expr, Resolve.guard) compiled
type program = (Ast.program, Resolve.program) compiled

type 'a entry = {
  e_value : 'a;
  mutable e_stamp : int;  (** last-use tick, for LRU eviction *)
}

let guards : (string, guard entry) Hashtbl.t = Hashtbl.create 64
let programs : (string, program entry) Hashtbl.t = Hashtbl.create 64

(* The memo tables are process-global and reached from every engine that
   parses behaviors, including parallel campaign/lint tasks on worker
   domains — all access goes through this lock.  (Stdlib [Hashtbl] is
   not domain-safe; unsynchronized concurrent [add]s corrupt it.) *)
let memo_lock = Mutex.create ()

let locked f =
  Mutex.lock memo_lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock memo_lock) f

(* all mutable state below is guarded by [memo_lock] *)
let tick = ref 0
let cap = ref 4096
let hits = ref 0
let misses = ref 0
let evictions = ref 0

let next_stamp () =
  incr tick;
  !tick

(* O(size) scan for the minimum stamp: an eviction is always paired
   with a parse (the expensive part), so linear scans at the cap never
   show up on a profile. *)
let evict_lru table =
  let victim = ref None in
  Hashtbl.iter
    (fun key e ->
      match !victim with
      | Some (_, stamp) when stamp <= e.e_stamp -> ()
      | Some _ | None -> victim := Some (key, e.e_stamp))
    table;
  match !victim with
  | Some (key, _stamp) ->
    Hashtbl.remove table key;
    incr evictions
  | None -> ()

let capture parse src =
  let c_ast =
    match parse src with
    | ast -> Ok ast
    | exception exn -> (
      match Parser.error_message exn with
      | Some m -> Error m
      | None -> raise exn)
  in
  { c_ast; c_code = Atomic.make None }

let memoize table parse src =
  let found =
    locked (fun () ->
        match Hashtbl.find_opt table src with
        | Some e ->
          e.e_stamp <- next_stamp ();
          incr hits;
          Some e.e_value
        | None ->
          incr misses;
          None)
  in
  match found with
  | Some c -> c
  | None ->
    (* parse outside the lock: results are pure functions of [src], so
       two domains racing on a miss just do the work twice and the
       first insert wins — same value either way *)
    let c = capture parse src in
    locked (fun () ->
        match Hashtbl.find_opt table src with
        | Some e ->
          e.e_stamp <- next_stamp ();
          e.e_value
        | None ->
          Hashtbl.add table src { e_value = c; e_stamp = next_stamp () };
          while Hashtbl.length table > !cap do
            evict_lru table
          done;
          c)

let of_program ast = { c_ast = Ok ast; c_code = Atomic.make None }
let guard src = memoize guards Parser.parse_expression src
let program src = memoize programs Parser.parse_program src
let guard_result c = c.c_ast
let program_result c = c.c_ast

let code resolve c =
  match c.c_ast with
  | Error m -> raise (Resolve.Runtime_error m)
  | Ok ast -> (
    match Atomic.get c.c_code with
    | Some h -> h
    | None ->
      let h = resolve ast in
      Atomic.set c.c_code (Some h);
      h)

let guard_code c = code Resolve.guard c
let program_code c = code Resolve.program c

type stats = {
  st_guards : int;
  st_programs : int;
  st_cap : int;
  st_hits : int;
  st_misses : int;
  st_evictions : int;
}

let memo_stats () =
  locked (fun () ->
      {
        st_guards = Hashtbl.length guards;
        st_programs = Hashtbl.length programs;
        st_cap = !cap;
        st_hits = !hits;
        st_misses = !misses;
        st_evictions = !evictions;
      })

let memo_cap () = locked (fun () -> !cap)

let set_memo_cap n =
  if n < 1 then invalid_arg "Asl.Compiled.set_memo_cap: cap < 1";
  locked (fun () ->
      cap := n;
      while Hashtbl.length guards > !cap do
        evict_lru guards
      done;
      while Hashtbl.length programs > !cap do
        evict_lru programs
      done)

let clear_memo () =
  locked (fun () ->
      Hashtbl.reset guards;
      Hashtbl.reset programs)
