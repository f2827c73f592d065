type state =
  | Hit
  | Snap
  | Miss

let state_name s =
  match s with
  | Hit -> "hit"
  | Snap -> "snap"
  | Miss -> "miss"

type entry = {
  e_artifacts : Artifacts.t;
  e_charge : int;
  mutable e_stamp : int;
}

type stats = {
  cs_entries : int;
  cs_bytes : int;
  cs_max_entries : int;
  cs_max_bytes : int;
  cs_hits : int;
  cs_misses : int;
  cs_snap_refills : int;
  cs_evictions : int;
  cs_persisted : int;
  cs_quarantined : int;
}

(* What a path looked like when its bytes last hashed to [m_key]:
   the racy-clean stat memo that lets a warm hit skip the re-read and
   the hash.  [m_verified_at] is the wall clock taken before that
   stat. *)
type memo = {
  m_dev : int;
  m_ino : int;
  m_size : int;
  m_mtime : float;
  m_ctime : float;
  m_key : string;
  m_verified_at : float;
}

type t = {
  lock : Mutex.t;
  table : (string, entry) Hashtbl.t;
  memo : (string, memo) Hashtbl.t;  (** path -> last verified stat *)
  max_entries : int;
  max_bytes : int;
  persist_dir : string option;
  mutable bytes : int;
  mutable tick : int;
  mutable hits : int;
  mutable misses : int;
  mutable snap_refills : int;
  mutable evictions : int;
  mutable persisted : int;
  mutable quarantined : int;
}

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let create ?(max_entries = 64) ?(max_bytes = 256 * 1024 * 1024) ?persist_dir
    () =
  if max_entries < 1 then invalid_arg "Serve.Cache.create: max_entries < 1";
  if max_bytes < 1 then invalid_arg "Serve.Cache.create: max_bytes < 1";
  (match persist_dir with
   | Some dir when not (Sys.file_exists dir) -> Sys.mkdir dir 0o755
   | Some _ | None -> ());
  {
    lock = Mutex.create ();
    table = Hashtbl.create 64;
    memo = Hashtbl.create 64;
    max_entries;
    max_bytes;
    persist_dir;
    bytes = 0;
    tick = 0;
    hits = 0;
    misses = 0;
    snap_refills = 0;
    evictions = 0;
    persisted = 0;
    quarantined = 0;
  }

let next_stamp t =
  t.tick <- t.tick + 1;
  t.tick

(* A memo never outlives its entry: drop every path that resolved to
   [key] once [key] leaves the table. *)
let forget_key t key =
  Hashtbl.filter_map_inplace
    (fun _path m -> if m.m_key = key then None else Some m)
    t.memo

(* Evict least-recently-used entries until both bounds hold, but never
   the entry inserted by the current lookup — one oversized model must
   still be servable from cache. *)
let enforce_bounds t ~keep =
  let over () =
    Hashtbl.length t.table > t.max_entries || t.bytes > t.max_bytes
  in
  let rec loop () =
    if over () && Hashtbl.length t.table > 1 then begin
      let victim = ref None in
      Hashtbl.iter
        (fun key e ->
          if key <> keep then
            match !victim with
            | Some (_, stamp) when stamp <= e.e_stamp -> ()
            | Some _ | None -> victim := Some (key, e.e_stamp))
        t.table;
      match !victim with
      | Some (key, _stamp) ->
        (match Hashtbl.find_opt t.table key with
         | Some e -> t.bytes <- t.bytes - e.e_charge
         | None -> ());
        Hashtbl.remove t.table key;
        forget_key t key;
        t.evictions <- t.evictions + 1;
        loop ()
      | None -> () (* only the protected entry remains *)
    end
  in
  loop ()

let snap_path dir key = Filename.concat dir (key ^ ".sumb")

(* A persisted snapshot is an optimization, never a correctness input:
   any failure to read or decode it falls back to the source bytes.
   The rotten file itself is quarantined — renamed to [<key>.corrupt]
   and counted — so it is never re-read on every subsequent miss and
   disk rot shows up in [stats] instead of hiding as a silent slow
   path.  Runs under the cache lock (callers hold it). *)
let quarantine t path =
  match Sys.rename path (path ^ ".corrupt") with
  | () -> t.quarantined <- t.quarantined + 1
  | exception Sys_error _ -> ()

let try_refill t key =
  match t.persist_dir with
  | None -> None
  | Some dir -> (
    let path = snap_path dir key in
    if not (Sys.file_exists path) then None
    else
      match Load.read_file_bytes path with
      | exception _ ->
        quarantine t path;
        None
      | data -> (
        match Snap.Read.model_of_string data with
        | m -> Some m
        | exception _ ->
          quarantine t path;
          None))

(* Write-through persistence, atomic against concurrent readers: write
   to a per-process dotfile sibling and rename into place.  Failures
   (full disk, read-only dir) are swallowed — the cache must never turn
   a healthy request into an error. *)
let persist t key model =
  match t.persist_dir with
  | None -> ()
  | Some dir ->
    let path = snap_path dir key in
    if not (Sys.file_exists path) then begin
      match
        (* the pid keeps two daemons that share the dir and miss the
           same key from truncating the inode the other just renamed
           into place *)
        let tmp =
          Filename.concat dir
            (Printf.sprintf ".%s.%d.tmp" key (Unix.getpid ()))
        in
        let oc = open_out_bin tmp in
        (match output_string oc (Snap.Write.to_string model) with
         | () -> close_out oc
         | exception e ->
           close_out_noerr oc;
           raise e);
        Sys.rename tmp path
      with
      | () -> t.persisted <- t.persisted + 1
      | exception _ -> ()
    end

(* git's racy-clean rule (https://git-scm.com/docs/racy-git): a stat
   is only trusted once both its mtime and its ctime lie this many
   seconds before the moment the bytes were verified.  An edit inside
   one timestamp tick of the verifying read — kernel clock ticks,
   FAT's 2 s resolution — may leave every stat field unchanged, so
   such a memo re-hashes until the file has been quiet this long.
   [utimes] can fake mtime but not ctime, hence both. *)
let racy_window_s = 2.0

let same_stat m (st : Unix.stats) =
  m.m_dev = st.Unix.st_dev
  && m.m_ino = st.Unix.st_ino
  && m.m_size = st.Unix.st_size
  && Float.equal m.m_mtime st.Unix.st_mtime
  && Float.equal m.m_ctime st.Unix.st_ctime

let settled m =
  let horizon = m.m_verified_at -. racy_window_s in
  m.m_mtime < horizon && m.m_ctime < horizon

(* Under the lock: answer from a resident entry. *)
let hit t e key =
  e.e_stamp <- next_stamp t;
  t.hits <- t.hits + 1;
  Ok (e.e_artifacts, key, Hit)

(* Under the lock: the hit a settled memo vouches for, if its key is
   still resident. *)
let memo_hit t path st =
  match Hashtbl.find_opt t.memo path with
  | Some m when same_stat m st && settled m -> (
    match Hashtbl.find_opt t.table m.m_key with
    | Some e -> Some (hit t e m.m_key)
    | None -> None)
  | Some _ | None -> None

(* Under the lock, after the slow path: remember what the file looked
   like before it was read, or forget the path when the read did not
   produce a resident entry. *)
let record_memo t path ~now stat result =
  match (stat, result) with
  | Some st, Ok (_art, key, _state) when Hashtbl.mem t.table key ->
    Hashtbl.replace t.memo path
      {
        m_dev = st.Unix.st_dev;
        m_ino = st.Unix.st_ino;
        m_size = st.Unix.st_size;
        m_mtime = st.Unix.st_mtime;
        m_ctime = st.Unix.st_ctime;
        m_key = key;
        m_verified_at = now;
      }
  | (Some _ | None), (Ok _ | Error _) -> Hashtbl.remove t.memo path

(* Read, hash, look up — and on a miss decode, insert and persist. *)
let load_bytes t path =
  match Load.read_bytes path with
  | Error msg -> Error msg
  | Ok data ->
    let key = Digest.to_hex (Digest.string data) in
    locked t (fun () ->
        match Hashtbl.find_opt t.table key with
        | Some e -> hit t e key
        | None ->
          t.misses <- t.misses + 1;
          let refilled = try_refill t key in
          let state, model_result =
            match refilled with
            | Some m ->
              t.snap_refills <- t.snap_refills + 1;
              (Snap, Ok m)
            | None -> (Miss, Load.model_of_bytes ~path data)
          in
          (match model_result with
           | Error msg -> Error msg
           | Ok model ->
             let art = Artifacts.of_model model in
             let e =
               {
                 e_artifacts = art;
                 e_charge = String.length data;
                 e_stamp = next_stamp t;
               }
             in
             Hashtbl.add t.table key e;
             t.bytes <- t.bytes + e.e_charge;
             enforce_bounds t ~keep:key;
             (* parsed from XMI: persist the packed form so the next
                process (or the next post-eviction miss) refills via
                the fast loader *)
             if state = Miss && not (Snap.Read.is_snapshot data) then
               persist t key model;
             Ok (art, key, state)))

(* Stat first: a regular file whose stat matches a settled memo is
   answered from the table without opening it.  Anything else — no
   memo, a changed or racy stat, a stat error, a non-regular file, an
   evicted key — takes the read + hash path and then refreshes or
   drops the memo.  [now] is taken before the stat, so the memo's
   verification stamp never postdates the stat it vouches for. *)
let load t path =
  let now = Unix.gettimeofday () in
  let stat =
    match Unix.stat path with
    | st when st.Unix.st_kind = Unix.S_REG -> Some st
    | _st -> None
    | exception Unix.Unix_error _ -> None
  in
  match Option.bind stat (fun st -> locked t (fun () -> memo_hit t path st))
  with
  | Some result -> result
  | None ->
    let result = load_bytes t path in
    locked t (fun () -> record_memo t path ~now stat result);
    result

let stats t =
  locked t (fun () ->
      {
        cs_entries = Hashtbl.length t.table;
        cs_bytes = t.bytes;
        cs_max_entries = t.max_entries;
        cs_max_bytes = t.max_bytes;
        cs_hits = t.hits;
        cs_misses = t.misses;
        cs_snap_refills = t.snap_refills;
        cs_evictions = t.evictions;
        cs_persisted = t.persisted;
        cs_quarantined = t.quarantined;
      })

(* Degradation valve: drop every entry (the persisted snapshots stay —
   they refill misses cheaply once pressure clears).  Dropped entries
   count as evictions so the stats ledger stays monotonic. *)
let clear t =
  locked t (fun () ->
      let n = Hashtbl.length t.table in
      Hashtbl.reset t.table;
      Hashtbl.reset t.memo;
      t.bytes <- 0;
      t.evictions <- t.evictions + n)
