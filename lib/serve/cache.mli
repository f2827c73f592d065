(** Content-hash-keyed LRU cache of loaded models and their derived
    artifacts — the heart of [socuml serve].

    A lookup stats the path first.  When a per-path stat memo says
    the file is unchanged — same device, inode, size, mtime and ctime
    as when its bytes were last hashed, both timestamps at least 2 s
    older than that verification (git's racy-clean rule), and the key
    still resident — the resident {!Artifacts.t} is returned without
    opening the file.  Otherwise the lookup reads the file's bytes,
    hashes them, and returns the resident entry on a hit — the parse
    and every memoized lowering are skipped — then refreshes the memo.
    Keys are content digests, not paths: the same model bytes at two
    paths share one entry, touching a file re-hashes to the same key,
    and editing a file changes its key (stale entries age out by LRU,
    they are never served).  A memo entry is dropped with the cache
    entry it points at.

    Capacity is bounded twice: a maximum entry count and a byte budget,
    where an entry is charged its source-file size (the observable,
    reproducible proxy for the retained graph).  The derivations an
    entry memoizes are not charged: its [gen] answers and their JSON
    encodings ({!Artifacts.encoded}) sit outside the byte budget,
    bounded only by the entry count and the four target languages.
    Inserting past either bound evicts least-recently-used entries; the
    newest entry is never evicted, so a single oversized model still
    caches.

    With a persist directory, every entry parsed from XMI is also
    written as [<key>.sumb]; a later process (or a later miss after
    eviction) finds the snapshot by key and refills via the fast binary
    loader instead of re-parsing XMI — the daemon restarts warm.
    Corrupt or unreadable persisted snapshots never poison a lookup:
    the source file stays authoritative, and the rotten file is
    quarantined — renamed to [<key>.sumb.corrupt] and counted in
    {!stats} — so it is inspected at most once, not re-read on every
    miss.

    All operations are domain-safe behind one lock. *)

type t

(** How a lookup was satisfied. *)
type state =
  | Hit  (** resident in memory *)
  | Snap  (** miss, refilled from a persisted [<key>.sumb] snapshot *)
  | Miss  (** miss, parsed from the source bytes *)

val racy_window_s : float
(** 2 s: how long both of a file's timestamps must predate the
    verification of its bytes before the stat memo is trusted. *)

val state_name : state -> string
(** ["hit"], ["snap"], ["miss"] — the protocol's wire spelling. *)

type stats = {
  cs_entries : int;
  cs_bytes : int;  (** sum of resident entry charges *)
  cs_max_entries : int;
  cs_max_bytes : int;
  cs_hits : int;
  cs_misses : int;  (** includes snapshot refills *)
  cs_snap_refills : int;
  cs_evictions : int;
  cs_persisted : int;  (** snapshots written to the persist dir *)
  cs_quarantined : int;
      (** corrupt persisted snapshots renamed to [.corrupt] *)
}

val create : ?max_entries:int -> ?max_bytes:int -> ?persist_dir:string ->
  unit -> t
(** [max_entries] defaults to 64, [max_bytes] to 256 MiB.  When
    [persist_dir] is given it is created if missing.
    @raise Invalid_argument when a bound is below 1. *)

val load : t -> string -> (Artifacts.t * string * state, string) result
(** [load t path] returns the artifacts, the content key (hex digest of
    the file bytes) and how the lookup was satisfied.  [Error] carries
    the standard one-line {!Load} diagnostic. *)

val stats : t -> stats

val clear : t -> unit
(** Drop every resident entry (counted as evictions), keeping lifetime
    counters and any persisted snapshots — the graceful-degradation
    valve: after a resource crash the daemon sheds its retained graphs
    and refills on demand, warm from the persist dir when present. *)
