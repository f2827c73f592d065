(** Snapshot import: the inverse of {!Write}.

    [model_of_string (Write.to_string m)] returns a model equal to [m]
    per {!Uml.Model.equal} (the qcheck differential in [test_snap]
    proves this against the XMI path).  Hostile inputs — bad magic,
    unsupported version, truncation anywhere, out-of-range string
    references, unknown tags, duplicate identifiers, trailing bytes —
    all raise {!Import_error} with a one-line message. *)

exception Import_error of string

val is_snapshot : string -> bool
(** Do the bytes start with the snapshot magic?  Used by the CLI to
    dispatch between the XMI and snapshot loaders. *)

val model_of_string : string -> Uml.Model.t
(** @raise Import_error on any malformed input. *)
