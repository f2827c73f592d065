(** Minimal JSON values for the [socuml serve] wire protocol.

    The toolchain ships no JSON library, so this is a small hand-rolled
    one: a value type, a strict recursive-descent parser and a compact
    deterministic printer.  It covers exactly what the newline-delimited
    request/response protocol needs — no streaming, no number-precision
    heroics (integers are native [int]s, everything else is [float]).

    The printer is the protocol's determinism anchor: object members
    print in construction order, strings escape control characters, and
    the output never contains a raw newline — one response is always
    one line. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list  (** members in order; keys unique *)

val parse : string -> (t, string) result
(** Parse one complete JSON document.  Trailing non-whitespace, control
    characters inside strings, unpaired surrogates in [\u] escapes,
    duplicate object keys and unterminated constructs are all errors;
    the message is one line and names the byte offset. *)

val to_string : t -> string
(** Compact rendering: no whitespace, members in list order, full
    string escaping (["\n"] becomes [\n], so the result is always a
    single line).  Floats that are whole numbers print without an
    exponent; NaN/infinity render as [null] (JSON has no spelling for
    them). *)

(** {1 Pre-encoded strings}

    A response can carry a string that was escaped once and stored,
    instead of escaping it again on every print. *)

type encoded = private string
(** A string printed as a JSON string literal, quotes included. *)

val encode : string -> encoded
(** [encode s] is [to_string (Str s)]: the same escaper, into a buffer
    sized for [s]. *)

val splice : (string * t) list -> (string * encoded) list -> string
(** [splice members tail] is [to_string (Obj (members @ tail'))], where
    [tail'] carries the strings the [tail] values encode.  Each encoded
    value is copied once, into a result of exact size; none is scanned.
    Keys must be unique across both lists. *)

(** {1 Accessors} — shaped for request decoding. *)

val member : string -> t -> t option
(** [member key (Obj ...)] — [None] for absent keys and non-objects. *)

val to_int : t -> int option
(** [Int n], plus [Float f] when [f] is integral. *)

val to_str : t -> string option
val to_bool : t -> bool option

val str_list : t -> string list option
(** A [List] of strings, or a single [Str] treated as a one-element
    list. *)
