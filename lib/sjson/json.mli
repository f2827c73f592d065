(** Minimal JSON values for the [socuml serve] wire protocol and every
    [--format json] report.

    The toolchain ships no JSON library, so this is a small hand-rolled
    one: a value type, a strict recursive-descent parser and two
    deterministic printers over one string escaper.  No streaming, no
    number-precision heroics (integers are native [int]s, everything
    else is [float]).  Object members print in construction order;
    {!to_string} never emits a raw newline — one response is always
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
    single line).  Floats that are whole numbers below [1e15] print
    without an exponent, other finite floats in the shortest of
    [%.15g], [%.16g] and [%.17g] that reads back equal; NaN/infinity
    render as [null] (JSON has no spelling for them). *)

val to_report : (string * t) list -> string
(** [to_report members] is the object [Obj members] in the report
    layout, ended by a newline: each member on its own line, indented
    by 2; when a member's value is a list, each element on its own line,
    indented by 4, and the closing bracket at 2 (an empty list prints
    ["[\n  ]"]).  Everything deeper is inline, separated by [", "] and
    [": "]; scalars and strings print as in {!to_string}. *)

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
