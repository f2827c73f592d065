type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

exception Parse_error of string

(* --- parser ----------------------------------------------------------- *)

type cursor = {
  src : string;
  mutable pos : int;
}

let fail cur fmt =
  Printf.ksprintf
    (fun m -> raise (Parse_error (Printf.sprintf "%s at byte %d" m cur.pos)))
    fmt

let peek cur = if cur.pos < String.length cur.src then Some cur.src.[cur.pos] else None

let advance cur = cur.pos <- cur.pos + 1

let skip_ws cur =
  let rec loop () =
    match peek cur with
    | Some (' ' | '\t' | '\n' | '\r') ->
      advance cur;
      loop ()
    | Some _ | None -> ()
  in
  loop ()

let expect cur c =
  match peek cur with
  | Some c' when c' = c -> advance cur
  | Some c' -> fail cur "expected '%c', found '%c'" c c'
  | None -> fail cur "expected '%c', found end of input" c

let literal cur word value =
  let n = String.length word in
  if
    cur.pos + n <= String.length cur.src
    && String.sub cur.src cur.pos n = word
  then begin
    cur.pos <- cur.pos + n;
    value
  end
  else fail cur "invalid literal"

let hex_digit cur c =
  match c with
  | '0' .. '9' -> Char.code c - Char.code '0'
  | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
  | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
  | _c -> fail cur "invalid hex digit in \\u escape"

let parse_u16 cur =
  if cur.pos + 4 > String.length cur.src then
    fail cur "truncated \\u escape";
  let v =
    (hex_digit cur cur.src.[cur.pos] lsl 12)
    lor (hex_digit cur cur.src.[cur.pos + 1] lsl 8)
    lor (hex_digit cur cur.src.[cur.pos + 2] lsl 4)
    lor hex_digit cur cur.src.[cur.pos + 3]
  in
  cur.pos <- cur.pos + 4;
  v

let add_utf8 buf cp =
  if cp < 0x80 then Buffer.add_char buf (Char.chr cp)
  else if cp < 0x800 then begin
    Buffer.add_char buf (Char.chr (0xC0 lor (cp lsr 6)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
  end
  else if cp < 0x10000 then begin
    Buffer.add_char buf (Char.chr (0xE0 lor (cp lsr 12)));
    Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
  end
  else begin
    Buffer.add_char buf (Char.chr (0xF0 lor (cp lsr 18)));
    Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 12) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
  end

let parse_string cur =
  expect cur '"';
  let buf = Buffer.create 16 in
  let rec loop () =
    match peek cur with
    | None -> fail cur "unterminated string"
    | Some '"' ->
      advance cur;
      Buffer.contents buf
    | Some '\\' ->
      advance cur;
      (match peek cur with
       | None -> fail cur "unterminated escape"
       | Some c ->
         advance cur;
         (match c with
          | '"' -> Buffer.add_char buf '"'
          | '\\' -> Buffer.add_char buf '\\'
          | '/' -> Buffer.add_char buf '/'
          | 'b' -> Buffer.add_char buf '\b'
          | 'f' -> Buffer.add_char buf '\012'
          | 'n' -> Buffer.add_char buf '\n'
          | 'r' -> Buffer.add_char buf '\r'
          | 't' -> Buffer.add_char buf '\t'
          | 'u' ->
            let hi = parse_u16 cur in
            if hi >= 0xD800 && hi <= 0xDBFF then begin
              (* surrogate pair: the low half must follow *)
              if
                cur.pos + 2 <= String.length cur.src
                && cur.src.[cur.pos] = '\\'
                && cur.src.[cur.pos + 1] = 'u'
              then begin
                cur.pos <- cur.pos + 2;
                let lo = parse_u16 cur in
                if lo < 0xDC00 || lo > 0xDFFF then
                  fail cur "invalid low surrogate";
                add_utf8 buf
                  (0x10000 + ((hi - 0xD800) lsl 10) + (lo - 0xDC00))
              end
              else fail cur "unpaired surrogate"
            end
            else if hi >= 0xDC00 && hi <= 0xDFFF then
              fail cur "unpaired surrogate"
            else add_utf8 buf hi
          | _c -> fail cur "invalid escape '\\%c'" c));
      loop ()
    | Some c when Char.code c < 0x20 ->
      fail cur "raw control character in string"
    | Some c ->
      advance cur;
      Buffer.add_char buf c;
      loop ()
  in
  loop ()

let parse_number cur =
  let start = cur.pos in
  let consume pred =
    let rec loop () =
      match peek cur with
      | Some c when pred c ->
        advance cur;
        loop ()
      | Some _ | None -> ()
    in
    loop ()
  in
  if peek cur = Some '-' then advance cur;
  consume (fun c -> c >= '0' && c <= '9');
  let is_float = ref false in
  if peek cur = Some '.' then begin
    is_float := true;
    advance cur;
    consume (fun c -> c >= '0' && c <= '9')
  end;
  (match peek cur with
   | Some ('e' | 'E') ->
     is_float := true;
     advance cur;
     (match peek cur with
      | Some ('+' | '-') -> advance cur
      | Some _ | None -> ());
     consume (fun c -> c >= '0' && c <= '9')
   | Some _ | None -> ());
  let text = String.sub cur.src start (cur.pos - start) in
  if !is_float then
    match float_of_string_opt text with
    | Some f -> Float f
    | None -> fail cur "invalid number %S" text
  else
    match int_of_string_opt text with
    | Some n -> Int n
    | None -> (
      (* integer overflowing native int: keep the value as a float *)
      match float_of_string_opt text with
      | Some f -> Float f
      | None -> fail cur "invalid number %S" text)

(* The comma-separated items between an opening bracket (at the cursor)
   and [close]; [item seen] parses one, given those parsed so far. *)
let sequence cur ~close ~what item =
  advance cur;
  skip_ws cur;
  let rec loop seen =
    let seen = item seen :: seen in
    skip_ws cur;
    match peek cur with
    | Some ',' ->
      advance cur;
      loop seen
    | Some c when c = close ->
      advance cur;
      List.rev seen
    | Some c -> fail cur "expected ',' or '%c', found '%c'" close c
    | None -> fail cur "unterminated %s" what
  in
  if peek cur = Some close then begin
    advance cur;
    []
  end
  else loop []

let rec parse_value cur depth =
  if depth > 128 then fail cur "nesting too deep";
  skip_ws cur;
  match peek cur with
  | None -> fail cur "unexpected end of input"
  | Some 'n' -> literal cur "null" Null
  | Some 't' -> literal cur "true" (Bool true)
  | Some 'f' -> literal cur "false" (Bool false)
  | Some '"' -> Str (parse_string cur)
  | Some ('-' | '0' .. '9') -> parse_number cur
  | Some '[' ->
    List
      (sequence cur ~close:']' ~what:"array" (fun _ ->
           parse_value cur (depth + 1)))
  | Some '{' ->
    Obj
      (sequence cur ~close:'}' ~what:"object" (fun seen ->
           skip_ws cur;
           let key = parse_string cur in
           if List.mem_assoc key seen then fail cur "duplicate key %S" key;
           skip_ws cur;
           expect cur ':';
           (key, parse_value cur (depth + 1))))
  | Some c -> fail cur "unexpected character '%c'" c

let parse s =
  let cur = { src = s; pos = 0 } in
  match
    let v = parse_value cur 0 in
    skip_ws cur;
    (match peek cur with
     | Some _ -> fail cur "trailing bytes after value"
     | None -> ());
    v
  with
  | v -> Ok v
  | exception Parse_error msg -> Error msg

(* --- printer ---------------------------------------------------------- *)

let add_escape buf c =
  match c with
  | '"' -> Buffer.add_string buf "\\\""
  | '\\' -> Buffer.add_string buf "\\\\"
  | '\n' -> Buffer.add_string buf "\\n"
  | '\r' -> Buffer.add_string buf "\\r"
  | '\t' -> Buffer.add_string buf "\\t"
  | c -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))

(* Each run of bytes that needs no escape goes in with one
   [add_substring]; response text is mostly such runs. *)
let escape_into buf s =
  Buffer.add_char buf '"';
  let start = ref 0 in
  for i = 0 to String.length s - 1 do
    match s.[i] with
    | ('"' | '\\' | '\000' .. '\031') as c ->
      Buffer.add_substring buf s !start (i - !start);
      add_escape buf c;
      start := i + 1
    | _c -> ()
  done;
  Buffer.add_substring buf s !start (String.length s - !start);
  Buffer.add_char buf '"'

(* Separators of compact output, or with a space after each. *)
let comma ~spaced = if spaced then ", " else ","

(* An object member up to its value: separator, key and colon. *)
let add_key buf ~spaced ~first k =
  if not first then Buffer.add_string buf (comma ~spaced);
  escape_into buf k;
  Buffer.add_string buf (if spaced then ": " else ":")

(* The shortest of [%.15g], [%.16g], [%.17g] that reads back as [f]. *)
let float_text f =
  let rec at digits =
    let s = Printf.sprintf "%.*g" digits f in
    if digits = 17 || float_of_string s = f then s else at (digits + 1)
  in
  at 15

let rec render buf ~spaced v =
  match v with
  | Null -> Buffer.add_string buf "null"
  | Bool true -> Buffer.add_string buf "true"
  | Bool false -> Buffer.add_string buf "false"
  | Int n -> Buffer.add_string buf (string_of_int n)
  | Float f ->
    if Float.is_nan f || f = Float.infinity || f = Float.neg_infinity then
      Buffer.add_string buf "null"
    else if Float.is_integer f && Float.abs f < 1e15 then
      Buffer.add_string buf (Printf.sprintf "%.0f" f)
    else Buffer.add_string buf (float_text f)
  | Str s -> escape_into buf s
  | List items ->
    Buffer.add_char buf '[';
    List.iteri
      (fun i item ->
        if i > 0 then Buffer.add_string buf (comma ~spaced);
        render buf ~spaced item)
      items;
    Buffer.add_char buf ']'
  | Obj members ->
    Buffer.add_char buf '{';
    List.iteri
      (fun i (k, item) ->
        add_key buf ~spaced ~first:(i = 0) k;
        render buf ~spaced item)
      members;
    Buffer.add_char buf '}'

let to_string v =
  let buf = Buffer.create 128 in
  render buf ~spaced:false v;
  Buffer.contents buf

let to_report members =
  let buf = Buffer.create 1024 in
  (* one item per line at [indent], then a newline *)
  let lines indent add items =
    List.iteri
      (fun i item ->
        Buffer.add_string buf (if i = 0 then "\n" else ",\n");
        Buffer.add_string buf indent;
        add item)
      items;
    Buffer.add_char buf '\n'
  in
  Buffer.add_char buf '{';
  lines "  "
    (fun (k, v) ->
      add_key buf ~spaced:true ~first:true k;
      match v with
      | List items ->
        Buffer.add_char buf '[';
        lines "    " (render buf ~spaced:true) items;
        Buffer.add_string buf "  ]"
      | Null | Bool _ | Int _ | Float _ | Str _ | Obj _ ->
        render buf ~spaced:true v)
    members;
  Buffer.add_string buf "}\n";
  Buffer.contents buf

type encoded = string

let encode s =
  let buf = Buffer.create (String.length s + 2) in
  escape_into buf s;
  Buffer.contents buf

(* The head renders as usual and stays open; then each encoded value is
   blitted once, by [String.concat], into a result of exact size. *)
let splice members tail =
  let head = Buffer.create 256 in
  render head ~spaced:false (Obj members);
  Buffer.truncate head (Buffer.length head - 1);
  let pieces =
    List.mapi
      (fun i (k, v) ->
        let key = Buffer.create (String.length k + 4) in
        add_key key ~spaced:false ~first:(i = 0 && members = []) k;
        [ Buffer.contents key; v ])
      tail
  in
  String.concat "" ((Buffer.contents head :: List.concat pieces) @ [ "}" ])

(* --- accessors -------------------------------------------------------- *)

let member key v =
  match v with
  | Obj members -> List.assoc_opt key members
  | Null | Bool _ | Int _ | Float _ | Str _ | List _ -> None

let to_int v =
  match v with
  | Int n -> Some n
  | Float f when Float.is_integer f && Float.abs f <= 1e15 ->
    Some (int_of_float f)
  | Null | Bool _ | Float _ | Str _ | List _ | Obj _ -> None

let to_str v =
  match v with
  | Str s -> Some s
  | Null | Bool _ | Int _ | Float _ | List _ | Obj _ -> None

let to_bool v =
  match v with
  | Bool b -> Some b
  | Null | Int _ | Float _ | Str _ | List _ | Obj _ -> None

let str_list v =
  match v with
  | Str s -> Some [ s ]
  | List items ->
    List.fold_right
      (fun item acc ->
        match (to_str item, acc) with
        | Some s, Some rest -> Some (s :: rest)
        | Some _, None | None, _ -> None)
      items (Some [])
  | Null | Bool _ | Int _ | Float _ | Obj _ -> None
