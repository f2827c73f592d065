exception Error of {
  line : int;
  column : int;
  message : string;
}

let max_depth = 1024

(* The scanner works on byte offsets into [input].  Line and column are
   derived from the offset only when an error is raised, so the hot
   paths carry no position bookkeeping.  Text and attribute values that
   contain no reference or CDATA are sliced straight out of [input];
   [buf] collects the rest and is empty between text nodes. *)
type state = {
  input : string;
  len : int;
  mutable pos : int;
  buf : Buffer.t;
  keep_whitespace : bool;
}

let position input pos =
  let line = ref 1 and bol = ref 0 in
  for i = 0 to pos - 1 do
    if String.unsafe_get input i = '\n' then begin
      incr line;
      bol := i + 1
    end
  done;
  (!line, pos - !bol + 1)

let fail st message =
  let line, column = position st.input st.pos in
  raise (Error { line; column; message })

let at st c = st.pos < st.len && String.unsafe_get st.input st.pos = c

let rec matches input pos s i =
  i >= String.length s
  || String.unsafe_get input (pos + i) = String.unsafe_get s i
     && matches input pos s (i + 1)

let looking_at st s =
  st.pos + String.length s <= st.len && matches st.input st.pos s 0

(* Offset of the first occurrence of [s] at or after [from], or [len]
   when there is none. *)
let rec search input len s from =
  if from + String.length s > len then len
  else if matches input from s 0 then from
  else search input len s (from + 1)

let is_space c = c = ' ' || c = '\t' || c = '\n' || c = '\r'

let rec skip_spaces_from input len i =
  if i < len && is_space (String.unsafe_get input i) then
    skip_spaces_from input len (i + 1)
  else i

let skip_spaces st = st.pos <- skip_spaces_from st.input st.len st.pos

let rec blank input i stop =
  i >= stop
  || (is_space (String.unsafe_get input i) && blank input (i + 1) stop)

let is_name_char = function
  | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '-' | '.' | ':' -> true
  | _ -> false

let rec name_end input len i =
  if i < len && is_name_char (String.unsafe_get input i) then
    name_end input len (i + 1)
  else i

let read_name st =
  let start = st.pos in
  st.pos <- name_end st.input st.len start;
  if st.pos = start then fail st "expected a name";
  String.sub st.input start (st.pos - start)

let add_utf8 buf code =
  let add c = Buffer.add_char buf (Char.unsafe_chr c) in
  if code < 0x80 then add code
  else if code < 0x800 then begin
    add (0xC0 lor (code lsr 6));
    add (0x80 lor (code land 0x3F))
  end
  else if code < 0x10000 then begin
    add (0xE0 lor (code lsr 12));
    add (0x80 lor ((code lsr 6) land 0x3F));
    add (0x80 lor (code land 0x3F))
  end
  else begin
    add (0xF0 lor (code lsr 18));
    add (0x80 lor ((code lsr 12) land 0x3F));
    add (0x80 lor ((code lsr 6) land 0x3F));
    add (0x80 lor (code land 0x3F))
  end

let decode_entity st buf =
  (* called just past '&' *)
  let start = st.pos in
  (match String.index_from_opt st.input start ';' with
   | Some semi -> st.pos <- semi
   | None ->
     st.pos <- st.len;
     fail st "unterminated entity reference");
  let name = String.sub st.input start (st.pos - start) in
  st.pos <- st.pos + 1 (* ';' *);
  match name with
  | "amp" -> Buffer.add_char buf '&'
  | "lt" -> Buffer.add_char buf '<'
  | "gt" -> Buffer.add_char buf '>'
  | "quot" -> Buffer.add_char buf '"'
  | "apos" -> Buffer.add_char buf '\''
  | _ -> (
    let numeric =
      if String.length name > 1 && name.[0] = '#' then
        let body = String.sub name 1 (String.length name - 1) in
        if String.length body > 1 && (body.[0] = 'x' || body.[0] = 'X') then
          int_of_string_opt ("0x" ^ String.sub body 1 (String.length body - 1))
        else int_of_string_opt body
      else None
    in
    match numeric with
    | Some code ->
      if code < 0 || code > 0x10FFFF then
        fail st
          (Printf.sprintf "character reference &%s; is outside Unicode" name);
      if code >= 0xD800 && code <= 0xDFFF then
        fail st (Printf.sprintf "character reference &%s; is a surrogate" name);
      add_utf8 buf code
    | None -> fail st (Printf.sprintf "unknown entity &%s;" name))

let rec quoted_end input len quote i =
  if i >= len then len
  else
    let c = String.unsafe_get input i in
    if c = quote || c = '&' then i else quoted_end input len quote (i + 1)

(* [input.[start..stop)] appended to whatever [buf] holds, leaving
   [buf] empty: one copy when there was no reference or CDATA. *)
let take st start stop =
  if Buffer.length st.buf = 0 then String.sub st.input start (stop - start)
  else begin
    Buffer.add_substring st.buf st.input start (stop - start);
    let s = Buffer.contents st.buf in
    Buffer.clear st.buf;
    s
  end

let rec read_value st quote =
  let start = st.pos in
  st.pos <- quoted_end st.input st.len quote start;
  if st.pos >= st.len then fail st "unterminated attribute value"
  else if String.unsafe_get st.input st.pos = quote then begin
    st.pos <- st.pos + 1;
    take st start (st.pos - 1)
  end
  else begin
    Buffer.add_substring st.buf st.input start (st.pos - start);
    st.pos <- st.pos + 1;
    decode_entity st st.buf;
    read_value st quote
  end

let read_quoted st =
  let quote = if st.pos < st.len then st.input.[st.pos] else '\000' in
  if quote <> '"' && quote <> '\'' then fail st "expected quoted value";
  st.pos <- st.pos + 1;
  read_value st quote

(* Skip past the next [terminator], starting [skip] bytes on. *)
let skip_through st ~skip terminator message =
  st.pos <- search st.input st.len terminator (st.pos + skip);
  if st.pos >= st.len then fail st message;
  st.pos <- st.pos + String.length terminator

let skip_comment st =
  (* called at "<!--" *)
  skip_through st ~skip:4 "-->" "unterminated comment"

let skip_pi st =
  (* called at "<?" *)
  skip_through st ~skip:2 "?>" "unterminated processing instruction"

let rec skip_doctype st depth =
  (* called past "<!DOCTYPE"; skip to the matching '>' (no nested
     subsets with '>' inside supported beyond bracket balancing) *)
  if st.pos >= st.len then fail st "unterminated DOCTYPE"
  else begin
    let c = String.unsafe_get st.input st.pos in
    st.pos <- st.pos + 1;
    match c with
    | '[' -> skip_doctype st (depth + 1)
    | ']' -> skip_doctype st (depth - 1)
    | '>' when depth = 0 -> ()
    | _ -> skip_doctype st depth
  end

let read_cdata st =
  (* called at "<![CDATA["; the section joins the pending text *)
  let start = st.pos + 9 in
  st.pos <- search st.input st.len "]]>" start;
  if st.pos >= st.len then fail st "unterminated CDATA section";
  Buffer.add_substring st.buf st.input start (st.pos - start);
  st.pos <- st.pos + 3

let rec text_end input len i =
  if i >= len then len
  else
    match String.unsafe_get input i with
    | '<' | '&' -> i
    | _ -> text_end input len (i + 1)

(* Close the pending text node, whose unbuffered tail is
   [input.[start..stop)]: whitespace-only text is dropped unless
   [keep_whitespace], without being copied. *)
let flush_text st start stop acc =
  if Buffer.length st.buf = 0 then
    if stop = start then acc
    else if (not st.keep_whitespace) && blank st.input start stop then acc
    else Doc.Text (take st start stop) :: acc
  else
    let s = take st start stop in
    if (not st.keep_whitespace) && blank s 0 (String.length s) then acc
    else Doc.Text s :: acc

let rec read_attrs st acc =
  skip_spaces st;
  if at st '/' || at st '>' then List.rev acc
  else begin
    let name = read_name st in
    skip_spaces st;
    if not (at st '=') then fail st "expected '=' after attribute name";
    st.pos <- st.pos + 1;
    skip_spaces st;
    let value = read_quoted st in
    read_attrs st ((name, value) :: acc)
  end

let rec parse_element st depth =
  (* at '<' of a start tag *)
  if depth > max_depth then
    fail st (Printf.sprintf "elements nested deeper than %d levels" max_depth);
  st.pos <- st.pos + 1;
  let tag = read_name st in
  let attrs = read_attrs st [] in
  if at st '/' then begin
    st.pos <- st.pos + 1;
    if not (at st '>') then fail st "expected '>' after '/'";
    st.pos <- st.pos + 1;
    Doc.Element { tag; attrs; children = [] }
  end
  else begin
    if not (at st '>') then fail st "expected '>'";
    st.pos <- st.pos + 1;
    let children = parse_content st tag depth [] in
    Doc.Element { tag; attrs; children }
  end

and parse_content st closing_tag depth acc =
  let start = st.pos in
  st.pos <- text_end st.input st.len start;
  if st.pos >= st.len then
    fail st (Printf.sprintf "unterminated element <%s>" closing_tag)
  else if String.unsafe_get st.input st.pos = '&' then begin
    Buffer.add_substring st.buf st.input start (st.pos - start);
    st.pos <- st.pos + 1;
    decode_entity st st.buf;
    parse_content st closing_tag depth acc
  end
  else if looking_at st "<![CDATA[" then begin
    Buffer.add_substring st.buf st.input start (st.pos - start);
    read_cdata st;
    parse_content st closing_tag depth acc
  end
  else begin
    let acc = flush_text st start st.pos acc in
    if looking_at st "<!--" then begin
      skip_comment st;
      parse_content st closing_tag depth acc
    end
    else if looking_at st "</" then begin
      st.pos <- st.pos + 2;
      let name = read_name st in
      if not (String.equal name closing_tag) then
        fail st
          (Printf.sprintf "mismatched closing tag </%s> (expected </%s>)" name
             closing_tag);
      skip_spaces st;
      if not (at st '>') then fail st "expected '>' in closing tag";
      st.pos <- st.pos + 1;
      List.rev acc
    end
    else if looking_at st "<?" then begin
      skip_pi st;
      parse_content st closing_tag depth acc
    end
    else begin
      let child = parse_element st (depth + 1) in
      parse_content st closing_tag depth (child :: acc)
    end
  end

let rec skip_misc st =
  skip_spaces st;
  if looking_at st "<?" then begin
    skip_pi st;
    skip_misc st
  end
  else if looking_at st "<!--" then begin
    skip_comment st;
    skip_misc st
  end
  else if looking_at st "<!DOCTYPE" then begin
    st.pos <- st.pos + 9;
    skip_doctype st 0;
    skip_misc st
  end

let parse_string ?(keep_whitespace = false) input =
  let st =
    {
      input;
      len = String.length input;
      pos = 0;
      buf = Buffer.create 64;
      keep_whitespace;
    }
  in
  skip_misc st;
  if not (at st '<') then fail st "expected root element";
  let root = parse_element st 1 in
  skip_misc st;
  if st.pos < st.len then fail st "trailing content after root element";
  root

let error_message = function
  | Error { line; column; message } ->
    Some (Printf.sprintf "XML parse error at %d:%d: %s" line column message)
  | _exn -> None
