exception Error of {
  line : int;
  column : int;
  message : string;
}

let max_depth = 1024

(* Node [n] owns [nodes.(n * node_width) ..]: its tag's span ([- slot -
   1] for a text node, whose text is always in [decoded]), its first
   attribute, its first child and its next sibling ([-1] for none).
   Nodes are numbered in document order, the root first, and so are
   attributes: a node's attributes run up to the next node's first.
   Attribute [a] owns [attrs.(a * attr_width) ..]: its name's span, and
   its value's span or, when decoded, [- slot - 1].  A span packs an
   offset and a length in one int, the length in the low [name_bits]
   or [value_bits] bits; a longer span saturates them, and its end is
   found again from the input: a name's at the first byte that cannot
   be in a name, a value's at the next quote like the opening one.
   Small arrays keep the index cheap to allocate and to collect. *)
let node_width = 4
let attr_width = 2
let name_bits = 8
let value_bits = 24

(* Offsets must fit above the value length bits: 256 GiB. *)
let max_input = 1 lsl (Sys.int_size - 1 - value_bits)

let pack bits start len =
  let mask = (1 lsl bits) - 1 in
  (start lsl bits) lor if len < mask then len else mask

type node = int
type attr = int

type t = {
  input : string;
  nodes : int array;
  n_nodes : int;
  attrs : int array;
  n_attrs : int;
  decoded : string array;
      (** text, and values that held references or CDATA *)
}

(* The scanner works on byte offsets into [input].  Line and column are
   derived from the offset only when an error is raised, so the hot
   paths carry no position bookkeeping.  Attribute values that contain
   no reference are recorded as spans of [input], and whitespace between
   elements is tested in place and dropped; text that is kept is copied
   (XMI carries its data in attributes).  [buf] collects the parts of a
   value or text around references and CDATA, and is empty between
   them. *)
type state = {
  input : string;
  len : int;
  mutable pos : int;
  buf : Buffer.t;
  keep_whitespace : bool;
  mutable nodes : int array;
  mutable n_nodes : int;
  mutable attrs : int array;
  mutable n_attrs : int;
  mutable decoded : string array;
  mutable n_decoded : int;
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

(* --- the record --------------------------------------------------------- *)

(* [a], or a copy with room for at least [need] items when it has
   less: for what the rest of the input will need at the rate seen so
   far, and at least half as much again. *)
let grow st a need fill =
  if need <= Array.length a then a
  else begin
    let rest = need * (st.len - st.pos) / (st.pos + 1) in
    let b = Array.make (need + Int.max (need / 2) (rest + (rest / 8))) fill in
    Array.blit a 0 b 0 (Array.length a);
    b
  end

(* A new childless node whose attributes start at [lo]; returns its
   number. *)
let add_node st start lo =
  let n = st.n_nodes in
  let i = n * node_width in
  st.nodes <- grow st st.nodes (i + node_width) 0;
  let a = st.nodes in
  Array.unsafe_set a i start;
  Array.unsafe_set a (i + 1) lo;
  Array.unsafe_set a (i + 2) (-1);
  Array.unsafe_set a (i + 3) (-1);
  st.n_nodes <- n + 1;
  n

(* Hang [child] under [parent] after [last] (its previous child, or
   [-1]); returns [child], the new last child. *)
let link st parent last child =
  if last < 0 then st.nodes.((parent * node_width) + 2) <- child
  else st.nodes.((last * node_width) + 3) <- child;
  child

let add_decoded st s =
  let k = st.n_decoded in
  st.decoded <- grow st st.decoded (k + 1) "";
  st.decoded.(k) <- s;
  st.n_decoded <- k + 1;
  -k - 1

(* --- scanning ------------------------------------------------------------ *)

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

(* The byte classes are matched in each loop rather than called: these
   loops see every byte of the input. *)
let rec skip_spaces_from input len i =
  if i >= len then i
  else
    match String.unsafe_get input i with
    | ' ' | '\t' | '\n' | '\r' -> skip_spaces_from input len (i + 1)
    | _ -> i

let skip_spaces st = st.pos <- skip_spaces_from st.input st.len st.pos
let blank input i stop = skip_spaces_from input stop i >= stop

let rec name_end input len i =
  if i >= len then i
  else
    match String.unsafe_get input i with
    | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '-' | '.' | ':' ->
      name_end input len (i + 1)
    | _ -> i

(* Move past a name, which starts at the returned offset and stops at
   the new [pos]. *)
let scan_name st =
  let start = st.pos in
  st.pos <- name_end st.input st.len start;
  if st.pos = start then fail st "expected a name";
  start

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

(* The rest of an attribute value from [start], where the value began
   at [first]: its span, or its decoded slot when [buf] holds the part
   before a reference.  [buf] is left empty. *)
let rec read_value st quote first start =
  st.pos <- quoted_end st.input st.len quote start;
  if st.pos >= st.len then fail st "unterminated attribute value"
  else if String.unsafe_get st.input st.pos = quote then begin
    st.pos <- st.pos + 1;
    if Buffer.length st.buf = 0 then pack value_bits first (st.pos - 1 - first)
    else begin
      Buffer.add_substring st.buf st.input start (st.pos - 1 - start);
      let s = Buffer.contents st.buf in
      Buffer.clear st.buf;
      add_decoded st s
    end
  end
  else begin
    Buffer.add_substring st.buf st.input start (st.pos - start);
    st.pos <- st.pos + 1;
    decode_entity st st.buf;
    read_value st quote first st.pos
  end

let read_quoted st =
  let quote = if st.pos < st.len then st.input.[st.pos] else '\000' in
  if quote <> '"' && quote <> '\'' then fail st "expected quoted value";
  st.pos <- st.pos + 1;
  read_value st quote st.pos st.pos

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

(* Close the pending text node of [parent], whose unbuffered tail is
   [input.[start..stop)]; returns the new last child.  Whitespace-only
   text is dropped unless [keep_whitespace], without being copied. *)
let add_text st parent last s =
  link st parent last (add_node st (add_decoded st s) st.n_attrs)

let flush_text st parent last start stop =
  if Buffer.length st.buf = 0 then
    if stop = start then last
    else if (not st.keep_whitespace) && blank st.input start stop then last
    else add_text st parent last (String.sub st.input start (stop - start))
  else begin
    Buffer.add_substring st.buf st.input start (stop - start);
    let s = Buffer.contents st.buf in
    Buffer.clear st.buf;
    if (not st.keep_whitespace) && blank s 0 (String.length s) then last
    else add_text st parent last s
  end

let rec read_attrs st =
  skip_spaces st;
  if not (at st '/' || at st '>') then begin
    let start = scan_name st in
    let name = pack name_bits start (st.pos - start) in
    skip_spaces st;
    if not (at st '=') then fail st "expected '=' after attribute name";
    st.pos <- st.pos + 1;
    skip_spaces st;
    let value = read_quoted st in
    let a = st.n_attrs in
    let i = a * attr_width in
    st.attrs <- grow st st.attrs (i + attr_width) 0;
    Array.unsafe_set st.attrs i name;
    Array.unsafe_set st.attrs (i + 1) value;
    st.n_attrs <- a + 1;
    read_attrs st
  end

let slice input start stop = String.sub input start (stop - start)

(* The spans at [a] and [b] of [input] hold the same [n] bytes from
   [i] on. *)
let rec same_bytes input a b i n =
  i >= n
  || String.unsafe_get input (a + i) = String.unsafe_get input (b + i)
     && same_bytes input a b (i + 1) n

let same_name input a a_stop b b_stop =
  a_stop - a = b_stop - b && same_bytes input a b 0 (a_stop - a)

let rec parse_element st depth =
  (* at '<' of a start tag *)
  if depth > max_depth then
    fail st (Printf.sprintf "elements nested deeper than %d levels" max_depth);
  st.pos <- st.pos + 1;
  let start = scan_name st in
  let stop = st.pos in
  let lo = st.n_attrs in
  read_attrs st;
  let n = add_node st (pack name_bits start (stop - start)) lo in
  if at st '/' then begin
    st.pos <- st.pos + 1;
    if not (at st '>') then fail st "expected '>' after '/'";
    st.pos <- st.pos + 1
  end
  else begin
    if not (at st '>') then fail st "expected '>'";
    st.pos <- st.pos + 1;
    parse_content st n start stop depth (-1)
  end;
  n

(* The content of element [n], whose tag is [input.[tag..tag_stop)],
   up to its closing tag; [last] is its last child so far. *)
and parse_content st n tag tag_stop depth last =
  let start = st.pos in
  st.pos <- text_end st.input st.len start;
  if st.pos >= st.len then
    fail st
      (Printf.sprintf "unterminated element <%s>" (slice st.input tag tag_stop))
  else if String.unsafe_get st.input st.pos = '&' then begin
    Buffer.add_substring st.buf st.input start (st.pos - start);
    st.pos <- st.pos + 1;
    decode_entity st st.buf;
    parse_content st n tag tag_stop depth last
  end
  else
    (* at '<': the byte after it tells what follows *)
    let next =
      if st.pos + 1 < st.len then String.unsafe_get st.input (st.pos + 1)
      else '\000'
    in
    if next = '!' && looking_at st "<![CDATA[" then begin
      Buffer.add_substring st.buf st.input start (st.pos - start);
      read_cdata st;
      parse_content st n tag tag_stop depth last
    end
    else
      let last = flush_text st n last start st.pos in
      match next with
      | '!' when looking_at st "<!--" ->
        skip_comment st;
        parse_content st n tag tag_stop depth last
      | '/' ->
        st.pos <- st.pos + 2;
        let name = scan_name st in
        if not (same_name st.input name st.pos tag tag_stop) then
          fail st
            (Printf.sprintf "mismatched closing tag </%s> (expected </%s>)"
               (slice st.input name st.pos)
               (slice st.input tag tag_stop));
        skip_spaces st;
        if not (at st '>') then fail st "expected '>' in closing tag";
        st.pos <- st.pos + 1
      | '?' ->
        skip_pi st;
        parse_content st n tag tag_stop depth last
      | _ ->
        let child = parse_element st (depth + 1) in
        parse_content st n tag tag_stop depth (link st n last child)

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

let scan ?(keep_whitespace = false) input =
  let len = String.length input in
  let st =
    {
      input;
      len;
      pos = 0;
      buf = Buffer.create 64;
      keep_whitespace;
      (* XMI spends about 150 bytes per element and 24 per attribute:
         these fill a fraction of the way in, and [grow] then sizes
         them for the rest *)
      nodes = Array.make (node_width * ((len / 512) + 1)) 0;
      n_nodes = 0;
      attrs = Array.make (attr_width * ((len / 96) + 1)) 0;
      n_attrs = 0;
      decoded = [||];
      n_decoded = 0;
    }
  in
  if len >= max_input then fail st "document too large to index";
  skip_misc st;
  if not (at st '<') then fail st "expected root element";
  ignore (parse_element st 1 : node);
  skip_misc st;
  if st.pos < st.len then fail st "trailing content after root element";
  {
    input;
    nodes = st.nodes;
    n_nodes = st.n_nodes;
    attrs = st.attrs;
    n_attrs = st.n_attrs;
    decoded = st.decoded;
  }

(* --- reading ------------------------------------------------------------- *)

let root = 0
let field (ix : t) n k = Array.unsafe_get ix.nodes ((n * node_width) + k)
let attr_field (ix : t) a k = Array.unsafe_get ix.attrs ((a * attr_width) + k)
let name_mask = (1 lsl name_bits) - 1
let value_mask = (1 lsl value_bits) - 1

(* The start and the length of the name spanned by [p]. *)
let name_start p = p lsr name_bits

let name_length input p =
  let n = p land name_mask in
  if n < name_mask then n
  else name_end input (String.length input) (name_start p) - name_start p

(* Names are compared on their length, then their first byte, before
   the rest: lookups meet many names of another length or initial. *)
let name_is input p s =
  let n = p land name_mask and len = String.length s in
  (if n < name_mask then n = len else name_length input p = len)
  && len > 0
  && String.unsafe_get input (name_start p) = String.unsafe_get s 0
  && matches input (name_start p) s 1

let name_of input p = String.sub input (name_start p) (name_length input p)
let is_element ix n = field ix n 0 >= 0
let tag (ix : t) n = name_of ix.input (field ix n 0)
let tag_is (ix : t) n s = name_is ix.input (field ix n 0) s

let rec match_name input p keys i =
  if i >= Array.length keys then -1
  else if name_is input p (Array.unsafe_get keys i) then i
  else match_name input p keys (i + 1)

let match_tag (ix : t) n keys = match_name ix.input (field ix n 0) keys 0
let text (ix : t) n = ix.decoded.(-field ix n 0 - 1)
let first_child ix n = field ix n 2
let next_sibling ix n = field ix n 3

let rec element_from ix c =
  if c < 0 || is_element ix c then c else element_from ix (next_sibling ix c)

let first_element ix n = element_from ix (first_child ix n)
let next_element ix c = element_from ix (next_sibling ix c)

let rec tagged_from ix c s =
  if c < 0 || (is_element ix c && tag_is ix c s) then c
  else tagged_from ix (next_sibling ix c) s

let find_child ix n s = tagged_from ix (first_child ix n) s
let next_tagged ix c s = tagged_from ix (next_sibling ix c) s

(* Node [n]'s attributes end where the next node's begin. *)
let attr_stop (ix : t) n =
  if n + 1 < ix.n_nodes then field ix (n + 1) 1 else ix.n_attrs

let rec attr_from (ix : t) a stop name =
  if a >= stop then -1
  else if name_is ix.input (attr_field ix a 0) name then a
  else attr_from ix (a + 1) stop name

let find_attr ix n name = attr_from ix (field ix n 1) (attr_stop ix n) name
let attrs ix n = List.init (attr_stop ix n - field ix n 1) (( + ) (field ix n 1))
let attr_name (ix : t) a = name_of ix.input (attr_field ix a 0)

(* A plain value spanned by [v] ends [value_stop input v]. *)
let value_stop input v =
  let start = v lsr value_bits and n = v land value_mask in
  if n < value_mask then start + n
  else String.index_from input start (String.unsafe_get input (start - 1))

let rec match_span input start stop keys i =
  if i >= Array.length keys then -1
  else
    let k = Array.unsafe_get keys i in
    if stop - start = String.length k && matches input start k 0 then i
    else match_span input start stop keys (i + 1)

let value_from (ix : t) a ~from =
  let v = attr_field ix a 1 in
  if v < 0 then
    let s = ix.decoded.(-v - 1) in
    slice s from (String.length s)
  else slice ix.input ((v lsr value_bits) + from) (value_stop ix.input v)

let value (ix : t) a =
  let v = attr_field ix a 1 in
  if v < 0 then ix.decoded.(-v - 1)
  else slice ix.input (v lsr value_bits) (value_stop ix.input v)

let value_length (ix : t) a =
  let v = attr_field ix a 1 in
  if v < 0 then String.length ix.decoded.(-v - 1)
  else value_stop ix.input v - (v lsr value_bits)

let match_value (ix : t) a ~from keys =
  let v = attr_field ix a 1 in
  if v < 0 then
    let s = ix.decoded.(-v - 1) in
    match_span s from (String.length s) keys 0
  else
    match_span ix.input ((v lsr value_bits) + from) (value_stop ix.input v)
      keys 0

let value_has_prefix (ix : t) a s =
  let v = attr_field ix a 1 in
  if v < 0 then String.starts_with ~prefix:s ix.decoded.(-v - 1)
  else
    let start = v lsr value_bits in
    value_stop ix.input v - start >= String.length s
    && matches ix.input start s 0
