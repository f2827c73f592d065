(* Reference oracle for the differential property in [test_sxml]: the
   character-at-a-time parser that [Sxml.Parse] replaced, kept verbatim
   (bar the [Doc] alias), so any drift in trees, error positions or
   messages shows up as a counterexample. *)

module Doc = Sxml.Doc

exception Error of {
  line : int;
  column : int;
  message : string;
}

type state = {
  input : string;
  mutable pos : int;
  mutable line : int;
  mutable bol : int;  (** offset of the beginning of the current line *)
  keep_whitespace : bool;
}

let fail st message =
  raise (Error { line = st.line; column = st.pos - st.bol + 1; message })

let eof st = st.pos >= String.length st.input

let peek st =
  if eof st then '\000' else st.input.[st.pos]

let peek2 st =
  if st.pos + 1 >= String.length st.input then '\000'
  else st.input.[st.pos + 1]

let advance st =
  if not (eof st) then begin
    if st.input.[st.pos] = '\n' then begin
      st.line <- st.line + 1;
      st.bol <- st.pos + 1
    end;
    st.pos <- st.pos + 1
  end

let skip_n st n =
  for _ = 1 to n do
    advance st
  done

let looking_at st s =
  let n = String.length s in
  st.pos + n <= String.length st.input
  && String.sub st.input st.pos n = s

let is_space c = c = ' ' || c = '\t' || c = '\n' || c = '\r'

let skip_spaces st =
  while (not (eof st)) && is_space (peek st) do
    advance st
  done

let is_name_char c =
  (c >= 'a' && c <= 'z')
  || (c >= 'A' && c <= 'Z')
  || (c >= '0' && c <= '9')
  || c = '_' || c = '-' || c = '.' || c = ':'

let read_name st =
  let start = st.pos in
  while (not (eof st)) && is_name_char (peek st) do
    advance st
  done;
  if st.pos = start then fail st "expected a name";
  String.sub st.input start (st.pos - start)

let decode_entity st buf =
  (* called just past '&' *)
  let start = st.pos in
  while (not (eof st)) && peek st <> ';' do
    advance st
  done;
  if eof st then fail st "unterminated entity reference";
  let name = String.sub st.input start (st.pos - start) in
  advance st (* ';' *);
  match name with
  | "amp" -> Buffer.add_char buf '&'
  | "lt" -> Buffer.add_char buf '<'
  | "gt" -> Buffer.add_char buf '>'
  | "quot" -> Buffer.add_char buf '"'
  | "apos" -> Buffer.add_char buf '\''
  | _ ->
    let numeric =
      if String.length name > 1 && name.[0] = '#' then
        let body = String.sub name 1 (String.length name - 1) in
        let value =
          if String.length body > 1 && (body.[0] = 'x' || body.[0] = 'X')
          then
            int_of_string_opt ("0x" ^ String.sub body 1 (String.length body - 1))
          else int_of_string_opt body
        in
        value
      else None
    in
    (match numeric with
     | Some code ->
       if code < 0 || code > 0x10FFFF then
         fail st
           (Printf.sprintf "character reference &%s; is outside Unicode" name);
       if code >= 0xD800 && code <= 0xDFFF then
         fail st
           (Printf.sprintf "character reference &%s; is a surrogate" name);
       (* encode as UTF-8 *)
       let add c = Buffer.add_char buf (Char.chr c) in
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
     | None -> fail st (Printf.sprintf "unknown entity &%s;" name))

let read_quoted st =
  let quote = peek st in
  if quote <> '"' && quote <> '\'' then fail st "expected quoted value";
  advance st;
  let buf = Buffer.create 16 in
  let rec loop () =
    if eof st then fail st "unterminated attribute value"
    else
      let c = peek st in
      if c = quote then advance st
      else if c = '&' then begin
        advance st;
        decode_entity st buf;
        loop ()
      end
      else begin
        Buffer.add_char buf c;
        advance st;
        loop ()
      end
  in
  loop ();
  Buffer.contents buf

let skip_comment st =
  (* called at "<!--" *)
  skip_n st 4;
  let rec loop () =
    if eof st then fail st "unterminated comment"
    else if looking_at st "-->" then skip_n st 3
    else begin
      advance st;
      loop ()
    end
  in
  loop ()

let skip_pi st =
  (* called at "<?" *)
  skip_n st 2;
  let rec loop () =
    if eof st then fail st "unterminated processing instruction"
    else if looking_at st "?>" then skip_n st 2
    else begin
      advance st;
      loop ()
    end
  in
  loop ()

let skip_doctype st =
  (* called at "<!DOCTYPE"; skip to the matching '>' (no nested subsets
     with '>' inside supported beyond bracket balancing) *)
  let depth = ref 0 in
  let rec loop () =
    if eof st then fail st "unterminated DOCTYPE"
    else begin
      let c = peek st in
      advance st;
      match c with
      | '[' ->
        incr depth;
        loop ()
      | ']' ->
        decr depth;
        loop ()
      | '>' when !depth = 0 -> ()
      | _ -> loop ()
    end
  in
  loop ()

let read_cdata st buf =
  (* called at "<![CDATA[" *)
  skip_n st 9;
  let rec loop () =
    if eof st then fail st "unterminated CDATA section"
    else if looking_at st "]]>" then skip_n st 3
    else begin
      Buffer.add_char buf (peek st);
      advance st;
      loop ()
    end
  in
  loop ()

let is_blank s = String.for_all is_space s

let rec parse_element st =
  (* at '<' of a start tag *)
  advance st;
  let tag = read_name st in
  let rec read_attrs acc =
    skip_spaces st;
    let c = peek st in
    if c = '/' || c = '>' then List.rev acc
    else begin
      let name = read_name st in
      skip_spaces st;
      if peek st <> '=' then fail st "expected '=' after attribute name";
      advance st;
      skip_spaces st;
      let value = read_quoted st in
      read_attrs ((name, value) :: acc)
    end
  in
  let attrs = read_attrs [] in
  if peek st = '/' then begin
    advance st;
    if peek st <> '>' then fail st "expected '>' after '/'";
    advance st;
    Doc.element ~attrs tag []
  end
  else begin
    if peek st <> '>' then fail st "expected '>'";
    advance st;
    let children = parse_content st tag in
    Doc.element ~attrs tag children
  end

and parse_content st closing_tag =
  let children = ref [] in
  let textbuf = Buffer.create 16 in
  let flush_text () =
    let s = Buffer.contents textbuf in
    Buffer.clear textbuf;
    if s = "" then ()
    else if (not st.keep_whitespace) && is_blank s then ()
    else children := Doc.text s :: !children
  in
  let rec loop () =
    if eof st then fail st (Printf.sprintf "unterminated element <%s>" closing_tag)
    else if looking_at st "<!--" then begin
      flush_text ();
      skip_comment st;
      loop ()
    end
    else if looking_at st "<![CDATA[" then begin
      read_cdata st textbuf;
      loop ()
    end
    else if looking_at st "</" then begin
      flush_text ();
      skip_n st 2;
      let name = read_name st in
      if name <> closing_tag then
        fail st
          (Printf.sprintf "mismatched closing tag </%s> (expected </%s>)"
             name closing_tag);
      skip_spaces st;
      if peek st <> '>' then fail st "expected '>' in closing tag";
      advance st
    end
    else if peek st = '<' && peek2 st = '?' then begin
      flush_text ();
      skip_pi st;
      loop ()
    end
    else if peek st = '<' then begin
      flush_text ();
      let child = parse_element st in
      children := child :: !children;
      loop ()
    end
    else if peek st = '&' then begin
      advance st;
      decode_entity st textbuf;
      loop ()
    end
    else begin
      Buffer.add_char textbuf (peek st);
      advance st;
      loop ()
    end
  in
  loop ();
  List.rev !children

let parse_string ?(keep_whitespace = false) input =
  let st = { input; pos = 0; line = 1; bol = 0; keep_whitespace } in
  let rec skip_misc () =
    skip_spaces st;
    if looking_at st "<?" then begin
      skip_pi st;
      skip_misc ()
    end
    else if looking_at st "<!--" then begin
      skip_comment st;
      skip_misc ()
    end
    else if looking_at st "<!DOCTYPE" then begin
      skip_n st 9;
      skip_doctype st;
      skip_misc ()
    end
  in
  skip_misc ();
  if eof st || peek st <> '<' then fail st "expected root element";
  let root = parse_element st in
  skip_misc ();
  if not (eof st) then fail st "trailing content after root element";
  root

let error_message = function
  | Error { line; column; message } ->
    Some (Printf.sprintf "XML parse error at %d:%d: %s" line column message)
  | _exn -> None
