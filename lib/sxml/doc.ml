type attribute = string * string

type t =
  | Element of element
  | Text of string

and element = {
  tag : string;
  attrs : attribute list;
  children : t list;
}

let element ?(attrs = []) tag children = Element { tag; attrs; children }
let text s = Text s

let rec assoc name = function
  | [] -> None
  | (k, v) :: rest -> if String.equal k name then Some v else assoc name rest

let attr e name = assoc name e.attrs

let child_elements e =
  List.filter_map
    (function
      | Element c -> Some c
      | Text _ -> None)
    e.children

(* [find_child] and [find_children] walk [children] directly rather than
   materializing [child_elements] first: XMI import calls them once per
   element kind on every element. *)
let rec first_tagged tag = function
  | [] -> None
  | Element c :: _ when String.equal c.tag tag -> Some c
  | (Element _ | Text _) :: rest -> first_tagged tag rest

let[@tail_mod_cons] rec all_tagged tag = function
  | [] -> []
  | Element c :: rest when String.equal c.tag tag -> c :: all_tagged tag rest
  | (Element _ | Text _) :: rest -> all_tagged tag rest

let find_child e tag = first_tagged tag e.children
let find_children e tag = all_tagged tag e.children

let text_content e =
  let buf = Buffer.create 16 in
  let add = function
    | Text s -> Buffer.add_string buf s
    | Element _ -> ()
  in
  List.iter add e.children;
  Buffer.contents buf

let entity = function
  | '&' -> "&amp;"
  | '<' -> "&lt;"
  | '>' -> "&gt;"
  | '"' -> "&quot;"
  | '\'' -> "&apos;"
  | _ -> ""

(* Escapes [s] from [i] into [buf], each run of plain bytes (from [from])
   in one copy; no closure, so printing allocates nothing per value. *)
let rec add_escaped_from buf s from i =
  if i = String.length s then Buffer.add_substring buf s from (i - from)
  else
    match entity (String.unsafe_get s i) with
    | "" -> add_escaped_from buf s from (i + 1)
    | e ->
      Buffer.add_substring buf s from (i - from);
      Buffer.add_string buf e;
      add_escaped_from buf s (i + 1) (i + 1)

let add_escaped buf s = add_escaped_from buf s 0 0

let escape s =
  let buf = Buffer.create (String.length s) in
  add_escaped buf s;
  Buffer.contents buf

let rec add_attrs buf = function
  | [] -> ()
  | (k, v) :: rest ->
    Buffer.add_char buf ' ';
    Buffer.add_string buf k;
    Buffer.add_string buf "=\"";
    add_escaped buf v;
    Buffer.add_char buf '"';
    add_attrs buf rest

let add_indent buf level = for _ = 1 to level do Buffer.add_string buf "  " done
let is_text = function Text _ -> true | Element _ -> false

let rec add_node buf ~indent ~level node =
  match node with
  | Text s ->
    (* no padding: keep text adjacent so content round-trips *)
    add_escaped buf s
  | Element e ->
    if indent then begin
      if Buffer.length buf > 0 then Buffer.add_char buf '\n';
      add_indent buf level
    end;
    Buffer.add_char buf '<';
    Buffer.add_string buf e.tag;
    add_attrs buf e.attrs;
    if e.children = [] then Buffer.add_string buf "/>"
    else begin
      Buffer.add_char buf '>';
      (* mixed content is serialized inline to preserve text exactly *)
      let child_indent = indent && not (List.exists is_text e.children) in
      add_children buf ~indent:child_indent ~level:(level + 1) e.children;
      if child_indent then begin
        Buffer.add_char buf '\n';
        add_indent buf level
      end;
      Buffer.add_string buf "</";
      Buffer.add_string buf e.tag;
      Buffer.add_char buf '>'
    end

and add_children buf ~indent ~level = function
  | [] -> ()
  | c :: rest ->
    add_node buf ~indent ~level c;
    add_children buf ~indent ~level rest

let to_buffer ?(indent = true) buf node = add_node buf ~indent ~level:0 node

let to_string ?(indent = true) node =
  let buf = Buffer.create 1024 in
  to_buffer ~indent buf node;
  Buffer.contents buf

let sort_attrs attrs =
  List.sort (fun (a, _) (b, _) -> String.compare a b) attrs

let rec equal n1 n2 =
  match n1, n2 with
  | Text s1, Text s2 -> s1 = s2
  | Element e1, Element e2 ->
    e1.tag = e2.tag
    && sort_attrs e1.attrs = sort_attrs e2.attrs
    && List.equal equal e1.children e2.children
  | Text _, Element _ | Element _, Text _ -> false
