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

let escape s =
  let buf = Buffer.create (String.length s) in
  let add = function
    | '&' -> Buffer.add_string buf "&amp;"
    | '<' -> Buffer.add_string buf "&lt;"
    | '>' -> Buffer.add_string buf "&gt;"
    | '"' -> Buffer.add_string buf "&quot;"
    | '\'' -> Buffer.add_string buf "&apos;"
    | c -> Buffer.add_char buf c
  in
  String.iter add s;
  Buffer.contents buf

let add_attrs buf attrs =
  let add (k, v) =
    Buffer.add_char buf ' ';
    Buffer.add_string buf k;
    Buffer.add_string buf "=\"";
    Buffer.add_string buf (escape v);
    Buffer.add_char buf '"'
  in
  List.iter add attrs

let rec add_node buf ~indent ~level node =
  let pad () =
    if indent then begin
      if Buffer.length buf > 0 then Buffer.add_char buf '\n';
      Buffer.add_string buf (String.make (2 * level) ' ')
    end
  in
  match node with
  | Text s ->
    (* no padding: keep text adjacent so content round-trips *)
    Buffer.add_string buf (escape s)
  | Element e ->
    pad ();
    Buffer.add_char buf '<';
    Buffer.add_string buf e.tag;
    add_attrs buf e.attrs;
    if e.children = [] then Buffer.add_string buf "/>"
    else begin
      Buffer.add_char buf '>';
      let has_text =
        List.exists
          (function
            | Text _ -> true
            | Element _ -> false)
          e.children
      in
      (* mixed content is serialized inline to preserve text exactly *)
      let child_indent = indent && not has_text in
      List.iter
        (fun c -> add_node buf ~indent:child_indent ~level:(level + 1) c)
        e.children;
      if child_indent then begin
        Buffer.add_char buf '\n';
        Buffer.add_string buf (String.make (2 * level) ' ')
      end;
      Buffer.add_string buf "</";
      Buffer.add_string buf e.tag;
      Buffer.add_char buf '>'
    end

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
