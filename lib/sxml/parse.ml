exception Error = Index.Error

let max_depth = Index.max_depth

(* The tree of the index below node [n]. *)
let rec build ix n =
  if Index.is_element ix n then
    let attr a = (Index.attr_name ix a, Index.value ix a) in
    Doc.Element
      {
        tag = Index.tag ix n;
        attrs = List.map attr (Index.attrs ix n);
        children = children ix (Index.first_child ix n);
      }
  else Doc.Text (Index.text ix n)

and[@tail_mod_cons] children ix c =
  if c < 0 then [] else build ix c :: children ix (Index.next_sibling ix c)

let parse_string ?keep_whitespace input =
  build (Index.scan ?keep_whitespace input) Index.root

let error_message = function
  | Error { line; column; message } ->
    Some (Printf.sprintf "XML parse error at %d:%d: %s" line column message)
  | _exn -> None
