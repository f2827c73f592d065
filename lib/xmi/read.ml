exception Import_error of string

let import_error fmt = Printf.ksprintf (fun m -> raise (Import_error m)) fmt

let of_index ix =
  let each tag (c : _ Codec.codec) add parent =
    let rec go e =
      if e >= 0 then begin
        add (c.dec ix e);
        go (Sxml.Index.next_tagged ix e tag)
      end
    in
    go (Sxml.Index.find_child ix parent tag)
  in
  match
    let root = Sxml.Index.root in
    if not (Sxml.Index.tag_is ix root "xmi:XMI") then
      import_error "expected <xmi:XMI>, got <%s>" (Sxml.Index.tag ix root);
    let model_el =
      match Sxml.Index.find_child ix root "uml:Model" with
      | -1 -> import_error "missing <uml:Model>"
      | e -> e
    in
    let m = Uml.Model.create (Codec.get_attr ix model_el "name") in
    each "packagedElement" Codec.element_codec (Uml.Model.add m) model_el;
    let section tag item c add =
      match Sxml.Index.find_child ix root tag with
      | -1 -> ()
      | e -> each item c add e
    in
    section "applications" "stereotypeApplication" Codec.application_codec
      (Uml.Model.add_application m);
    section "diagrams" "diagram" Codec.diagram_codec (Uml.Model.add_diagram m);
    m
  with
  | m -> m
  | exception Schema.Decode_error msg -> raise (Import_error msg)

let model_of_string s =
  match Sxml.Index.scan s with
  | ix -> of_index ix
  | exception exn -> (
    match Sxml.Parse.error_message exn with
    | Some m -> raise (Import_error m)
    | None -> raise exn)
