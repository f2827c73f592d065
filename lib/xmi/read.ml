exception Import_error of string

let import_error fmt = Printf.ksprintf (fun m -> raise (Import_error m)) fmt

let of_xml doc =
  let each tag (c : _ Codec.codec) add parent =
    List.iter (fun e -> add (c.dec e)) (Sxml.Doc.find_children parent tag)
  in
  match
    let root =
      match doc with
      | Sxml.Doc.Element e when e.Sxml.Doc.tag = "xmi:XMI" -> e
      | Sxml.Doc.Element e ->
        import_error "expected <xmi:XMI>, got <%s>" e.Sxml.Doc.tag
      | Sxml.Doc.Text _ -> import_error "expected an element"
    in
    let model_el =
      match Sxml.Doc.find_child root "uml:Model" with
      | Some e -> e
      | None -> import_error "missing <uml:Model>"
    in
    let m = Uml.Model.create (Codec.get_attr model_el "name") in
    each "packagedElement" Codec.element_codec (Uml.Model.add m) model_el;
    Option.iter
      (each "stereotypeApplication" Codec.application_codec
         (Uml.Model.add_application m))
      (Sxml.Doc.find_child root "applications");
    Option.iter
      (each "diagram" Codec.diagram_codec (Uml.Model.add_diagram m))
      (Sxml.Doc.find_child root "diagrams");
    m
  with
  | m -> m
  | exception Schema.Decode_error msg -> raise (Import_error msg)

let model_of_string s =
  match Sxml.Parse.parse_string s with
  | doc -> of_xml doc
  | exception exn -> (
    match Sxml.Parse.error_message exn with
    | Some m -> raise (Import_error m)
    | None -> raise exn)
