let to_xml m =
  let all tag (c : _ Codec.codec) l = List.map (Codec.element tag c.enc) l in
  Sxml.Doc.element
    ~attrs:
      [
        ("xmlns:xmi", "http://schema.omg.org/spec/XMI/2.1");
        ("xmlns:uml", "http://schema.omg.org/spec/UML/2.0");
        ("xmi:version", "2.1");
      ]
    "xmi:XMI"
    [
      Sxml.Doc.element
        ~attrs:[ ("name", Uml.Model.name m) ]
        "uml:Model"
        (all "packagedElement" Codec.element_codec (Uml.Model.elements m));
      Sxml.Doc.element "applications"
        (all "stereotypeApplication" Codec.application_codec
           (Uml.Model.applications m));
      Sxml.Doc.element "diagrams"
        (all "diagram" Codec.diagram_codec (Uml.Model.diagrams m));
    ]

let to_string m =
  let buf = Buffer.create 1024 in
  Sxml.Doc.to_buffer buf (to_xml m);
  Buffer.add_char buf '\n';
  Buffer.contents buf

let write_file m path =
  let oc = open_out path in
  (match output_string oc (to_string m) with
   | () -> close_out oc
   | exception e ->
     close_out_noerr oc;
     raise e)
