exception Import_error of string

let import_error fmt = Printf.ksprintf (fun m -> raise (Import_error m)) fmt

let is_snapshot data =
  let n = String.length Wire.magic in
  String.length data >= n && String.equal (String.sub data 0 n) Wire.magic

let model_of_string data =
  if not (is_snapshot data) then
    import_error "not a model snapshot (bad magic bytes)";
  let d = Wire.Dec.make ~pos:(String.length Wire.magic) data in
  match
    let version = Wire.Dec.u8 d in
    if version <> Wire.format_version then
      Wire.decode_error
        "unsupported snapshot format version %d (this build reads version %d)"
        version Wire.format_version;
    let count = Wire.Dec.varint d in
    (* each table entry costs at least one byte, so a count beyond the
       remaining input is hostile — reject before allocating *)
    if count > String.length data - Wire.Dec.pos d then
      Wire.decode_error "string table count %d exceeds input size" count;
    Wire.Dec.string_table d count;
    let m = Codec.dec_model d in
    if not (Wire.Dec.at_end d) then
      Wire.decode_error "trailing bytes after model body (at byte %d)"
        (Wire.Dec.pos d);
    m
  with
  | m -> m
  | exception Wire.Decode_error msg ->
    import_error "corrupt snapshot: %s" msg
  | exception Invalid_argument msg ->
    (* duplicate element identifier from [Uml.Model.add] *)
    import_error "corrupt snapshot: %s" msg
