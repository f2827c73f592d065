type port = {
  port_id : Ident.t;
  port_name : string;
  port_provided : Ident.t list;
  port_required : Ident.t list;
  port_is_behavior : bool;
}
[@@deriving eq, ord, show]

type part = {
  part_id : Ident.t;
  part_name : string;
  part_type : Ident.t;
  part_mult : Mult.t;
}
[@@deriving eq, ord, show]

type connector_end = {
  cend_part : Ident.t option;
  cend_port : Ident.t;
}
[@@deriving eq, ord, show]

type connector_kind =
  | Assembly
  | Delegation
[@@deriving eq, ord, show]

type connector = {
  conn_id : Ident.t;
  conn_name : string;
  conn_kind : connector_kind;
  conn_ends : connector_end list;
}
[@@deriving eq, ord, show]

type t = {
  cmp_id : Ident.t;
  cmp_name : string;
  cmp_ports : port list;
  cmp_parts : part list;
  cmp_connectors : connector list;
  cmp_realizations : Ident.t list;
  cmp_behaviors : Ident.t list;
}
[@@deriving eq, ord, show]

let fresh_or prefix = function
  | Some i -> i
  | None -> Ident.fresh ~prefix ()

let port ?id ?(provided = []) ?(required = []) ?(is_behavior = false) name =
  {
    port_id = fresh_or "po" id;
    port_name = name;
    port_provided = provided;
    port_required = required;
    port_is_behavior = is_behavior;
  }

let part ?id ?(mult = Mult.one) name ty =
  { part_id = fresh_or "pt" id; part_name = name; part_type = ty;
    part_mult = mult }

let assembly ?id ?(name = "") ~from_ ~to_ () =
  let (p1, po1), (p2, po2) = from_, to_ in
  {
    conn_id = fresh_or "cn" id;
    conn_name = name;
    conn_kind = Assembly;
    conn_ends =
      [ { cend_part = p1; cend_port = po1 };
        { cend_part = p2; cend_port = po2 } ];
  }

let delegation ?id ?(name = "") ~outer ~inner () =
  let pi, poi = inner in
  {
    conn_id = fresh_or "cn" id;
    conn_name = name;
    conn_kind = Delegation;
    conn_ends =
      [ { cend_part = None; cend_port = outer };
        { cend_part = pi; cend_port = poi } ];
  }

let make ?id ?(ports = []) ?(parts = []) ?(connectors = [])
    ?(realizations = []) ?(behaviors = []) name =
  {
    cmp_id = fresh_or "cp" id;
    cmp_name = name;
    cmp_ports = ports;
    cmp_parts = parts;
    cmp_connectors = connectors;
    cmp_realizations = realizations;
    cmp_behaviors = behaviors;
  }

let find_port c name = List.find_opt (fun p -> p.port_name = name) c.cmp_ports
let find_part c name = List.find_opt (fun p -> p.part_name = name) c.cmp_parts

let dedup ids =
  let add (seen, acc) id =
    if Ident.Set.mem id seen then (seen, acc)
    else (Ident.Set.add id seen, id :: acc)
  in
  let _, acc = List.fold_left add (Ident.Set.empty, []) ids in
  List.rev acc

let provided_interfaces c =
  dedup (List.concat_map (fun p -> p.port_provided) c.cmp_ports)
