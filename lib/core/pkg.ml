type t = {
  pkg_id : Ident.t;
  pkg_name : string;
  pkg_owned : Ident.t list;
  pkg_subpackages : Ident.t list;
  pkg_imports : Ident.t list;
}
[@@deriving eq, ord, show]

let make ?id ?(owned = []) ?(subpackages = []) ?(imports = []) name =
  let pkg_id =
    match id with
    | Some i -> i
    | None -> Ident.fresh ~prefix:"pk" ()
  in
  {
    pkg_id;
    pkg_name = name;
    pkg_owned = owned;
    pkg_subpackages = subpackages;
    pkg_imports = imports;
  }

let add_owned p id = { p with pkg_owned = p.pkg_owned @ [ id ] }

let qualified_name ~parents p =
  String.concat "::" (parents @ [ p.pkg_name ])
