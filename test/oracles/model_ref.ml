(* Reference oracle for [Uml.Model]'s element order: the id list plus
   hash index that the element list replaced, kept as it was.  The
   differential in [test_core] replays one edit sequence on a model and
   on this shadow and compares [elements], [iter], [fold], [size] and
   every kind projection after each step.  Only element order is
   modelled; stereotype queries have their own oracle. *)

open Uml

type t = {
  mutable order : Ident.t list;  (** reverse insertion order *)
  index : (Ident.t, Model.element) Hashtbl.t;
}

let create () = { order = []; index = Hashtbl.create 16 }

let add m e =
  let id = Model.element_id e in
  if Hashtbl.mem m.index id then
    invalid_arg (Printf.sprintf "Model.add: duplicate identifier %s" id);
  Hashtbl.replace m.index id e;
  m.order <- id :: m.order

let replace m e =
  let id = Model.element_id e in
  if Hashtbl.mem m.index id then Hashtbl.replace m.index id e else add m e

let remove m id =
  if Hashtbl.mem m.index id then begin
    Hashtbl.remove m.index id;
    m.order <- List.filter (fun i -> not (Ident.equal i id)) m.order
  end

let elements m =
  let collect acc id =
    match Hashtbl.find_opt m.index id with
    | Some e -> e :: acc
    | None -> acc
  in
  List.fold_left collect [] m.order

let size m = Hashtbl.length m.index
let copy m = { order = m.order; index = Hashtbl.copy m.index }
