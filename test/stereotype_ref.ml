(* Reference oracle for the differential property in [test_core]: the
   list-scan stereotype queries that [Uml.Model]'s index replaced, kept
   as they were except that they read the model through its interface
   (profiles by projecting [Model.elements], applications from
   [Model.applications]), so any drift in the first-match rules shows
   up as a counterexample.  [tag_int] is [Soc_profile.tag_int]'s old
   body; [application] is the lookup it made. *)

open Uml

let profiles m =
  List.filter_map
    (function Model.E_profile p -> Some p | _e -> None)
    (Model.elements m)

let applications_of m id =
  List.filter
    (fun a -> Ident.equal a.Profile.app_element id)
    (Model.applications m)

let stereotype_named m n =
  let in_profile p =
    match Profile.find_stereotype p n with
    | Some s -> Some (p, s)
    | None -> None
  in
  List.find_map in_profile (profiles m)

let has_stereotype m elt n =
  match stereotype_named m n with
  | None -> false
  | Some (_, ster) ->
    List.exists
      (fun a ->
        Ident.equal a.Profile.app_element elt
        && Ident.equal a.Profile.app_stereotype ster.Profile.ster_id)
      (Model.applications m)

let application m element stereotype =
  match stereotype_named m stereotype with
  | None -> None
  | Some (_, ster) ->
    List.find_opt
      (fun a ->
        Ident.equal a.Profile.app_element element
        && Ident.equal a.Profile.app_stereotype ster.Profile.ster_id)
      (Model.applications m)
    |> Option.map (fun app -> (ster, app))

let tag_int m ~element ~stereotype tagname =
  match stereotype_named m stereotype with
  | None -> None
  | Some (_, ster) -> (
    let app =
      List.find_opt
        (fun a ->
          Ident.equal a.Profile.app_element element
          && Ident.equal a.Profile.app_stereotype ster.Profile.ster_id)
        (Model.applications m)
    in
    match app with
    | None -> None
    | Some app -> (
      match Profile.tag_value ster app tagname with
      | Some (Vspec.Int_literal i) -> Some i
      | Some _ | None -> None))
