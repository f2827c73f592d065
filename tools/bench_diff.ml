(* Compares two [bench/main.exe --json] result files.

   Usage: bench_diff OLD.json NEW.json

   Work keys (those whose metric segment, the second dot-separated
   field, ends in "_words"), boolean keys and keys present in only one
   file must match exactly: each difference is listed and the exit code
   is 1.  Every other number prints as a new/old ratio and never fails:
   telling a time change from noise needs the parent's spread, which one
   file does not carry. *)

let fail fmt = Printf.ksprintf (fun msg -> prerr_endline msg; exit 2) fmt

let load path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error msg -> fail "bench_diff: %s" msg
  | text -> (
    match Sjson.Json.parse text with
    | Ok (Sjson.Json.Obj members) -> members
    | Ok _ -> fail "bench_diff: %s: not a JSON object" path
    | Error msg -> fail "bench_diff: %s: %s" path msg)

let number = function
  | Sjson.Json.Int i -> Some (float_of_int i)
  | Sjson.Json.Float f -> Some f
  | _ -> None

let is_work key =
  match String.split_on_char '.' key with
  | _ :: metric :: _ -> String.ends_with ~suffix:"_words" metric
  | _ -> false

let show v = Sjson.Json.to_string v

let () =
  let old_path, new_path =
    match Sys.argv with
    | [| _; o; n |] -> (o, n)
    | _ -> fail "usage: bench_diff OLD.json NEW.json"
  in
  let old_members = load old_path and new_members = load new_path in
  let keys =
    List.sort_uniq String.compare (List.map fst old_members @ List.map fst new_members)
  in
  let differences = ref 0 in
  let differ fmt =
    incr differences;
    Printf.printf fmt
  in
  List.iter
    (fun key ->
      match (List.assoc_opt key old_members, List.assoc_opt key new_members) with
      | Some o, None -> differ "only in old  %s = %s\n" key (show o)
      | None, Some n -> differ "only in new  %s = %s\n" key (show n)
      | None, None -> ()
      | Some o, Some n -> (
        let changed () = differ "changed      %s: %s -> %s\n" key (show o) (show n) in
        match (number o, number n) with
        | Some a, Some b when not (is_work key) ->
          Printf.printf "ratio %8.3f %s\n" (b /. a) key
        | Some a, Some b -> if a <> b then changed ()
        (* booleans, and anything else that is not a pair of numbers *)
        | _ -> if o <> n then changed ()))
    keys;
  Printf.printf "%d exact differences\n" !differences;
  if !differences > 0 then exit 1
