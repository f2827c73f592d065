(* Per-batch fan-out over raw [Domain]s — stdlib only, so the sealed
   container can build it without domainslib.  Scheduling and the
   determinism contract are documented in pool.mli; the
   accumulate-then-merge rule callers must follow is in DESIGN.md. *)

type t = int  (** the clamped job count *)

let max_jobs = 64

let create ~jobs =
  if jobs < 1 then invalid_arg "Pool.create: jobs must be >= 1";
  min jobs max_jobs

let jobs pool = pool

(* The earlier of two failures by task index. *)
let lowest a b =
  match (a, b) with
  | Some (i, _), Some (j, _) when j < i -> b
  | None, _ -> b
  | Some _, _ -> a

let parallel_for pool ~n f =
  if pool = 1 || n <= 1 then
    for i = 0 to n - 1 do
      f i
    done
  else begin
    let next = Atomic.make 0 in
    (* Claim indices until the batch is drained; every task is attempted.
       One participant's claims ascend, so its first failure is its
       lowest-index one. *)
    let rec participate failed =
      let i = Atomic.fetch_and_add next 1 in
      if i >= n then failed
      else
        match f i with
        | () -> participate failed
        | exception e ->
          participate (if Option.is_none failed then Some (i, e) else failed)
    in
    let helpers =
      List.init (min pool n - 1) (fun _ ->
          Domain.spawn (fun () -> participate None))
    in
    let mine = participate None in
    match List.fold_left lowest mine (List.map Domain.join helpers) with
    | Some (_i, e) -> raise e
    | None -> ()
  end

let map_array pool f xs =
  let n = Array.length xs in
  if n = 0 then [||]
  else begin
    let out = Array.make n None in
    parallel_for pool ~n (fun i -> out.(i) <- Some (f xs.(i)));
    Array.map
      (function
        | Some y -> y
        | None -> invalid_arg "Pool.map_array: task produced no result")
      out
  end

let map_list pool f xs = Array.to_list (map_array pool f (Array.of_list xs))

let with_pool ~jobs f = f (create ~jobs)
