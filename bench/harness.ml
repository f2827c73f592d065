(* The bench's one way to measure a row.

   [measure f] calls [f] once to warm up, counts the words that the next
   [word_calls] calls allocate (default 10), then times back-to-back
   batches of about 20 ms (at most 2 000 calls) and keeps the best of
   three batch means, so one slow call is a batch of one.  The clock is
   the wall clock, the only one that sees work on other domains (E16).
   It returns the last call's value, for rows that check what they timed.

   Words are the work column: counted over calls that no timing picks,
   they read the same on every run of the same tree.  [minor_words]
   comes from [Gc.minor_words] (the minor count in [Gc.counters] moves
   only at minor collections on OCaml 5); [alloc_words] adds the blocks
   too large for the minor heap, which go straight to the major heap
   (major minus promoted words).  Both include the 10 words that reading
   [Gc.counters] allocates, spread over the counted calls. *)

type sample = {
  seconds : float;  (** per call: the best of three batch means *)
  minor_words : float;  (** minor-heap words per call *)
  alloc_words : float;  (** minor words plus direct major allocations *)
}

let batch_seconds = 0.02
let max_batch = 2000

let measure ?(word_calls = 10) f =
  let last = ref (f ()) in
  let t0 = Unix.gettimeofday () in
  let minor0 = Gc.minor_words () and _, promoted0, major0 = Gc.counters () in
  for _ = 1 to word_calls do
    last := f ()
  done;
  let minor1 = Gc.minor_words () and _, promoted1, major1 = Gc.counters () in
  let per_call x = x /. float_of_int word_calls in
  let once = per_call (Unix.gettimeofday () -. t0) in
  let minor_words = per_call (minor1 -. minor0) in
  let alloc_words =
    minor_words +. per_call (major1 -. major0 -. (promoted1 -. promoted0))
  in
  let reps =
    max 1 (min max_batch (int_of_float (batch_seconds /. Float.max 1e-6 once)))
  in
  let best = ref infinity in
  for _ = 1 to 3 do
    let t0 = Unix.gettimeofday () in
    for _ = 1 to reps do
      last := f ()
    done;
    best := Float.min !best ((Unix.gettimeofday () -. t0) /. float_of_int reps)
  done;
  (!last, { seconds = !best; minor_words; alloc_words })
