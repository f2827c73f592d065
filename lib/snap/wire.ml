let magic = "\xd3SUMB"
let format_version = 1

exception Decode_error of string

let decode_error fmt = Printf.ksprintf (fun m -> raise (Decode_error m)) fmt

let add_varint buf v =
  if v < 0 then invalid_arg "Snap.Wire.add_varint: negative value";
  let rec go v =
    if v < 0x80 then Buffer.add_char buf (Char.chr v)
    else begin
      Buffer.add_char buf (Char.chr (0x80 lor (v land 0x7f)));
      go (v lsr 7)
    end
  in
  go v

(* LEB128 over a raw 63-bit pattern: zigzag maps |v| >= 2^61 onto
   patterns with bit 62 (the native sign bit) set, so the loop shifts
   with [lsr] to stay total on "negative" inputs.  Emits the same bytes
   as [add_varint] whenever the pattern is non-negative. *)
let add_varint63 buf v =
  let rec go v =
    if 0 <= v && v < 0x80 then Buffer.add_char buf (Char.chr v)
    else begin
      Buffer.add_char buf (Char.chr (0x80 lor (v land 0x7f)));
      go (v lsr 7)
    end
  in
  go v

module Enc = struct
  type t = {
    body : Buffer.t;
    index : (string, int) Hashtbl.t;
    mutable pool : string list;  (* interned strings, reverse index order *)
    mutable next : int;
  }

  let create () =
    { body = Buffer.create 4096; index = Hashtbl.create 256; pool = [];
      next = 0 }

  let intern e s =
    match Hashtbl.find_opt e.index s with
    | Some i -> i
    | None ->
      let i = e.next in
      Hashtbl.add e.index s i;
      e.pool <- s :: e.pool;
      e.next <- i + 1;
      i

  let u8 e v = Buffer.add_char e.body (Char.chr (v land 0xff))
  let varint e v = add_varint e.body v

  (* zigzag: order-preserving bijection from int onto the 63-bit
     pattern space, so small magnitudes of either sign stay short.
     [v lsl 1] intentionally wraps for |v| >= 2^61 — the xor folds the
     sign back in and [add_varint63] carries the full pattern, so every
     int round-trips, [min_int] and [max_int] included. *)
  let int e v = add_varint63 e.body ((v lsl 1) lxor (v asr 62))
  let bool e b = u8 e (if b then 1 else 0)

  let float e f =
    let b = Bytes.create 8 in
    Bytes.set_int64_be b 0 (Int64.bits_of_float f);
    Buffer.add_bytes e.body b

  let str e s = varint e (intern e s)

  let opt e f v =
    match v with
    | None -> bool e false
    | Some v ->
      bool e true;
      f e v

  let list e f vs =
    varint e (List.length vs);
    List.iter (f e) vs

  let string_count e = e.next
  let body_bytes e = Buffer.length e.body

  let contents e =
    let out = Buffer.create (Buffer.length e.body + 1024) in
    Buffer.add_string out magic;
    Buffer.add_char out (Char.chr format_version);
    add_varint out e.next;
    List.iter
      (fun s ->
        add_varint out (String.length s);
        Buffer.add_string out s)
      (List.rev e.pool);
    Buffer.add_buffer out e.body;
    Buffer.contents out
end

module Dec = struct
  type t = {
    data : string;
    len : int;
    mutable pos : int;
    mutable table : string array;
    mutable flags : int;
  }

  let make ?(pos = 0) data =
    { data; len = String.length data; pos; table = [||]; flags = 0 }

  let set_table d table = d.table <- table
  let flags d = d.flags
  let set_flags d b = d.flags <- b
  let pos d = d.pos
  let at_end d = d.pos >= d.len

  let u8 d =
    if d.pos >= d.len then
      decode_error "truncated snapshot (input ends at byte %d)" d.pos;
    (* in bounds by the check above *)
    let c = Char.code (String.unsafe_get d.data d.pos) in
    d.pos <- d.pos + 1;
    c

  let rec varint_loop d pos shift acc =
    if pos >= d.len then
      decode_error "truncated snapshot (input ends at byte %d)" pos;
    if shift > 62 then decode_error "varint overflow at byte %d" pos;
    let b = Char.code (String.unsafe_get d.data pos) in
    let acc = acc lor ((b land 0x7f) lsl shift) in
    if b land 0x80 = 0 then begin
      d.pos <- pos + 1;
      acc
    end
    else varint_loop d (pos + 1) (shift + 7) acc

  let varint d =
    (* fast path: one-byte varints dominate every stream (tags, small
       counts, string references), so skip the loop setup for them *)
    let pos = d.pos in
    if pos >= d.len then
      decode_error "truncated snapshot (input ends at byte %d)" pos;
    let b = Char.code (String.unsafe_get d.data pos) in
    if b < 0x80 then begin
      d.pos <- pos + 1;
      b
    end
    else begin
      let v = varint_loop d pos 0 0 in
      (* bit 62 is the native sign bit: a 9-byte varint whose top
         payload bit is set decodes negative and would sail through
         every [<= bound] check downstream (negative list counts,
         negative string references) — reject it here *)
      if v < 0 then decode_error "varint overflow at byte %d" pos;
      v
    end

  (* like [varint] but admits patterns with bit 62 set: zigzag ints
     occupy the full 63-bit space, and the unzigzag in [int] is a
     bijection on it, so no sign check applies *)
  let varint63 d =
    let pos = d.pos in
    if pos >= d.len then
      decode_error "truncated snapshot (input ends at byte %d)" pos;
    let b = Char.code (String.unsafe_get d.data pos) in
    if b < 0x80 then begin
      d.pos <- pos + 1;
      b
    end
    else varint_loop d pos 0 0

  let int d =
    let u = varint63 d in
    (u lsr 1) lxor (-(u land 1))

  let bool d =
    match u8 d with
    | 0 -> false
    | 1 -> true
    | other -> decode_error "bad boolean byte 0x%02x" other

  let float d =
    if d.pos + 8 > d.len then
      decode_error "truncated snapshot (float at byte %d)" d.pos;
    let bits = String.get_int64_be d.data d.pos in
    d.pos <- d.pos + 8;
    Int64.float_of_bits bits

  let raw_string d =
    let n = varint d in
    (* subtraction, not [d.pos + n > d.len]: the addition can wrap for
       n near max_int and slip past the check ([varint] keeps n >= 0) *)
    if n > d.len - d.pos then
      decode_error "truncated snapshot (string of %d bytes at byte %d)" n
        d.pos;
    let s = String.sub d.data d.pos n in
    d.pos <- d.pos + n;
    s

  let str d =
    let i = varint d in
    (* [varint] already rejects negative results; the [i < 0] leg is
       belt-and-braces for the unsafe_get below *)
    if i < 0 || i >= Array.length d.table then
      decode_error "string reference %d out of range (table has %d)" i
        (Array.length d.table);
    (* in bounds by the check above *)
    Array.unsafe_get d.table i

  (* Bulk string-table decode: one allocation per interned string makes
     this the hottest single loop in a load, so the one-byte length
     fast path is inlined rather than going through [raw_string]. *)
  let string_table d count =
    let data = d.data and len = d.len in
    let table = Array.make count "" in
    let pos = ref d.pos in
    for i = 0 to count - 1 do
      let p = !pos in
      if p >= len then
        decode_error "truncated snapshot (input ends at byte %d)" p;
      let b = Char.code (String.unsafe_get data p) in
      let n, p =
        if b < 0x80 then (b, p + 1)
        else begin
          d.pos <- p;
          let n = varint d in
          (n, d.pos)
        end
      in
      if n > len - p then
        decode_error "truncated snapshot (string of %d bytes at byte %d)" n p;
      Array.unsafe_set table i (String.sub data p n);
      pos := p + n
    done;
    d.pos <- !pos;
    d.table <- table

  let opt d f = if bool d then Some (f d) else None

  (* Top-level recursion, not closures nested in [list]: a nested
     [let rec] capturing [f] and [d] allocates per call, and list decode
     runs several times per record.  Direct construction keeps the cost
     at one cons per item; accumulate-and-reverse would double it.
     Hostile counts can reach the input length, so deep lists fall back
     to the tail-recursive shape to bound the stack. *)
  let rec list_direct d f k =
    if k = 0 then []
    else
      let x = f d in
      x :: list_direct d f (k - 1)

  let rec list_deep d f k acc =
    if k = 0 then List.rev acc else list_deep d f (k - 1) (f d :: acc)

  let list d f =
    let n = varint d in
    if n = 0 then []
    else if n <= 4096 then list_direct d f n
    else list_deep d f n []
end
