module A = Asl.Ast

(* Bit k of the generator's state repeats with period 2^(k+1), so a
   draw takes the high bits of a 24-bit one rather than a remainder of
   the low bits. *)
let draw rng bound = (Prng.int rng (1 lsl 24) * bound) lsr 24

let pick rng l = List.nth l (draw rng (List.length l))

let weighted rng choices =
  let total = List.fold_left (fun n (w, _) -> n + w) 0 choices in
  let rec go k = function
    | (w, f) :: rest -> if k < w then f () else go (k - w) rest
    | [] -> assert false
  in
  go (draw rng total) choices

let up_to rng n gen = List.init (draw rng (n + 1)) (fun _ -> gen ())

let core_binops =
  [ A.Add; A.Sub; A.Mul; A.Div; A.Lt; A.Le; A.Eq; A.And; A.Or ]

let object_binops = [ A.Mod; A.Ne; A.Gt; A.Ge; A.Concat ]

let rec expr rng ~objects pool depth =
  let int_lit () = A.Int_lit (draw rng 17 - 8) in
  let var () = A.Var (pick rng pool) in
  let self_x () = A.Attr (A.Self, "x") in
  if depth = 0 then
    weighted rng
      ([ (1, int_lit); (1, var); (1, fun () -> A.Bool_lit (draw rng 2 = 1)) ]
      @ if objects then [ (1, self_x) ] else [])
  else
    let sub () = expr rng ~objects pool (depth - 1) in
    let binop ops () =
      let op = pick rng ops in
      let a = sub () in
      let b = sub () in
      A.Binop (op, a, b)
    in
    let core =
      [
        (2, int_lit);
        (2, var);
        (3, binop core_binops);
        (1, fun () -> A.Unop (A.Not, sub ()));
      ]
    in
    if not objects then weighted rng core
    else
      weighted rng
        (core
        @ [
            (1, self_x);
            (1, binop object_binops);
            (1, fun () -> A.Unop (A.Neg, sub ()));
            ( 1,
              fun () ->
                let name = pick rng [ "abs"; "min"; "max"; "to_string" ] in
                let args =
                  match name with
                  | "min" | "max" ->
                    let a = sub () in
                    let b = sub () in
                    [ a; b ]
                  | _one -> [ sub () ]
                in
                A.Call (None, name, args) );
            ( 1,
              fun () ->
                let recv = if draw rng 2 = 0 then A.Self else var () in
                A.Call (Some recv, "bump", [ sub () ]) );
          ])

let rec stmt rng ~objects pool depth =
  let var () = pick rng pool in
  let e () = expr rng ~objects pool 2 in
  let leaf () =
    weighted rng
      ([
         (1, fun () -> A.Skip);
         ( 1,
           fun () ->
             let x = var () in
             A.Var_decl (x, e ()) );
         ( 1,
           fun () ->
             let x = var () in
             A.Assign (A.L_var x, e ()) );
         (1, fun () -> A.Return (Some (e ())));
         (1, fun () -> A.Return None);
         (1, fun () -> A.Send ("sig", [ e () ], None));
       ]
      @
      if not objects then []
      else
        [
          (1, fun () -> A.Assign (A.L_attr (A.Self, "x"), e ()));
          (1, fun () -> A.Expr_stmt (A.Call (None, "print", [ e () ])));
          (1, fun () -> A.Var_decl (var (), A.New "K"));
          (1, fun () -> A.Delete (A.Var (var ())));
          ( 1,
            fun () ->
              let arg = e () in
              A.Send ("sig", [ arg ], Some (A.Var (var ()))) );
        ])
  in
  if depth = 0 then leaf ()
  else
    let block () = up_to rng 3 (fun () -> stmt rng ~objects pool (depth - 1)) in
    weighted rng
      [
        (4, leaf);
        ( 1,
          fun () ->
            let c = e () in
            let t = block () in
            let f = block () in
            A.If (c, t, f) );
        ( 1,
          fun () ->
            let c = e () in
            A.While (c, block ()) );
        ( 1,
          fun () ->
            let x = var () in
            let lo = e () in
            let hi = e () in
            A.For (x, lo, hi, block ()) );
      ]

let program ?(objects = false) rng ~pool =
  up_to rng 8 (fun () -> stmt rng ~objects pool 2)
