(* Tests for the action language: lexer, parser, typechecker,
   interpreter. *)

let tc name f = Alcotest.test_case name `Quick f
let check = Alcotest.check

(* --- lexer -------------------------------------------------------------- *)

let lexer_tests =
  [
    tc "numbers, idents, operators" (fun () ->
        let toks = Asl.Lexer.tokenize "x := 1 + 2.5;" in
        check Alcotest.int "count" 7 (List.length toks);
        check Alcotest.bool "assign" true
          (List.exists (Asl.Lexer.equal_token Asl.Lexer.ASSIGN) toks));
    tc "keywords are not idents" (fun () ->
        match Asl.Lexer.tokenize "if then else end" with
        | [ Asl.Lexer.KW_IF; Asl.Lexer.KW_THEN; Asl.Lexer.KW_ELSE;
            Asl.Lexer.KW_END; Asl.Lexer.EOF ] ->
          ()
        | _other -> Alcotest.fail "keyword tokens expected");
    tc "string literal with escapes" (fun () ->
        match Asl.Lexer.tokenize "\"a\\nb\"" with
        | [ Asl.Lexer.STRING s; Asl.Lexer.EOF ] ->
          check Alcotest.string "escape" "a\nb" s
        | _other -> Alcotest.fail "string token expected");
    tc "comments skipped" (fun () ->
        match Asl.Lexer.tokenize "1 // comment\n 2" with
        | [ Asl.Lexer.INT 1; Asl.Lexer.INT 2; Asl.Lexer.EOF ] -> ()
        | _other -> Alcotest.fail "two ints expected");
    tc "two-char operators" (fun () ->
        match Asl.Lexer.tokenize "<> <= >= :=" with
        | [ Asl.Lexer.NE; Asl.Lexer.LE; Asl.Lexer.GE; Asl.Lexer.ASSIGN;
            Asl.Lexer.EOF ] ->
          ()
        | _other -> Alcotest.fail "operator tokens expected");
    tc "bad character raises" (fun () ->
        match Asl.Lexer.tokenize "@" with
        | _toks -> Alcotest.fail "expected Lex_error"
        | exception Asl.Lexer.Lex_error _ -> ());
    tc "overflowing integer literal raises Lex_error" (fun () ->
        match Asl.Lexer.tokenize "x := 123456789012345678901;" with
        | _toks -> Alcotest.fail "expected Lex_error"
        | exception Asl.Lexer.Lex_error { position; _ } ->
          check Alcotest.int "position" 5 position);
    tc "overflowing real literal raises Lex_error" (fun () ->
        (* a mantissa far beyond the float range *)
        let lit = String.make 400 '9' ^ ".0" in
        match Asl.Lexer.tokenize lit with
        | [ Asl.Lexer.REAL r; Asl.Lexer.EOF ] ->
          (* float_of_string saturates to infinity rather than failing;
             accept either behavior as long as nothing escapes *)
          check Alcotest.bool "infinite" true (r = infinity)
        | _toks -> Alcotest.fail "one real token expected"
        | exception Asl.Lexer.Lex_error _ -> ());
  ]

(* --- parser -------------------------------------------------------------- *)

let parse_e = Asl.Parser.parse_expression
let parse_p = Asl.Parser.parse_program

let parser_tests =
  [
    tc "precedence: mul over add" (fun () ->
        check Alcotest.bool "1+2*3" true
          (Asl.Ast.equal_expr (parse_e "1 + 2 * 3")
             (Asl.Ast.Binop
                ( Asl.Ast.Add,
                  Asl.Ast.Int_lit 1,
                  Asl.Ast.Binop (Asl.Ast.Mul, Asl.Ast.Int_lit 2, Asl.Ast.Int_lit 3) ))));
    tc "precedence: and over or" (fun () ->
        check Alcotest.bool "a or b and c" true
          (Asl.Ast.equal_expr
             (parse_e "true or false and false")
             (Asl.Ast.Binop
                ( Asl.Ast.Or,
                  Asl.Ast.Bool_lit true,
                  Asl.Ast.Binop
                    (Asl.Ast.And, Asl.Ast.Bool_lit false, Asl.Ast.Bool_lit false) ))));
    tc "comparison binds looser than arithmetic" (fun () ->
        match parse_e "x + 1 > y * 2" with
        | Asl.Ast.Binop (Asl.Ast.Gt, _, _) -> ()
        | _other -> Alcotest.fail "top operator must be >");
    tc "postfix attribute chains" (fun () ->
        check Alcotest.bool "a.b.c" true
          (Asl.Ast.equal_expr (parse_e "a.b.c")
             (Asl.Ast.Attr (Asl.Ast.Attr (Asl.Ast.Var "a", "b"), "c"))));
    tc "method call with arguments" (fun () ->
        match parse_e "self.f(1, x)" with
        | Asl.Ast.Call (Some Asl.Ast.Self, "f", [ _; _ ]) -> ()
        | _other -> Alcotest.fail "call expected");
    tc "parenthesized grouping" (fun () ->
        match parse_e "(1 + 2) * 3" with
        | Asl.Ast.Binop (Asl.Ast.Mul, Asl.Ast.Binop (Asl.Ast.Add, _, _), _) -> ()
        | _other -> Alcotest.fail "mul of sum expected");
    tc "statement forms" (fun () ->
        let p =
          parse_p
            "var x := 1; x := x + 1; if x > 1 then y := 1; else y := 2; end; \
             while x < 5 do x := x + 1; end; for i := 1 to 3 do x := x + i; \
             end; send done(x) to self; return x;"
        in
        check Alcotest.int "seven statements" 7 (List.length p));
    tc "if without else" (fun () ->
        match parse_p "if true then x := 1; end;" with
        | [ Asl.Ast.If (_, [ _ ], []) ] -> ()
        | _other -> Alcotest.fail "if expected");
    tc "attribute assignment" (fun () ->
        match parse_p "self.x := 2;" with
        | [ Asl.Ast.Assign (Asl.Ast.L_attr (Asl.Ast.Self, "x"), _) ] -> ()
        | _other -> Alcotest.fail "attr assign expected");
    tc "new and delete" (fun () ->
        match parse_p "var c := new Counter; delete c;" with
        | [ Asl.Ast.Var_decl ("c", Asl.Ast.New "Counter");
            Asl.Ast.Delete (Asl.Ast.Var "c") ] ->
          ()
        | _other -> Alcotest.fail "new/delete expected");
    tc "parse error on garbage" (fun () ->
        match parse_p "if if;" with
        | _p -> Alcotest.fail "expected Parse_error"
        | exception Asl.Parser.Parse_error _ -> ());
    tc "assignment to literal rejected" (fun () ->
        match parse_p "1 := 2;" with
        | _p -> Alcotest.fail "expected Parse_error"
        | exception Asl.Parser.Parse_error _ -> ());
  ]

(* --- typechecker -------------------------------------------------------- *)

let info_ab : Asl.Typecheck.class_info =
  {
    Asl.Typecheck.class_exists = (fun n -> n = "A" || n = "B");
    attr_type =
      (fun c a ->
        match c, a with
        | "A", "x" -> Some Asl.Typecheck.T_int
        | "A", "peer" -> Some (Asl.Typecheck.T_obj (Some "B"))
        | "B", "flag" -> Some Asl.Typecheck.T_bool
        | _other -> None);
    op_signature =
      (fun c o ->
        match c, o with
        | "A", "inc" -> Some ([ Asl.Typecheck.T_int ], Asl.Typecheck.T_int)
        | _other -> None);
  }

let ok_program ?self_class src =
  match Asl.Typecheck.check_program ?self_class info_ab (parse_p src) with
  | Ok () -> true
  | Error _ -> false

let errors_of ?self_class src =
  match Asl.Typecheck.check_program ?self_class info_ab (parse_p src) with
  | Ok () -> []
  | Error es -> es

let typecheck_tests =
  [
    tc "well-typed program accepted" (fun () ->
        check Alcotest.bool "ok" true
          (ok_program ~self_class:"A"
             "var y := self.x + 1; if y > 0 then self.x := y; end;"));
    tc "unbound variable reported" (fun () ->
        check Alcotest.bool "err" true (errors_of "x := zz + 1;" <> []));
    tc "condition must be boolean" (fun () ->
        check Alcotest.bool "err" true
          (errors_of "if 1 then x := 1; end;" <> []));
    tc "unknown attribute reported" (fun () ->
        check Alcotest.bool "err" true
          (errors_of ~self_class:"A" "y := self.ghost;" <> []));
    tc "attribute through object chain" (fun () ->
        check Alcotest.bool "ok" true
          (ok_program ~self_class:"A" "var f := self.peer.flag;"));
    tc "operation arity checked" (fun () ->
        check Alcotest.bool "err" true
          (errors_of ~self_class:"A" "y := self.inc(1, 2);" <> []));
    tc "operation argument type checked" (fun () ->
        check Alcotest.bool "err" true
          (errors_of ~self_class:"A" "y := self.inc(true);" <> []));
    tc "for bounds must be integers" (fun () ->
        check Alcotest.bool "err" true
          (errors_of "for i := true to 3 do x := i; end;" <> []));
    tc "int promotes to real" (fun () ->
        check Alcotest.bool "ok" true (ok_program "var r := 1.5 + 2;"));
    tc "guard must be boolean" (fun () ->
        check Alcotest.bool "bad" true
          (Asl.Typecheck.check_guard Asl.Typecheck.no_classes (parse_e "1 + 2")
          <> Ok ());
        check Alcotest.bool "good" true
          (Asl.Typecheck.check_guard Asl.Typecheck.no_classes (parse_e "1 < 2")
          = Ok ()));
    tc "unknown class in new" (fun () ->
        check Alcotest.bool "err" true (errors_of "var c := new Ghost;" <> []));
    tc "concat needs a string operand" (fun () ->
        check Alcotest.bool "err" true (errors_of "x := 1 & 2;" <> []);
        check Alcotest.bool "ok" true (ok_program "x := \"n=\" & 2;"));
    tc "send target must be an object" (fun () ->
        check Alcotest.bool "err" true
          (errors_of ~self_class:"A" "send go() to 42;" <> []);
        check Alcotest.bool "ok" true
          (ok_program ~self_class:"A" "send go() to self.peer;"));
    tc "attribute assignment type mismatch" (fun () ->
        check Alcotest.bool "err" true
          (errors_of ~self_class:"A" "self.x := \"oops\";" <> []);
        check Alcotest.bool "ok" true
          (ok_program ~self_class:"A" "self.x := 7;"));
    tc "delete on non-object is rejected" (fun () ->
        check Alcotest.bool "err" true (errors_of "delete 3;" <> []));
  ]

(* --- interpreter ---------------------------------------------------------- *)

let run_int ?fuel ?resolve ?self_ ?params src =
  let store = Asl.Store.create () in
  let interp = Asl.Interp.create ?fuel ?resolve store in
  Asl.Interp.run_compiled ?self_ ?params interp (Asl.Compiled.program src)

let interp_tests =
  [
    tc "arithmetic and return" (fun () ->
        check Alcotest.bool "7" true
          (run_int "return 1 + 2 * 3;" = Some (Asl.Value.V_int 7)));
    tc "mod is mathematical" (fun () ->
        check Alcotest.bool "2" true
          (run_int "return (-3) mod 5;" = Some (Asl.Value.V_int 2)));
    tc "division by zero raises" (fun () ->
        match run_int "return 1 / 0;" with
        | _v -> Alcotest.fail "expected Runtime_error"
        | exception Asl.Interp.Runtime_error _ -> ());
    tc "while loop" (fun () ->
        check Alcotest.bool "10" true
          (run_int "var x := 0; while x < 10 do x := x + 1; end; return x;"
          = Some (Asl.Value.V_int 10)));
    tc "for loop accumulates" (fun () ->
        check Alcotest.bool "55" true
          (run_int
             "var s := 0; for i := 1 to 10 do s := s + i; end; return s;"
          = Some (Asl.Value.V_int 55)));
    tc "short-circuit and" (fun () ->
        (* would raise division by zero if not short-circuited *)
        check Alcotest.bool "false" true
          (run_int "return false and (1 / 0 = 1);"
          = Some (Asl.Value.V_bool false)));
    tc "short-circuit or" (fun () ->
        check Alcotest.bool "true" true
          (run_int "return true or (1 / 0 = 1);"
          = Some (Asl.Value.V_bool true)));
    tc "string concatenation" (fun () ->
        check Alcotest.bool "ab1" true
          (run_int "return \"ab\" & 1;" = Some (Asl.Value.V_string "ab1")));
    tc "builtins" (fun () ->
        check Alcotest.bool "abs" true
          (run_int "return abs(-4);" = Some (Asl.Value.V_int 4));
        check Alcotest.bool "min" true
          (run_int "return min(3, 7);" = Some (Asl.Value.V_int 3));
        check Alcotest.bool "max" true
          (run_int "return max(3, 7);" = Some (Asl.Value.V_int 7)));
    tc "print collects output" (fun () ->
        let store = Asl.Store.create () in
        let interp = Asl.Interp.create store in
        let _r = Asl.Interp.run_compiled interp
            (Asl.Compiled.program "print(1); print(\"two\");") in
        check (Alcotest.list Alcotest.string) "lines" [ "1"; "two" ]
          (Asl.Interp.output interp));
    tc "objects: new, attrs, delete" (fun () ->
        let store = Asl.Store.create () in
        let interp =
          Asl.Interp.create
            ~attr_defaults:(fun _cl -> [ ("x", Asl.Value.V_int 0) ])
            store
        in
        let r =
          Asl.Interp.run_compiled interp
            (Asl.Compiled.program
               "var c := new Counter; c.x := 41; c.x := c.x + 1; return c.x;")
        in
        check Alcotest.bool "42" true (r = Some (Asl.Value.V_int 42));
        check Alcotest.int "live" 1 (Asl.Store.live_count store);
        let _r2 =
          Asl.Interp.run_compiled interp
            (Asl.Compiled.program "var d := new Counter; delete d;")
        in
        check Alcotest.int "still one" 1 (Asl.Store.live_count store));
    tc "deleted object access raises" (fun () ->
        match
          run_int "var c := new K; delete c; return c.x;"
        with
        | _v -> Alcotest.fail "expected Runtime_error"
        | exception Asl.Interp.Runtime_error _ -> ());
    tc "method dispatch through resolver" (fun () ->
        let resolve cl op =
          match cl, op with
          | "K", "double" ->
            Some
              (Asl.Interp.Body
                 (Asl.Interp.body [ "n" ]
                    (Asl.Compiled.program "return n * 2;")))
          | _other -> None
        in
        check Alcotest.bool "84" true
          (run_int ~resolve "var k := new K; return k.double(42);"
          = Some (Asl.Value.V_int 84)));
    tc "recursive method bounded by fuel" (fun () ->
        let resolve cl op =
          match cl, op with
          | "K", "loop" ->
            Some
              (Asl.Interp.Body
                 (Asl.Interp.body [] (Asl.Compiled.program "self.loop();")))
          | _other -> None
        in
        match run_int ~fuel:20_000 ~resolve "var k := new K; k.loop();" with
        | _v -> Alcotest.fail "expected fuel exhaustion"
        | exception Asl.Interp.Runtime_error _ -> ());
    tc "infinite while bounded by fuel" (fun () ->
        match run_int ~fuel:20_000 "while true do ; end;" with
        | _v -> Alcotest.fail "expected fuel exhaustion"
        | exception Asl.Interp.Runtime_error _ -> ());
    tc "send collects signals" (fun () ->
        let store = Asl.Store.create () in
        let interp = Asl.Interp.create store in
        let _r =
          Asl.Interp.run_compiled interp
            (Asl.Compiled.program "send go(1); send stop() to null;")
        in
        match Asl.Interp.drain_signals interp with
        | [ s1; s2 ] ->
          check Alcotest.string "go" "go" s1.Asl.Interp.sig_name;
          check Alcotest.string "stop" "stop" s2.Asl.Interp.sig_name;
          check Alcotest.int "drained" 0
            (List.length (Asl.Interp.drain_signals interp))
        | _other -> Alcotest.fail "two signals expected");
    tc "eval_guard" (fun () ->
        let store = Asl.Store.create () in
        let interp = Asl.Interp.create store in
        check Alcotest.bool "true" true
          (Asl.Interp.eval_guard_compiled
             ~params:[ ("x", Asl.Value.V_int 5) ]
             interp (Asl.Compiled.guard "x > 3"));
        check Alcotest.bool "false" false
          (Asl.Interp.eval_guard_compiled
             ~params:[ ("x", Asl.Value.V_int 2) ]
             interp (Asl.Compiled.guard "x > 3")));
    tc "params are visible" (fun () ->
        check Alcotest.bool "sum" true
          (run_int
             ~params:[ ("a", Asl.Value.V_int 2); ("b", Asl.Value.V_int 3) ]
             "return a + b;"
          = Some (Asl.Value.V_int 5)));
    tc "comparison across int and real" (fun () ->
        check Alcotest.bool "eq" true
          (run_int "return 2 = 2.0;" = Some (Asl.Value.V_bool true)));
  ]

(* differential property: random integer expressions evaluate like a
   reference evaluator written directly in OCaml *)
let gen_int_expr =
  let open QCheck.Gen in
  fix
    (fun self depth ->
      if depth = 0 then map (fun n -> Asl.Ast.Int_lit n) (int_range (-20) 20)
      else
        frequency
          [
            (2, map (fun n -> Asl.Ast.Int_lit n) (int_range (-20) 20));
            ( 3,
              map3
                (fun op a b -> Asl.Ast.Binop (op, a, b))
                (oneofl [ Asl.Ast.Add; Asl.Ast.Sub; Asl.Ast.Mul ])
                (self (depth - 1))
                (self (depth - 1)) );
            (1, map (fun a -> Asl.Ast.Unop (Asl.Ast.Neg, a)) (self (depth - 1)));
          ])
    3

let rec reference_eval (e : Asl.Ast.expr) =
  match e with
  | Asl.Ast.Int_lit n -> n
  | Asl.Ast.Unop (Asl.Ast.Neg, a) -> -reference_eval a
  | Asl.Ast.Binop (Asl.Ast.Add, a, b) -> reference_eval a + reference_eval b
  | Asl.Ast.Binop (Asl.Ast.Sub, a, b) -> reference_eval a - reference_eval b
  | Asl.Ast.Binop (Asl.Ast.Mul, a, b) -> reference_eval a * reference_eval b
  | _other -> failwith "unexpected node"

let property_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"interpreter agrees with reference arithmetic"
         ~count:300 (QCheck.make gen_int_expr)
         (fun e ->
           let store = Asl.Store.create () in
           let interp = Asl.Interp.create store in
           Asl.Interp.eval interp e = Asl.Value.V_int (reference_eval e)));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"lexer raises nothing but Lex_error" ~count:1000
         (QCheck.make
            QCheck.Gen.(
              string_size ~gen:(map Char.chr (int_bound 255)) (int_bound 60)))
         (fun src ->
           match Asl.Lexer.tokenize src with
           | _toks -> true
           | exception Asl.Lexer.Lex_error _ -> true));
  ]

(* --- reference differential ---------------------------------------------- *)

(* [Oracles.Asl_interp_ref] is the tree walker the slot-resolved
   closures replaced.  Both run the same body on stores and registries
   of their own; everything a run can show must match: the result or
   the error text, the signals, the [print] lines, every object of the
   store, and the [asl.*] counters.  Runs at truncated fuel pin the
   point where fuel runs out, since the counters and store effects
   read at that error are those of the step it stopped at. *)

module Ref = Oracles.Asl_interp_ref

type outcome =
  | Returned of Asl.Value.t option
  | Failed of string

let outcome f =
  match f () with
  | v -> Returned v
  | exception Asl.Interp.Runtime_error m -> Failed m

let show_outcome = function
  | Returned None -> "returned nothing"
  | Returned (Some v) -> "returned " ^ Asl.Value.show v
  | Failed m -> "failed: " ^ m

let counter_names = [ "asl.statements"; "asl.store_reads"; "asl.store_writes" ]

let counters reg =
  List.map
    (fun n -> Telemetry.Metrics.counter_value (Telemetry.Metrics.counter reg n))
    counter_names

(* Object references are allocated from 1 up.  The first 512 are
   compared object by object (dead ones read as absent); past them only
   the live count is. *)
let store_contents store =
  ( Asl.Store.live_count store,
    List.init 512 (fun i ->
        let r = i + 1 in
        (Asl.Store.class_of store r, Asl.Store.attrs store r)) )

(* The class the object programs run against: [K] with one attribute
   and the [bump] operation of test_xuml's models. *)
let bump_src = "self.x := self.x + d; return self.x;"
let k_defaults _class = [ ("x", Asl.Value.V_int 5) ]

let compiled_methods cl op =
  match cl, op with
  | "K", "bump" ->
    Some
      (Asl.Interp.Body
         (Asl.Interp.body [ "d" ] (Asl.Compiled.program bump_src)))
  | _cl, _op -> None

let ref_methods cl op =
  match cl, op with
  | "K", "bump" -> Some (Ref.Body ([ "d" ], Asl.Parser.parse_program bump_src))
  | _cl, _op -> None

(* One run on each side, [compiled] and [reference] given the
   interpreter and [self]; [None] when they agree, else what differs. *)
let differ ?(methods = (compiled_methods, ref_methods)) ~what ~fuel compiled
    reference =
  let c_methods, r_methods = methods in
  let c_store = Asl.Store.create () and r_store = Asl.Store.create () in
  let c_reg = Telemetry.Metrics.create () and r_reg = Telemetry.Metrics.create () in
  let c =
    Asl.Interp.create ~fuel ~resolve:c_methods ~attr_defaults:k_defaults
      ~metrics:c_reg c_store
  in
  let r =
    Ref.create ~fuel ~resolve:r_methods ~attr_defaults:k_defaults
      ~metrics:r_reg r_store
  in
  let self_ store =
    Asl.Value.V_obj (Asl.Store.alloc store ~class_name:"K" ~attrs:(k_defaults "K"))
  in
  let c_out = outcome (fun () -> compiled c (self_ c_store)) in
  let r_out = outcome (fun () -> reference r (self_ r_store)) in
  let same_effects =
    ( Asl.Interp.drain_signals c,
      Asl.Interp.output c,
      store_contents c_store,
      counters c_reg )
    = (Ref.drain_signals r, Ref.output r, store_contents r_store, counters r_reg)
  in
  if c_out = r_out && same_effects then None
  else
    Some
      (Printf.sprintf "%s at fuel %d: compiled %s, reference %s%s" what fuel
         (show_outcome c_out) (show_outcome r_out)
         (if c_out = r_out then " (other effects differ)" else ""))

let check_agree = function
  | None -> ()
  | Some m -> Alcotest.fail m

(* Programs name the engine's event parameters too, so the slots the
   resolver binds for [event] and [e1].. are read and written. *)
let pool = [ "a"; "b"; "c"; "d"; "e1"; "e2"; "event" ]

type binding =
  | Named of (string * Asl.Value.t) list
  | Event of string * Asl.Value.t list

(* The names the statechart engine gave event arguments before they
   had slots. *)
let event_params event args =
  ("event", Asl.Value.V_string event)
  :: List.mapi (fun i v -> (Printf.sprintf "e%d" (i + 1), v)) args

let gen_program_case =
  let open QCheck.Gen in
  let value = map (fun n -> Asl.Value.V_int n) (int_range (-8) 8) in
  let binding =
    frequency
      [
        ( 1,
          map
            (fun l -> Named l)
            (list_size (int_bound 4)
               (pair (oneofl (pool @ [ "e3"; "p"; "zz" ])) value)) );
        ( 1,
          map2
            (fun ev args -> Event (ev, args))
            (oneofl [ "ev0"; "go" ])
            (list_size (int_bound 3) value) );
      ]
  in
  quad (int_bound 0x3FFFFFFF) bool binding
    (frequency [ (3, int_bound 400); (1, return 20_000) ])

let show_binding = function
  | Named params ->
    String.concat "; "
      (List.map (fun (n, v) -> n ^ "=" ^ Asl.Value.show v) params)
  | Event (ev, args) ->
    Printf.sprintf "event %s(%s)" ev
      (String.concat ", " (List.map Asl.Value.show args))

let print_program_case (seed, objects, binding, fuel) =
  let prog =
    Workload.Gen_asl.program ~objects (Workload.Prng.create seed) ~pool
  in
  Printf.sprintf "%s\nbinding: %s, fuel %d" (Asl.Ast.show_program prog)
    (show_binding binding) fuel

(* The effects and guards of the ASL-heavy machine, run with the
   statechart engine's bindings: [event] and [e1].. on the compiled side
   through the slots found at resolution, by name on the reference. *)
let asl_heavy_behaviors seed =
  let sm = Workload.Gen_statechart.asl_heavy ~seed ~states:12 ~events:6 in
  List.concat_map
    (fun (tr : Uml.Smachine.transition) ->
      List.filter_map Fun.id
        [
          Option.map (fun g -> `Guard g) tr.Uml.Smachine.tr_guard;
          Option.map (fun e -> `Effect e) tr.Uml.Smachine.tr_effect;
        ])
    (Uml.Smachine.all_transitions sm)

let event_case = ("ev3", [ Asl.Value.V_int 4; Asl.Value.V_string "s" ])

let behavior_differs ~fuel behavior =
  let event, args = event_case in
  let params = event_params event args in
  match behavior with
  | `Guard src ->
    differ ~what:src ~fuel
      (fun c self_ ->
        Some
          (Asl.Value.V_bool
             (Asl.Interp.eval_guard_event ~self_ c (Asl.Compiled.guard src)
                ~event ~args)))
      (fun r self_ ->
        Some (Asl.Value.V_bool (Ref.eval_guard ~self_ ~params r src)))
  | `Effect src ->
    differ ~what:src ~fuel
      (fun c self_ ->
        Asl.Interp.run_event ~self_ c (Asl.Compiled.program src) ~event ~args)
      (fun r self_ -> Ref.run_source ~self_ ~params r src)

(* The operation bodies of test_xuml's models, each called from a
   small program: argument passing, [return] out of a body and method
   fuel. *)
let xuml_operations =
  [
    ([ "d" ], bump_src);
    ([], "return 42;");
    ([], "print(\"hello\");");
    ([], "return self.x >= 0;");
    ([], "return self.x < 100;");
  ]

let call_differs ~fuel (params, body) =
  let methods_c cl op =
    match cl, op with
    | "K", "op" ->
      Some (Asl.Interp.Body (Asl.Interp.body params (Asl.Compiled.program body)))
    | cl, op -> compiled_methods cl op
  and methods_r cl op =
    match cl, op with
    | "K", "op" -> Some (Ref.Body (params, Asl.Parser.parse_program body))
    | cl, op -> ref_methods cl op
  in
  let caller =
    Printf.sprintf "var k := new K; var v := k.op(%s); return v;"
      (String.concat ", " (List.map (fun _ -> "3") params))
  in
  differ ~methods:(methods_c, methods_r) ~what:body ~fuel
    (fun c _self -> Asl.Interp.run_compiled c (Asl.Compiled.program caller))
    (fun r _self -> Ref.run_source r caller)

(* Orders a random program rarely pins: arguments before the receiver
   and left to right, operands left to right, the failing name of two
   unbound ones, a short circuit skipping a side effect. *)
let order_sources =
  [
    "return min(self.bump(1), self.x);";
    "return max(self.x, self.bump(2));";
    "send s(self.bump(1), self.x, self.bump(1)); return self.x;";
    "var k := new K; return k.bump(self.bump(4));";
    "return self.bump(1) - self.bump(1) * 10;";
    "return min(u, w);";
    "return u + w;";
    "return false and self.bump(1) > 0;";
    "return true or self.bump(1) > 0;";
    "for i := self.bump(1) to self.bump(1) + 2 do print(i); end; return i;";
    "var j := 0; while self.bump(1) < 9 do j := j + 1; end; return j;";
    "print(to_string(self.bump(1)) & \"/\" & self.x); return abs(0 - self.x);";
  ]

let source_differs ~fuel src =
  differ ~what:src ~fuel
    (fun c self_ -> Asl.Interp.run_compiled ~self_ c (Asl.Compiled.program src))
    (fun r self_ -> Ref.run_source ~self_ r src)

let reference_tests =
  [
    tc "compiled = tree walker on evaluation orders" (fun () ->
        List.iter
          (fun src ->
            for fuel = 0 to 120 do
              check_agree (source_differs ~fuel src)
            done)
          order_sources);
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"compiled = tree walker on seeded programs"
         ~count:2000
         (QCheck.make ~print:print_program_case gen_program_case)
         (fun (seed, objects, binding, fuel) ->
           let prog =
             Workload.Gen_asl.program ~objects (Workload.Prng.create seed) ~pool
           in
           let compiled = Asl.Compiled.of_program prog in
           let run_compiled, params =
             match binding with
             | Named params ->
               ( (fun c self_ -> Asl.Interp.run_compiled ~self_ ~params c compiled),
                 params )
             | Event (event, args) ->
               ( (fun c self_ ->
                   Asl.Interp.run_event ~self_ c compiled ~event ~args),
                 event_params event args )
           in
           match
             differ ~what:"program" ~fuel run_compiled (fun r self_ ->
                 Ref.run ~self_ ~params r prog)
           with
           | None -> true
           | Some m -> QCheck.Test.fail_report m));
    tc "compiled = tree walker on asl_heavy guards and effects" (fun () ->
        List.iter
          (fun seed ->
            List.iteri
              (fun i behavior ->
                (* full fuel, and cut at spread points of the run *)
                List.iter
                  (fun fuel -> check_agree (behavior_differs ~fuel behavior))
                  [ 1_000_000; i mod 17; 40 + (i * 7 mod 200); 150 + (i * 13 mod 160) ])
              (asl_heavy_behaviors seed))
          [ 1; 2 ]);
    tc "fuel runs out at the same step of an asl_heavy effect" (fun () ->
        match asl_heavy_behaviors 1 with
        | _guard :: effect :: _rest ->
          for fuel = 0 to 400 do
            check_agree (behavior_differs ~fuel effect)
          done
        | _short -> Alcotest.fail "asl_heavy has guarded effects");
    tc "compiled = tree walker on test_xuml's operations" (fun () ->
        List.iter
          (fun op ->
            for fuel = 0 to 60 do
              check_agree (call_differs ~fuel op)
            done)
          xuml_operations);
  ]

let () =
  Alcotest.run "asl"
    [
      ("lexer", lexer_tests);
      ("parser", parser_tests);
      ("typecheck", typecheck_tests);
      ("interp", interp_tests);
      ("properties", property_tests);
      ("reference", reference_tests);
    ]
