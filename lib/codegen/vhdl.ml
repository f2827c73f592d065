open Hdl

let sanitize = Hdl_text.sanitize
let enum_literal = Hdl_text.enum_literal

(* Each distinct enum type of the module, in order of first use, with
   its type name: [<module>_state_t] for the first, [<module>_state<k>_t]
   for the k-th (k >= 2). *)
let enum_type_names m =
  let name = sanitize m.Module_.mod_name in
  List.fold_left
    (fun acc lits -> if List.mem lits acc then acc else lits :: acc)
    [] (Hdl_text.enum_types m)
  |> List.rev
  |> List.mapi (fun i lits ->
         if i = 0 then (lits, name ^ "_state_t")
         else (lits, Printf.sprintf "%s_state%d_t" name (i + 1)))

let spell enums ty =
  match ty with
  | Htype.Bit -> "std_logic"
  | Htype.Unsigned w -> Printf.sprintf "unsigned(%d downto 0)" (w - 1)
  | Htype.Enum lits -> List.assoc lits enums

let type_string m ty = spell (enum_type_names m) ty

let const_string ty v =
  match ty with
  | Htype.Bit -> if v = 0 then "'0'" else "'1'"
  | Htype.Unsigned w -> Printf.sprintf "to_unsigned(%d, %d)" v w
  | Htype.Enum lits -> (
    match List.nth_opt lits v with
    | Some l -> enum_literal l
    | None -> Printf.sprintf "to_unsigned(%d, 8)" v)

let binop_string = function
  | Expr.And -> "and"
  | Expr.Or -> "or"
  | Expr.Xor -> "xor"
  | Expr.Add -> "+"
  | Expr.Sub -> "-"
  | Expr.Mul -> "*"
  | Expr.Eq -> "="
  | Expr.Neq -> "/="
  | Expr.Lt -> "<"
  | Expr.Le -> "<="
  | Expr.Gt -> ">"
  | Expr.Ge -> ">="
  | Expr.Shl -> "sll"
  | Expr.Shr -> "srl"

(* VHDL tells booleans from bits.  Where a condition is expected
   ([want_bool]) a bit is compared with '1'; where a value is expected a
   comparison goes through [b2sl]. *)
let bit ~want_bool s = if want_bool then Printf.sprintf "(%s = '1')" s else s
let infix a op b = Printf.sprintf "(%s %s %s)" a (binop_string op) b

let rec expr_string m ~want_bool (e : Expr.t) =
  match e with
  | Expr.Const (v, (Htype.Bit as ty)) -> bit ~want_bool (const_string ty v)
  | Expr.Const (v, ((Htype.Unsigned _ | Htype.Enum _) as ty)) ->
    const_string ty v
  | Expr.Enum_lit lit -> enum_literal lit
  | Expr.Ref name -> (
    match Module_.declared_type m name with
    | Some Htype.Bit -> bit ~want_bool (sanitize name)
    | Some (Htype.Unsigned _ | Htype.Enum _) | None -> sanitize name)
  | Expr.Unop (Expr.Not, e1) ->
    Printf.sprintf "(not %s)" (expr_string m ~want_bool e1)
  | Expr.Unop (Expr.Reduce_or, e1) ->
    bit ~want_bool (Printf.sprintf "or_reduce(%s)" (value m e1))
  | Expr.Unop (Expr.Reduce_and, e1) ->
    bit ~want_bool (Printf.sprintf "and_reduce(%s)" (value m e1))
  | Expr.Binop (op, e1, e2) when Expr.is_boolean_op op ->
    let s = infix (value m e1) op (value m e2) in
    if want_bool then s else "b2sl" ^ s
  | Expr.Binop (((Expr.And | Expr.Or | Expr.Xor) as op), e1, e2) ->
    infix (expr_string m ~want_bool e1) op (expr_string m ~want_bool e2)
  | Expr.Binop (op, e1, e2) -> infix (value m e1) op (value m e2)
  | Expr.Mux (c, a, b) ->
    Printf.sprintf "(%s when %s else %s)" (value m a)
      (expr_string m ~want_bool:true c)
      (value m b)
  | Expr.Slice (e1, hi, lo) ->
    if hi = lo then Printf.sprintf "%s(%d)" (value m e1) lo
    else Printf.sprintf "%s(%d downto %d)" (value m e1) hi lo
  | Expr.Concat (e1, e2) ->
    Printf.sprintf "(%s & %s)" (value m e1) (value m e2)
  | Expr.Resize (e1, w) -> Printf.sprintf "resize(%s, %d)" (value m e1) w

and value m e = expr_string m ~want_bool:false e

let syntax m =
  let value = value m in
  {
    Hdl_text.null = "null;";
    assign =
      (fun target e -> Printf.sprintf "%s <= %s;" (sanitize target) (value e));
    cond = expr_string m ~want_bool:true;
    value;
    if_open = Printf.sprintf "if %s then";
    if_else = "else";
    if_close = "end if;";
    case_open = Printf.sprintf "case %s is";
    arm_open = Printf.sprintf "when %s =>";
    arm_close = None;
    default_open = "when others =>";
    no_default = "when others => null;";
    case_close = "end case;";
  }

let port_line enums (p : Module_.port) =
  let dir =
    match p.Module_.port_dir with
    | Module_.Input -> "in"
    | Module_.Output -> "out"
  in
  Printf.sprintf "    %s : %s %s" (sanitize p.Module_.port_name) dir
    (spell enums p.Module_.port_type)

let of_module m =
  let buf = Buffer.create 2048 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  let syn = syntax m in
  let name = sanitize m.Module_.mod_name in
  let enums = enum_type_names m in
  let declare_types () =
    List.iter
      (fun (lits, type_name) ->
        line "  type %s is (%s);" type_name
          (String.concat ", " (List.map enum_literal lits)))
      enums
  in
  (* an entity names only types declared ahead of it: a package *)
  let packaged =
    Hdl_text.enum_types { m with Module_.mod_signals = [] } <> []
  in
  if packaged then begin
    line "package %s_types is" name;
    declare_types ();
    line "end package %s_types;\n" name
  end;
  line "library ieee;";
  line "use ieee.std_logic_1164.all;";
  line "use ieee.numeric_std.all;";
  if packaged then line "use work.%s_types.all;" name;
  line "";
  line "entity %s is" name;
  (match m.Module_.mod_ports with
   | [] -> ()
   | ports ->
     line "  port (";
     Buffer.add_string buf
       (String.concat ";\n" (List.map (port_line enums) ports));
     line "";
     line "  );");
  line "end entity %s;" name;
  line "";
  line "architecture rtl of %s is" name;
  if not packaged then declare_types ();
  List.iter
    (fun (s : Module_.signal) ->
      let init =
        match s.Module_.sig_init with
        | Some v -> Printf.sprintf " := %s" (const_string s.Module_.sig_type v)
        | None -> ""
      in
      line "  signal %s : %s%s;" (sanitize s.Module_.sig_name)
        (spell enums s.Module_.sig_type)
        init)
    m.Module_.mod_signals;
  line "begin";
  List.iter
    (fun (inst : Module_.instance) ->
      line "  %s : entity work.%s" (sanitize inst.Module_.inst_name)
        (sanitize inst.Module_.inst_module);
      line "    port map (";
      Buffer.add_string buf
        (String.concat ",\n"
           (List.map
              (fun (formal, actual) ->
                Printf.sprintf "      %s => %s" (sanitize formal)
                  (sanitize actual))
              inst.Module_.inst_conns));
      line "";
      line "    );")
    m.Module_.mod_instances;
  List.iter
    (fun p ->
      match p with
      | Module_.Comb cp ->
        line "";
        line "  %s : process (all)" (sanitize cp.Module_.cp_name);
        line "  begin";
        Hdl_text.body syn buf 4 cp.Module_.cp_body;
        line "  end process;"
      | Module_.Seq sp ->
        line "";
        line "  %s : process (%s)" (sanitize sp.Module_.sp_name)
          (sanitize sp.Module_.sp_clock);
        line "  begin";
        line "    if rising_edge(%s) then" (sanitize sp.Module_.sp_clock);
        Hdl_text.seq_body syn buf 6 sp ~reset_cond:(fun rst ->
            sanitize rst ^ " = '1'");
        line "    end if;";
        line "  end process;")
    m.Module_.mod_processes;
  line "end architecture rtl;";
  Buffer.contents buf

let of_design d = Hdl_text.design of_module d
