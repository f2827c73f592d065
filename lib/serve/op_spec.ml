open Cmdliner

type run = {
  paths : string list;
  exec : budget:Exec.Budget.t -> Ops.sink -> Ops.loader -> Ops.reply;
}

(* --- parameters ------------------------------------------------------- *)

(* A parameter's type, default and CLI shape in one constructor: [Model]
   and [Lang] are the first and second positional arguments, [Models]
   all of them; every other kind is a named option. *)
type _ kind =
  | Model : string kind
  | Models : string list kind  (* request: "model" or "models" *)
  | Lang : string kind
  | Format : Ops.format kind
  | Int : int -> int kind
  | Opt_string : string option kind
  | String : string -> string kind
  | Flag : bool kind
  | Strings : string list kind  (* repeatable *)
  | Metrics : Telemetry.Metrics.t option kind

type 'a param = {
  field : string;
  cli : string list;
  docv : string option;
  doc : string;
  kind : 'a kind;
}

let langs = [ "vhdl"; "verilog"; "systemc"; "c" ]
let formats = [ ("text", `Text); ("json", `Json) ]

(* The one interpretation of [metrics]/[--metrics]. *)
let registry on = if on then Some (Telemetry.Metrics.create ()) else None

let positional (type a) (kind : a kind) =
  match kind with
  | Model | Models | Lang -> true
  | Format | Int _ | Opt_string | String _ | Flag | Strings | Metrics -> false

(* A named parameter's long flag is its request field with '_' spelled
   '-', so the two spellings cannot drift apart. *)
let param ?short ?docv field kind doc =
  let cli =
    if positional kind then []
    else
      String.map (fun c -> if c = '_' then '-' else c) field
      :: Option.to_list short
  in
  { field; cli; docv; doc; kind }

let model = param "model" Model ~docv:"MODEL" "Input model in socuml XMI form."

let models =
  param "models" Models ~docv:"MODEL"
    "Input models in socuml XMI form (one or more)."

let lang =
  param "lang" Lang ~docv:"LANG" "Target language: vhdl, verilog, systemc or c."

let format =
  param "format" Format ~docv:"FORMAT" "Output format: $(b,text) or $(b,json)."

let jobs =
  param "jobs" (Int 1) ~short:"j" ~docv:"N"
    "Worker domains for the parallel phases.  Purely a throughput knob: \
     every job count produces byte-identical output."

let only =
  param "only" Strings ~docv:"RULES"
    "Run only the given rules (repeatable, comma-separable).  A value is a \
     rule code like $(b,SC-03) or a family prefix like $(b,ASL)."

let disable =
  param "disable" Strings ~docv:"RULES"
    "Disable the given rules (repeatable, comma-separable)."

let no_hdl =
  param "no_hdl" Flag "Skip deriving the HDL design (disables the HDL-* rules)."

let machine =
  param "machine" Opt_string ~docv:"NAME"
    "Name of the state machine to run (default: first)."

let events =
  param "events" (String "") ~docv:"EVENTS"
    "Comma-separated event names to dispatch."

let metrics =
  param "metrics" Metrics "Collect telemetry and print the metrics report."

let rtl =
  param "rtl" Flag
    "Compile the state machine to RTL and run it on the discrete-event \
     simulator instead of the statechart engine."

let area = param "budget" (Int 500) ~docv:"AREA" "Hardware area budget."

let seed =
  param "seed" (Int 1) ~docv:"SEED"
    "Campaign seed (fault plan and run choices derive from it)."

let faults =
  param "faults" (Int 12) ~docv:"N"
    "Number of faults to plan across the model's domains."

let out =
  param "out" Opt_string ~short:"o" ~docv:"OUT"
    "Output snapshot path (default: the input path with its extension \
     replaced by $(b,.sumb))."

(* --- the table -------------------------------------------------------- *)

(* An op body applied to its parameters, in the shape of cmdliner's
   [Term]: [const f $ p1 $ p2] feeds [p1] then [p2] to [f]. *)
type _ term =
  | Const : 'a -> 'a term
  | App : ('a -> 'b) term * 'a param -> 'b term

let const f = Const f
let ( $ ) f p = App (f, p)

type t = {
  name : string;
  doc : string;
  budgeted : bool;
  term : run term;
  allowed : string list;  (* request fields beyond "op" and "id" *)
}

let rec term_fields : type a. a term -> string list =
 fun term ->
  match term with
  | Const _ -> []
  | App (f, { kind = Models; _ }) -> term_fields f @ [ "model"; "models" ]
  | App (f, p) -> term_fields f @ [ p.field ]

let op ?(budgeted = false) name doc term =
  let budget_fields = if budgeted then [ "fuel"; "deadline_ms" ] else [] in
  { name; doc; budgeted; term; allowed = term_fields term @ budget_fields }

let on_model path body =
  {
    paths = [ path ];
    exec =
      (fun ~budget sink load ->
        Ops.Exit (Ops.with_artifacts sink load path (body ~budget sink)));
  }

(* Unknown rule selectors are refused before any model loads, so the
   daemon must not pre-resolve (and fill the cache) for them either. *)
let selected ~only ~disable paths =
  match Ops.selection_of ~only ~disable with
  | Ok _selection -> paths
  | Error _msg -> []

let table =
  [
    op "validate"
      "Check a model against UML and SoC-profile well-formedness rules."
      (const (fun path format ->
           on_model path (fun ~budget:_ sink -> Ops.validate sink ~format))
      $ model $ format);
    op "lint"
      "Run whole-model static analysis: embedded ASL behaviors, statechart \
       topology, activity token flow, component wiring, and the generated \
       HDL design.  Accepts several models (linted in parallel with \
       $(b,--jobs), reported in argument order).  Exits nonzero when any \
       error-severity diagnostic is reported."
      (const (fun paths format only disable no_hdl jobs ->
           {
             paths = selected ~only ~disable paths;
             exec =
               (fun ~budget:_ sink load ->
                 Ops.Exit
                   (Ops.lint sink ~format ~only ~disable ~no_hdl ~jobs load
                      paths));
           })
      $ models $ format $ only $ disable $ no_hdl $ jobs);
    op "info" "Summarize a model's contents."
      (const (fun path -> on_model path (fun ~budget:_ sink -> Ops.info sink))
      $ model);
    op "gen" "Run the PIM->PSM mapping and print the generated code."
      (const (fun path lang ->
           {
             paths = [ path ];
             exec =
               (fun ~budget:_ sink load -> Ops.gen_reply sink ~lang load path);
           })
      $ model $ lang);
    op "simulate" ~budgeted:true
      "Execute a state machine of the model on an event sequence, either on \
       the statechart engine or (with $(b,--rtl)) as compiled RTL on the \
       discrete-event simulator."
      (const (fun path machine events metrics rtl ->
           on_model path (fun ~budget sink ->
               Ops.simulate ~budget sink ~machine ~events ~metrics ~rtl))
      $ model $ machine $ events $ metrics $ rtl);
    op "trace"
      "Run a state machine (and the model's activities) like simulate, \
       dumping the structured telemetry event log."
      (const (fun path machine events ->
           on_model path (fun ~budget:_ sink ->
               Ops.trace sink ~machine ~events))
      $ model $ machine $ events);
    op "partition"
      "Extract a task graph from the model's first activity and partition it."
      (const (fun path budget ->
           on_model path (fun ~budget:_ sink -> Ops.partition sink ~budget))
      $ model $ area);
    op "analyze" ~budgeted:true
      "Translate the model's activities to Petri nets and analyze them \
       (boundedness, deadlocks, invariants, lint).  $(b,--only) and \
       $(b,--disable) select the lint rules, as for $(b,socuml lint)."
      (const (fun path metrics only disable jobs ->
           {
             paths = selected ~only ~disable [ path ];
             exec =
               (fun ~budget sink load ->
                 Ops.Exit
                   (Ops.analyze ~budget sink ~metrics ~only ~disable ~jobs load
                      path));
           })
      $ model $ metrics $ only $ disable $ jobs);
    op "inject" ~budgeted:true
      "Run a deterministic fault-injection campaign against the model: a \
       seeded fault plan perturbs RTL signals on the compiled discrete-event \
       engine, the event stream feeding the statechart engine, and token \
       markings of the activity/Petri engines; every injected run is \
       classified masked / detected / silent / truncated against the golden \
       run."
      (const (fun path machine seed faults format metrics jobs ->
           on_model path (fun ~budget sink ->
               Ops.inject ~budget sink ~machine ~seed ~faults ~format ~metrics
                 ~jobs))
      $ model $ machine $ seed $ faults $ format $ metrics $ jobs);
    op "pack"
      "Pack a model into the versioned binary snapshot format ($(b,.sumb)).  \
       Every subcommand auto-detects the format by magic bytes, so snapshots \
       are accepted wherever an XMI model is; loading one skips the XML \
       parse entirely."
      (const (fun path out ->
           on_model path (fun ~budget:_ sink -> Ops.pack sink ~out ~path))
      $ model $ out);
  ]

let name t = t.name
let budgeted t = t.budgeted
let json_fields t = term_fields t.term
let find name = List.find_opt (fun t -> t.name = name) table

(* --- interpreter 1: cmdliner ------------------------------------------ *)

let arg : type a. a param -> a Term.t =
 fun p ->
  let i = Arg.info p.cli ?docv:p.docv ~doc:p.doc in
  match p.kind with
  (* model paths are plain strings: existence and file-kind checks live
     in [Load], so bad paths get the one-line diagnostic and exit 1
     instead of cmdliner's exit 124 *)
  | Model -> Arg.(required & pos 0 (some string) None & i)
  | Models -> Arg.(non_empty & pos_all string [] & i)
  | Lang ->
    let choices = List.map (fun l -> (l, l)) langs in
    Arg.(required & pos 1 (some (enum choices)) None & i)
  | Format -> Arg.(value & opt (enum formats) `Text & i)
  | Int d -> Arg.(value & opt int d & i)
  | Opt_string -> Arg.(value & opt (some string) None & i)
  | String d -> Arg.(value & opt string d & i)
  | Flag -> Arg.(value & flag & i)
  | Strings -> Arg.(value & opt_all string [] & i)
  | Metrics -> Term.(const registry $ Arg.(value & flag & i))

let rec cli_term : type a. a term -> a Term.t =
 fun term ->
  match term with
  | Const v -> Term.const v
  | App (f, p) -> Term.(cli_term f $ arg p)

let cmd t =
  let run r =
    Ops.guarded Ops.std_sink (fun () ->
        Ops.replay Ops.std_sink
          (r.exec ~budget:Exec.Budget.unlimited Ops.std_sink
             Ops.load_artifacts))
  in
  Cmd.v (Cmd.info t.name ~doc:t.doc) Term.(const run $ cli_term t.term)

let format_term = arg format

(* --- interpreter 2: request decoding ---------------------------------- *)

let ( let* ) = Result.bind

(* A typo'd field would otherwise be ignored, and the op would run with
   a default the user never asked for. *)
let reject_unknown ~op allowed members =
  let known (key, _v) = key = "op" || key = "id" || List.mem key allowed in
  match List.find_opt (fun m -> not (known m)) members with
  | None -> Ok ()
  | Some (key, _v) -> Error (Printf.sprintf "unknown field %S for op %S" key op)

(* An optional field of one JSON type, named by [what] in the error. *)
let field conv what members key =
  match List.assoc_opt key members with
  | None -> Ok None
  | Some v -> (
    match conv v with
    | Some x -> Ok (Some x)
    | None -> Error (Printf.sprintf "field %S must be %s" key what))

let decode_param : type a.
    (string * Json.t) list -> a param -> (unit -> a, string) result =
 fun members p ->
  let get conv what default =
    Result.map (Option.value ~default) (field conv what members p.field)
  in
  let required () =
    let* v = field Json.to_str "a string" members p.field in
    Option.to_result v ~none:(Printf.sprintf "missing %S field" p.field)
  in
  let value r = Result.map (fun v () -> v) r in
  match p.kind with
  | Model -> value (required ())
  | Models ->
    value
      (let* single = field Json.to_str "a string" members "model" in
       let* many = field Json.str_list "a list of strings" members "models" in
       match (single, many) with
       | Some _, Some _ -> Error "give either \"model\" or \"models\", not both"
       | Some m, None -> Ok [ m ]
       | None, Some [] -> Error "field \"models\" must not be empty"
       | None, Some l -> Ok l
       | None, None -> Error "missing \"model\" field")
  | Lang ->
    value
      (let* l = required () in
       if List.mem l langs then Ok l
       else
         Error
           (Printf.sprintf "field %S must be one of %s (got %S)" p.field
              (String.concat ", " langs) l))
  | Format ->
    value
      (let* s = get Json.to_str "a string" "text" in
       Option.to_result (List.assoc_opt s formats)
         ~none:
           (Printf.sprintf "field %S must be \"text\" or \"json\" (got %S)"
              p.field s))
  | Int d -> value (get Json.to_int "an integer" d)
  | Opt_string -> value (field Json.to_str "a string" members p.field)
  | String d -> value (get Json.to_str "a string" d)
  | Flag -> value (get Json.to_bool "a boolean" false)
  | Strings -> value (get Json.str_list "a list of strings" [])
  | Metrics ->
    Result.map (fun on () -> registry on) (get Json.to_bool "a boolean" false)

(* Parameters decode in table order, so the first error is
   deterministic; the result builds the op's arguments per call. *)
let rec decode_term : type a.
    (string * Json.t) list -> a term -> (unit -> a, string) result =
 fun members term ->
  match term with
  | Const v -> Ok (fun () -> v)
  | App (f, p) ->
    let* f = decode_term members f in
    let* x = decode_param members p in
    Ok (fun () -> f () (x ()))

let decode t members =
  let* () = reject_unknown ~op:t.name t.allowed members in
  decode_term members t.term
