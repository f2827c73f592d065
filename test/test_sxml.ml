(* Tests for the XML substrate: tree queries, printer, parser,
   round-trip. *)

let tc name f = Alcotest.test_case name `Quick f
let check = Alcotest.check

let doc_tests =
  [
    tc "attr lookup" (fun () ->
        match Sxml.Doc.element ~attrs:[ ("a", "1") ] "t" [] with
        | Sxml.Doc.Element e ->
          check Alcotest.bool "found" true (Sxml.Doc.attr e "a" = Some "1");
          check Alcotest.bool "missing" true (Sxml.Doc.attr e "b" = None)
        | Sxml.Doc.Text _ -> Alcotest.fail "element expected");
    tc "find_children filters by tag" (fun () ->
        match
          Sxml.Doc.element "root"
            [
              Sxml.Doc.element "a" [];
              Sxml.Doc.element "b" [];
              Sxml.Doc.element "a" [];
            ]
        with
        | Sxml.Doc.Element e ->
          check Alcotest.int "two" 2 (List.length (Sxml.Doc.find_children e "a"))
        | Sxml.Doc.Text _ -> Alcotest.fail "element expected");
    tc "text_content concatenates" (fun () ->
        match
          Sxml.Doc.element "t"
            [ Sxml.Doc.text "a"; Sxml.Doc.element "x" []; Sxml.Doc.text "b" ]
        with
        | Sxml.Doc.Element e ->
          check Alcotest.string "ab" "ab" (Sxml.Doc.text_content e)
        | Sxml.Doc.Text _ -> Alcotest.fail "element expected");
    tc "escape handles the five specials" (fun () ->
        check Alcotest.string "escaped" "&amp;&lt;&gt;&quot;&apos;"
          (Sxml.Doc.escape "&<>\"'"));
    tc "equal ignores attribute order" (fun () ->
        let d1 = Sxml.Doc.element ~attrs:[ ("a", "1"); ("b", "2") ] "t" [] in
        let d2 = Sxml.Doc.element ~attrs:[ ("b", "2"); ("a", "1") ] "t" [] in
        check Alcotest.bool "equal" true (Sxml.Doc.equal d1 d2));
  ]

let parse s = Sxml.Parse.parse_string s

(* [n] levels of [<a>] *)
let nested n =
  String.concat "" (List.init n (fun _ -> "<a>"))
  ^ String.concat "" (List.init n (fun _ -> "</a>"))

let parser_tests =
  [
    tc "simple element" (fun () ->
        match parse "<a/>" with
        | Sxml.Doc.Element e -> check Alcotest.string "tag" "a" e.Sxml.Doc.tag
        | Sxml.Doc.Text _ -> Alcotest.fail "element expected");
    tc "attributes with both quote styles" (fun () ->
        match parse "<a x=\"1\" y='2'/>" with
        | Sxml.Doc.Element e ->
          check Alcotest.bool "x" true (Sxml.Doc.attr e "x" = Some "1");
          check Alcotest.bool "y" true (Sxml.Doc.attr e "y" = Some "2")
        | Sxml.Doc.Text _ -> Alcotest.fail "element expected");
    tc "nested elements and text" (fun () ->
        match parse "<a><b>hello</b></a>" with
        | Sxml.Doc.Element e -> (
          match Sxml.Doc.find_child e "b" with
          | Some b ->
            check Alcotest.string "text" "hello" (Sxml.Doc.text_content b)
          | None -> Alcotest.fail "child b expected")
        | Sxml.Doc.Text _ -> Alcotest.fail "element expected");
    tc "prolog, doctype and comments are skipped" (fun () ->
        match
          parse
            "<?xml version=\"1.0\"?><!DOCTYPE a [<!ELEMENT a ANY>]>\n\
             <!-- hi --><a/><!-- bye -->"
        with
        | Sxml.Doc.Element e -> check Alcotest.string "tag" "a" e.Sxml.Doc.tag
        | Sxml.Doc.Text _ -> Alcotest.fail "element expected");
    tc "entities decode" (fun () ->
        match parse "<a>&lt;x&gt; &amp; &quot;y&quot; &apos;z&apos;</a>" with
        | Sxml.Doc.Element e ->
          check Alcotest.string "decoded" "<x> & \"y\" 'z'"
            (Sxml.Doc.text_content e)
        | Sxml.Doc.Text _ -> Alcotest.fail "element expected");
    tc "numeric character references" (fun () ->
        match parse "<a>&#65;&#x42;</a>" with
        | Sxml.Doc.Element e ->
          check Alcotest.string "AB" "AB" (Sxml.Doc.text_content e)
        | Sxml.Doc.Text _ -> Alcotest.fail "element expected");
    tc "astral-plane character reference encodes as 4 UTF-8 bytes" (fun () ->
        match parse "<a>&#x1F600;</a>" with
        | Sxml.Doc.Element e ->
          check Alcotest.string "U+1F600" "\xF0\x9F\x98\x80"
            (Sxml.Doc.text_content e)
        | Sxml.Doc.Text _ -> Alcotest.fail "element expected");
    tc "character reference beyond U+10FFFF fails" (fun () ->
        match parse "<a>&#x200000;</a>" with
        | _doc -> Alcotest.fail "expected parse error"
        | exception Sxml.Parse.Error _ -> ());
    tc "surrogate character reference fails" (fun () ->
        match parse "<a>&#xD800;</a>" with
        | _doc -> Alcotest.fail "expected parse error"
        | exception Sxml.Parse.Error _ -> ());
    tc "negative character reference fails" (fun () ->
        match parse "<a>&#-5;</a>" with
        | _doc -> Alcotest.fail "expected parse error"
        | exception Sxml.Parse.Error _ -> ());
    tc "CDATA preserved verbatim" (fun () ->
        match parse "<a><![CDATA[<not> &parsed;]]></a>" with
        | Sxml.Doc.Element e ->
          check Alcotest.string "raw" "<not> &parsed;" (Sxml.Doc.text_content e)
        | Sxml.Doc.Text _ -> Alcotest.fail "element expected");
    tc "entity in attribute value" (fun () ->
        match parse "<a x=\"1 &amp; 2\"/>" with
        | Sxml.Doc.Element e ->
          check Alcotest.bool "decoded" true (Sxml.Doc.attr e "x" = Some "1 & 2")
        | Sxml.Doc.Text _ -> Alcotest.fail "element expected");
    tc "whitespace-only text dropped by default" (fun () ->
        match parse "<a>\n  <b/>\n</a>" with
        | Sxml.Doc.Element e ->
          check Alcotest.int "one child" 1 (List.length e.Sxml.Doc.children)
        | Sxml.Doc.Text _ -> Alcotest.fail "element expected");
    tc "keep_whitespace retains it" (fun () ->
        match Sxml.Parse.parse_string ~keep_whitespace:true "<a> <b/> </a>" with
        | Sxml.Doc.Element e ->
          check Alcotest.int "three children" 3
            (List.length e.Sxml.Doc.children)
        | Sxml.Doc.Text _ -> Alcotest.fail "element expected");
    tc "mismatched closing tag fails" (fun () ->
        match parse "<a></b>" with
        | _doc -> Alcotest.fail "expected parse error"
        | exception Sxml.Parse.Error _ -> ());
    tc "trailing content fails" (fun () ->
        match parse "<a/><b/>" with
        | _doc -> Alcotest.fail "expected parse error"
        | exception Sxml.Parse.Error _ -> ());
    tc "unterminated element fails" (fun () ->
        match parse "<a><b></b>" with
        | _doc -> Alcotest.fail "expected parse error"
        | exception Sxml.Parse.Error _ -> ());
    tc "error positions are 1-based" (fun () ->
        match parse "<a>\n<b>oops</a>" with
        | _doc -> Alcotest.fail "expected parse error"
        | exception Sxml.Parse.Error { line; _ } ->
          check Alcotest.int "line 2" 2 line);
    tc "nesting up to max_depth parses" (fun () ->
        match parse (nested Sxml.Parse.max_depth) with
        | Sxml.Doc.Element e -> check Alcotest.string "root" "a" e.Sxml.Doc.tag
        | Sxml.Doc.Text _ -> Alcotest.fail "element expected");
    tc "nesting past max_depth fails at the first element too deep"
      (fun () ->
        match parse (nested (Sxml.Parse.max_depth + 1)) with
        | _doc -> Alcotest.fail "expected parse error"
        | exception Sxml.Parse.Error { line; column; message } ->
          check
            Alcotest.(triple int int string)
            "position and message"
            ( 1,
              (3 * Sxml.Parse.max_depth) + 1,
              "elements nested deeper than 1024 levels" )
            (line, column, message));
    tc "error_message renders" (fun () ->
        match parse "<" with
        | _doc -> Alcotest.fail "expected parse error"
        | exception e ->
          check Alcotest.bool "some" true (Sxml.Parse.error_message e <> None));
  ]

(* Error positions pinned to the values the parser has always reported:
   1-based line, 1-based byte column, message.  CRLF counts as one line
   break (the '\r' is a column), multi-byte UTF-8 counts bytes. *)
let pinned_errors =
  [
    ("", 1, 1, "expected root element");
    ("<", 1, 2, "expected a name");
    ("<a>\n<b>oops</a>", 2, 11, "mismatched closing tag </a> (expected </b>)");
    ("<a x=1/>", 1, 6, "expected quoted value");
    ("<a x/>", 1, 5, "expected '=' after attribute name");
    ("<a x=\"1/>", 1, 10, "unterminated attribute value");
    ("<a/ >", 1, 4, "expected '>' after '/'");
    ("<a b=\"1\"c>", 1, 10, "expected '=' after attribute name");
    ("<a x='1'?", 1, 9, "expected a name");
    ("<a>&foo;</a>", 1, 9, "unknown entity &foo;");
    ("<a>&amp</a>", 1, 12, "unterminated entity reference");
    ( "<a>\n  &#x110000;</a>", 2, 13,
      "character reference &#x110000; is outside Unicode" );
    ("<a t='&#xD800;'/>", 1, 15, "character reference &#xD800; is a surrogate");
    ("<a><!-- x </a>", 1, 15, "unterminated comment");
    ("<a><? x </a>", 1, 13, "unterminated processing instruction");
    ("<!DOCTYPE a [ <!ELEMENT a ANY>", 1, 31, "unterminated DOCTYPE");
    ("<a><![CDATA[ x </a>", 1, 20, "unterminated CDATA section");
    ("<a></a x>", 1, 8, "expected '>' in closing tag");
    ("<a>\r\n  <b>\r\n</a>", 3, 4, "mismatched closing tag </a> (expected </b>)");
    ( "<a>\xc3\xa9\n \xc3\xbc<b></a>", 2, 10,
      "mismatched closing tag </a> (expected </b>)" );
    ("<a/>\n<b/>", 2, 1, "trailing content after root element");
    ("<a>\n  <b>\n", 3, 1, "unterminated element <b>");
    ("text", 1, 1, "expected root element");
    ("<a", 1, 3, "expected a name");
    ("<a/", 1, 4, "expected '>' after '/'");
    ("<a>", 1, 4, "unterminated element <a>");
    ( "<?xml version=\"1.0\"?>\n<!-- c -->\n<r>\n  <s k=\"v\"/>\n\
      \  <t>&bogus;</t>\n</r>",
      5, 13, "unknown entity &bogus;" );
  ]

let position_tests =
  List.map
    (fun (src, want_line, want_column, want_message) ->
      tc (Printf.sprintf "error position of %S" src) (fun () ->
          match parse src with
          | _doc -> Alcotest.fail "expected parse error"
          | exception Sxml.Parse.Error { line; column; message } ->
            check
              Alcotest.(triple int int string)
              "line, column, message"
              (want_line, want_column, want_message)
              (line, column, message)))
    pinned_errors

(* random tree round-trip *)
let gen_tree =
  let open QCheck.Gen in
  let name = oneofl [ "a"; "b"; "tag"; "x-y"; "ns:t" ] in
  let attr_value =
    oneofl [ "v"; "1 & 2"; "<q>"; "it's"; "\"quoted\""; "plain" ]
  in
  let text_value = oneofl [ "hello"; "a<b"; "x&y"; "tail "; " lead" ] in
  fix
    (fun self depth ->
      let attrs =
        list_size (int_bound 2)
          (map2 (fun k v -> (k, v)) (oneofl [ "k"; "id"; "w" ]) attr_value)
      in
      (* attribute keys must be distinct *)
      let attrs =
        map
          (fun l ->
            let seen = Hashtbl.create 4 in
            List.filter
              (fun (k, _) ->
                if Hashtbl.mem seen k then false
                else begin
                  Hashtbl.add seen k ();
                  true
                end)
              l)
          attrs
      in
      if depth = 0 then
        map2 (fun t a -> Sxml.Doc.element ~attrs:a t []) name attrs
      else
        let child =
          frequency
            [ (3, self (depth - 1)); (1, map Sxml.Doc.text text_value) ]
        in
        map3
          (fun t a cs -> Sxml.Doc.element ~attrs:a t cs)
          name attrs
          (list_size (int_bound 3) child))
    2

let roundtrip_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"print-parse round-trip" ~count:200
         (QCheck.make gen_tree)
         (fun doc ->
           (* adjacent text nodes merge on reparse: normalize both sides *)
           let rec normalize = function
             | Sxml.Doc.Text _ as t -> t
             | Sxml.Doc.Element e ->
               let rec merge = function
                 | Sxml.Doc.Text a :: Sxml.Doc.Text b :: rest ->
                   merge (Sxml.Doc.Text (a ^ b) :: rest)
                 | c :: rest -> normalize c :: merge rest
                 | [] -> []
               in
               Sxml.Doc.element ~attrs:e.Sxml.Doc.attrs e.Sxml.Doc.tag
                 (merge e.Sxml.Doc.children)
           in
           let printed = Sxml.Doc.to_string ~indent:false doc in
           let reparsed =
             Sxml.Parse.parse_string ~keep_whitespace:true printed
           in
           Sxml.Doc.equal (normalize doc) (normalize reparsed)));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"indented print-parse round-trip (no text)"
         ~count:100
         (QCheck.make gen_tree)
         (fun doc ->
           (* drop text nodes: indentation only round-trips elements *)
           let rec strip = function
             | Sxml.Doc.Element e ->
               Sxml.Doc.element ~attrs:e.Sxml.Doc.attrs e.Sxml.Doc.tag
                 (List.filter_map
                    (fun c ->
                      match c with
                      | Sxml.Doc.Element _ -> Some (strip c)
                      | Sxml.Doc.Text _ -> None)
                    e.Sxml.Doc.children)
             | Sxml.Doc.Text _ as t -> t
           in
           let doc = strip doc in
           let printed = Sxml.Doc.to_string ~indent:true doc in
           Sxml.Doc.equal doc (Sxml.Parse.parse_string printed)));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"parser raises nothing but Parse.Error"
         ~count:1000
         (QCheck.make
            QCheck.Gen.(
              string_size ~gen:(map Char.chr (int_bound 255)) (int_bound 60)))
         (fun src ->
           match Sxml.Parse.parse_string src with
           | _doc -> true
           | exception Sxml.Parse.Error _ -> true));
  ]

(* Differential property: the parser against the reference oracle in
   [Oracles.Sxml_parse_ref], on mutated XMI and on a fixture that
   touches every construct the grammar knows.  Each case applies up to
   four random byte edits (insert, delete, replace, truncate) drawn from
   the XML metacharacters, then demands the same tree or the same error
   record under both [keep_whitespace] settings. *)

let fixture =
  "<?xml version=\"1.0\" encoding=\"UTF-8\"?>\r\n\
   <!DOCTYPE xmi:XMI [\r\n\
  \  <!ELEMENT a (#PCDATA)>\r\n\
  \  <!ATTLIST a x CDATA #IMPLIED>\r\n\
   ]>\r\n\
   <!-- leading comment -->\r\n\
   <xmi:XMI xmi:version='2.1' name=\"caf\xc3\xa9 &amp; co\">\r\n\
  \  <?pi some data?>\r\n\
  \  <a x='&lt;&gt;' y=\"&quot;&apos;\">text &#65;&#x42; \xe2\x82\xac</a>\r\n\
  \  <![CDATA[raw <b> & ]]>\r\n\
  \  <!-- inner - comment -->\r\n\
  \  <b k = \"v\" />\r\n\
  \  <c>\xf0\x9f\x98\x80 tail </c >\r\n\
   </xmi:XMI>\r\n\
   <!-- trailing -->\r\n"

let mutation_bases =
  Array.of_list
    (fixture
    :: List.map
         (fun seed ->
           Xmi.Write.to_string (Workload.Gen_model.structural ~seed ~classes:3))
         [ 1; 2 ])

let mutation_alphabet = "<>&;\"'/!?[]-=\n x#"

let mutate ~seed ~edits src =
  let rng = Workload.Prng.create seed in
  let sym () =
    String.make 1
      mutation_alphabet.[Workload.Prng.int rng (String.length mutation_alphabet)]
  in
  let edit s =
    let n = String.length s in
    let at = Workload.Prng.int rng (n + 1) in
    let before = String.sub s 0 at and after = String.sub s at (n - at) in
    let drop1 t = if t = "" then t else String.sub t 1 (String.length t - 1) in
    match Workload.Prng.int rng 4 with
    | 0 -> before ^ sym () ^ after
    | 1 -> before ^ drop1 after
    | 2 -> before ^ sym () ^ drop1 after
    | _ -> before
  in
  let rec go k s = if k = 0 then s else go (k - 1) (edit s) in
  go edits src

type outcome =
  | Tree of Sxml.Doc.t
  | Failed of int * int * string

let outcome_of parse_with src =
  match parse_with src with
  | doc -> Tree doc
  | exception Sxml.Parse.Error { line; column; message } ->
    Failed (line, column, message)
  | exception Oracles.Sxml_parse_ref.Error { line; column; message } ->
    Failed (line, column, message)

let differential_tests =
  [
    tc "the fixture itself parses" (fun () ->
        match Sxml.Parse.parse_string fixture with
        | Sxml.Doc.Element root -> (
          check Alcotest.(option string) "entity in attribute"
            (Some "caf\xc3\xa9 & co")
            (Sxml.Doc.attr root "name");
          check Alcotest.string "CDATA joins the surrounding text"
            "\r\n  raw <b> & \r\n  " (Sxml.Doc.text_content root);
          match Sxml.Doc.find_child root "a" with
          | Some a ->
            check Alcotest.string "references" "text AB \xe2\x82\xac"
              (Sxml.Doc.text_content a)
          | None -> Alcotest.fail "child a expected")
        | Sxml.Doc.Text _ -> Alcotest.fail "element expected");
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"scanner agrees with the reference oracle"
         ~count:3000
         (QCheck.make
            ~print:(fun (base, seed, edits) ->
              String.escaped
                (mutate ~seed ~edits mutation_bases.(base)))
            QCheck.Gen.(
              triple
                (int_bound (Array.length mutation_bases - 1))
                (int_bound 1_000_000) (int_bound 4)))
         (fun (base, seed, edits) ->
           let src = mutate ~seed ~edits mutation_bases.(base) in
           List.for_all
             (fun keep_whitespace ->
               outcome_of (Sxml.Parse.parse_string ~keep_whitespace) src
               = outcome_of
                   (Oracles.Sxml_parse_ref.parse_string ~keep_whitespace)
                   src)
             [ false; true ]));
  ]

let () =
  Alcotest.run "sxml"
    [
      ("doc", doc_tests);
      ("parser", parser_tests);
      ("positions", position_tests);
      ("roundtrip", roundtrip_tests);
      ("reference", differential_tests);
    ]
