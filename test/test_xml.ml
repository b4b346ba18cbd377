(* Tests for the XML layer: the generic parser, and the instance
   interchange format (parse/print round-trips, cross-checked by running
   the full analysis on the re-loaded instance). *)

let lc = String.lowercase_ascii

(* {1 Generic XML} *)

let test_xml_basic () =
  let x =
    Aadl.Xml.parse_string
      {|<?xml version="1.0"?><a x="1" y="two"><!-- note --><b/><c>text</c></a>|}
  in
  Alcotest.(check (option string)) "tag" (Some "a") (Aadl.Xml.tag x);
  Alcotest.(check (option string)) "attr x" (Some "1") (Aadl.Xml.attr "x" x);
  Alcotest.(check (option string)) "attr y" (Some "two") (Aadl.Xml.attr "y" x);
  Alcotest.(check int) "two element children" 2
    (List.length (Aadl.Xml.all_children x));
  match Aadl.Xml.child "c" x with
  | Some (Aadl.Xml.Element (_, _, [ Aadl.Xml.Text t ])) ->
      Alcotest.(check string) "text" "text" t
  | _ -> Alcotest.fail "missing <c> text"

let test_xml_entities () =
  let x = Aadl.Xml.parse_string {|<a v="&lt;&amp;&quot;">x &gt; y</a>|} in
  Alcotest.(check (option string)) "attr entities" (Some {|<&"|})
    (Aadl.Xml.attr "v" x);
  (match x with
  | Aadl.Xml.Element (_, _, [ Aadl.Xml.Text t ]) ->
      Alcotest.(check string) "text entities" "x > y" t
  | _ -> Alcotest.fail "expected text");
  (* serialization escapes them back *)
  let s = Aadl.Xml.to_string x in
  let x2 = Aadl.Xml.parse_string s in
  Alcotest.(check bool) "round-trip" true (x = x2)

let test_xml_errors () =
  let bad input =
    match Aadl.Xml.parse_string input with
    | _ -> false
    | exception Aadl.Diag.Error _ -> true
  in
  Alcotest.(check bool) "mismatched tags" true (bad "<a></b>");
  Alcotest.(check bool) "unterminated" true (bad "<a>");
  Alcotest.(check bool) "bad entity" true (bad "<a>&nope;</a>");
  Alcotest.(check bool) "trailing garbage" true (bad "<a/><b/>")

let test_xml_cdata () =
  match Aadl.Xml.parse_string "<a><![CDATA[1 < 2 && 3 > 2]]></a>" with
  | Aadl.Xml.Element (_, _, [ Aadl.Xml.Text t ]) ->
      Alcotest.(check string) "cdata preserved" "1 < 2 && 3 > 2" t
  | _ -> Alcotest.fail "expected CDATA text"

(* {1 Instance interchange} *)

(* Instances compare equal modulo source locations and resolved applies_to
   paths, which the format intentionally drops. *)
let rec normalize (i : Aadl.Instance.t) : Aadl.Instance.t =
  let norm_prop (p : Aadl.Ast.prop) =
    { p with Aadl.Ast.ploc = Aadl.Ast.no_loc; applies_to = [] }
  in
  let norm_feature (f : Aadl.Ast.feature) =
    {
      f with
      Aadl.Ast.floc = Aadl.Ast.no_loc;
      fprops = List.map norm_prop f.Aadl.Ast.fprops;
    }
  in
  let norm_conn (c : Aadl.Ast.connection) =
    {
      c with
      Aadl.Ast.conn_loc = Aadl.Ast.no_loc;
      conn_props = List.map norm_prop c.Aadl.Ast.conn_props;
    }
  in
  let norm_mode (m : Aadl.Ast.mode) =
    { m with Aadl.Ast.mode_loc = Aadl.Ast.no_loc }
  in
  let norm_trans (t : Aadl.Ast.mode_transition) =
    { t with Aadl.Ast.mt_loc = Aadl.Ast.no_loc }
  in
  {
    i with
    Aadl.Instance.props = List.map norm_prop i.Aadl.Instance.props;
    features = List.map norm_feature i.Aadl.Instance.features;
    connections = List.map norm_conn i.Aadl.Instance.connections;
    modes = List.map norm_mode i.Aadl.Instance.modes;
    transitions = List.map norm_trans i.Aadl.Instance.transitions;
    children = List.map normalize i.Aadl.Instance.children;
    loc = Aadl.Ast.no_loc;
  }

let fixtures =
  [
    ("cruise control", Gen.cruise_control ());
    ("event driven", Gen.event_driven ());
    ("modal", Gen.modal_system ());
    ("hierarchical", Gen.hierarchical_system ());
    ("shared data", Gen.shared_data_system ());
  ]

let test_instance_roundtrip () =
  List.iter
    (fun (name, text) ->
      let root = Aadl.Instantiate.of_string text in
      let round =
        Aadl.Instance_xml.of_string (Aadl.Instance_xml.to_string root)
      in
      Alcotest.(check bool)
        (name ^ " round-trips structurally")
        true
        (normalize root = normalize round))
    fixtures

let test_roundtrip_preserves_analysis () =
  List.iter
    (fun (name, text) ->
      let root = Aadl.Instantiate.of_string text in
      let round =
        Aadl.Instance_xml.of_string (Aadl.Instance_xml.to_string root)
      in
      let analyze r = Analysis.Schedulability.analyze r in
      let r1 = analyze root and r2 = analyze round in
      Alcotest.(check bool)
        (name ^ " same verdict")
        (Analysis.Schedulability.is_schedulable r1)
        (Analysis.Schedulability.is_schedulable r2);
      Alcotest.(check int)
        (name ^ " same state count")
        (Versa.Explorer.num_states
           r1.Analysis.Schedulability.exploration)
        (Versa.Explorer.num_states
           r2.Analysis.Schedulability.exploration))
    fixtures

let test_instance_paths_rebuilt () =
  let root = Aadl.Instantiate.of_string (Gen.cruise_control ()) in
  let round = Aadl.Instance_xml.of_string (Aadl.Instance_xml.to_string root) in
  match Aadl.Instance.find round [ "hci"; "ref_speed" ] with
  | Some th ->
      Alcotest.(check (list string)) "path" [ "hci"; "ref_speed" ]
        th.Aadl.Instance.path;
      Alcotest.(check bool) "category" true
        (th.Aadl.Instance.category = Aadl.Ast.Thread)
  | None -> Alcotest.fail "hci.ref_speed lost in round-trip"

let test_schema_errors () =
  let bad input =
    match Aadl.Instance_xml.of_string input with
    | _ -> false
    | exception Aadl.Diag.Error _ -> true
  in
  Alcotest.(check bool) "missing category" true
    (bad {|<instance name="x"/>|});
  Alcotest.(check bool) "unknown category" true
    (bad {|<instance name="x" category="gizmo"/>|});
  Alcotest.(check bool) "malformed xml" true (bad "<instance")

let () =
  ignore lc;
  Alcotest.run "xml"
    [
      ( "generic",
        [
          Alcotest.test_case "basic" `Quick test_xml_basic;
          Alcotest.test_case "entities" `Quick test_xml_entities;
          Alcotest.test_case "errors" `Quick test_xml_errors;
          Alcotest.test_case "cdata" `Quick test_xml_cdata;
        ] );
      ( "instance",
        [
          Alcotest.test_case "round-trip" `Quick test_instance_roundtrip;
          Alcotest.test_case "analysis preserved" `Quick
            test_roundtrip_preserves_analysis;
          Alcotest.test_case "paths rebuilt" `Quick test_instance_paths_rebuilt;
          Alcotest.test_case "schema errors" `Quick test_schema_errors;
        ] );
    ]
