(* Tests for the AADL frontend: lexing, parsing, property access,
   instantiation with property precedence, semantic connection resolution
   across the containment hierarchy, bindings and legality checks. *)

let lc = String.lowercase_ascii

(* Substring test without extra dependencies. *)
module Astring_contains = struct
  let contains s sub =
    let n = String.length s and m = String.length sub in
    let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
    m = 0 || go 0
end

(* A two-subsystem model exercising multi-level semantic connections and
   contained property bindings, shaped like the paper's Fig. 1. *)
let mini_system =
  {|
processor cpu
properties
  Scheduling_Protocol => RATE_MONOTONIC_PROTOCOL;
end cpu;

bus vme
end vme;

thread sensor
features
  outp: out data port;
properties
  Dispatch_Protocol => Periodic;
  Period => 10 ms;
  Compute_Execution_Time => 2 ms .. 3 ms;
  Compute_Deadline => 10 ms;
end sensor;

thread controller
features
  inp: in data port;
properties
  Dispatch_Protocol => Periodic;
  Period => 20 ms;
  Compute_Execution_Time => 5 ms;
  Compute_Deadline => 20 ms;
  Priority => 7;
end controller;

thread implementation sensor.impl
end sensor.impl;

thread implementation controller.impl
end controller.impl;

process sense_proc
features
  data_out: out data port;
end sense_proc;

process implementation sense_proc.impl
subcomponents
  s1: thread sensor.impl;
connections
  c1: port s1.outp -> data_out;
end sense_proc.impl;

process control_proc
features
  data_in: in data port;
end control_proc;

process implementation control_proc.impl
subcomponents
  t1: thread controller.impl;
connections
  c2: port data_in -> t1.inp;
end control_proc.impl;

system root
end root;

system implementation root.impl
subcomponents
  cpu1: processor cpu;
  b1: bus vme;
  sp: process sense_proc.impl;
  cp: process control_proc.impl;
connections
  c0: port sp.data_out -> cp.data_in { Actual_Connection_Binding => reference (b1); };
properties
  Actual_Processor_Binding => reference (cpu1) applies to sp.s1;
  Actual_Processor_Binding => reference (cpu1) applies to cp.t1;
end root.impl;
|}

let instance () = Aadl.Instantiate.of_string mini_system

(* {1 Lexer} *)

let test_lexer_tokens () =
  let toks = List.map fst (Aadl.Lexer.tokenize "a.b -> c_1 { X => 5 ms; } -- zap\n;") in
  Alcotest.(check int) "token count" 14 (List.length toks);
  (match toks with
  | Aadl.Lexer.IDENT "a" :: Aadl.Lexer.DOT :: Aadl.Lexer.IDENT "b"
    :: Aadl.Lexer.ARROW :: _ ->
      ()
  | _ -> Alcotest.fail "unexpected token stream");
  Alcotest.(check bool) "comment swallowed" true
    (not
       (List.exists
          (function Aadl.Lexer.IDENT s -> lc s = "zap" | _ -> false)
          toks))

let test_lexer_dotdot_vs_real () =
  match List.map fst (Aadl.Lexer.tokenize "1 .. 2 3.5 4..5") with
  | [
   Aadl.Lexer.INT 1;
   Aadl.Lexer.DOTDOT;
   Aadl.Lexer.INT 2;
   Aadl.Lexer.REAL f;
   Aadl.Lexer.INT 4;
   Aadl.Lexer.DOTDOT;
   Aadl.Lexer.INT 5;
   Aadl.Lexer.EOF;
  ] ->
      Alcotest.(check (float 1e-9)) "real" 3.5 f
  | _ -> Alcotest.fail "unexpected tokens for ranges and reals"

let test_lexer_string_and_arrows () =
  match List.map fst (Aadl.Lexer.tokenize {|"hi" <-> => +=>|}) with
  | [
   Aadl.Lexer.STRING "hi";
   Aadl.Lexer.BIARROW;
   Aadl.Lexer.DARROW;
   Aadl.Lexer.PLUSDARROW;
   Aadl.Lexer.EOF;
  ] ->
      ()
  | _ -> Alcotest.fail "unexpected tokens"

let test_lexer_error_position () =
  try
    ignore (Aadl.Lexer.tokenize "ab\n  @");
    Alcotest.fail "expected lexer error"
  with Aadl.Diag.Error { loc = Some loc; _ } ->
    Alcotest.(check int) "line" 2 loc.Aadl.Ast.line;
    Alcotest.(check int) "col" 3 loc.Aadl.Ast.col

(* {1 Parser} *)

let test_parse_model_decl_count () =
  let m = Aadl.Parser.parse_string mini_system in
  Alcotest.(check int) "twelve declarations" 12 (List.length m.Aadl.Ast.decls)

let test_parse_thread_type () =
  let m = Aadl.Parser.parse_string mini_system in
  let sensor =
    List.find_map
      (function
        | Aadl.Ast.Type_decl t when t.Aadl.Ast.ct_name = "sensor" -> Some t
        | _ -> None)
      m.Aadl.Ast.decls
  in
  match sensor with
  | None -> Alcotest.fail "sensor type not found"
  | Some t ->
      Alcotest.(check int) "one feature" 1 (List.length t.Aadl.Ast.ct_features);
      Alcotest.(check int) "four properties" 4 (List.length t.Aadl.Ast.ct_props);
      let f = List.hd t.Aadl.Ast.ct_features in
      (match f.Aadl.Ast.fkind with
      | Aadl.Ast.Port (Aadl.Ast.Out, Aadl.Ast.Data_port, None) -> ()
      | _ -> Alcotest.fail "expected out data port")

let test_parse_time_and_range () =
  let m = Aadl.Parser.parse_string mini_system in
  let sensor =
    List.find_map
      (function
        | Aadl.Ast.Type_decl t when t.Aadl.Ast.ct_name = "sensor" -> Some t
        | _ -> None)
      m.Aadl.Ast.decls
    |> Option.get
  in
  (match Aadl.Props.period sensor.Aadl.Ast.ct_props with
  | Some t -> Alcotest.(check int) "period 10ms in ns" 10_000_000 (Aadl.Time.to_ns t)
  | None -> Alcotest.fail "period missing");
  match Aadl.Props.compute_execution_time sensor.Aadl.Ast.ct_props with
  | Some (lo, hi) ->
      Alcotest.(check int) "cet lo" 2_000_000 (Aadl.Time.to_ns lo);
      Alcotest.(check int) "cet hi" 3_000_000 (Aadl.Time.to_ns hi)
  | None -> Alcotest.fail "cet missing"

let test_parse_applies_to () =
  let m = Aadl.Parser.parse_string mini_system in
  let root_impl =
    List.find_map
      (function
        | Aadl.Ast.Impl_decl i when Aadl.Ast.impl_full_name i = "root.impl" ->
            Some i
        | _ -> None)
      m.Aadl.Ast.decls
    |> Option.get
  in
  Alcotest.(check int) "two contained props" 2
    (List.length root_impl.Aadl.Ast.ci_props);
  let p = List.hd root_impl.Aadl.Ast.ci_props in
  Alcotest.(check (list (list string))) "applies to path" [ [ "sp"; "s1" ] ]
    p.Aadl.Ast.applies_to

let test_parse_error_reports_location () =
  try
    ignore (Aadl.Parser.parse_string "thread t\nfeatures\n  bogus\nend t;");
    Alcotest.fail "expected parse error"
  with Aadl.Diag.Error { loc = Some loc; _ } ->
    Alcotest.(check bool) "error on line >= 3" true (loc.Aadl.Ast.line >= 3)

let test_parse_end_name_mismatch () =
  try
    ignore (Aadl.Parser.parse_string "thread t\nend u;");
    Alcotest.fail "expected mismatch error"
  with Aadl.Diag.Error d ->
    Alcotest.(check bool) "mentions mismatch" true
      (Astring_contains.contains d.message "does not match")

(* A picosecond literal that is not whole nanoseconds is rejected at the
   literal, like any other syntax error. *)
let test_parse_subnanosecond_located () =
  match Aadl.Parser.parse_string "thread t\nproperties\n  Period => 3 ps;\nend t;" with
  | _ -> Alcotest.fail "expected a time error"
  | exception Aadl.Diag.Error { loc = Some loc; message; _ } ->
      Alcotest.(check (pair int int)) "at the literal" (3, 13)
        (loc.Aadl.Ast.line, loc.Aadl.Ast.col);
      Alcotest.(check string) "message"
        "3 ps is not a whole number of nanoseconds" message

(* {1 Instantiation} *)

let test_instance_tree_shape () =
  let root = instance () in
  Alcotest.(check int) "four children" 4 (List.length root.Aadl.Instance.children);
  Alcotest.(check int) "two threads" 2
    (List.length (Aadl.Instance.threads root));
  Alcotest.(check int) "one processor" 1
    (List.length (Aadl.Instance.processors root));
  Alcotest.(check int) "one bus" 1 (List.length (Aadl.Instance.buses root));
  match Aadl.Instance.find root [ "sp"; "s1" ] with
  | Some th ->
      Alcotest.(check bool) "is a thread" true
        (th.Aadl.Instance.category = Aadl.Ast.Thread)
  | None -> Alcotest.fail "sp.s1 not found"

let test_contained_property_delivery () =
  let root = instance () in
  let th = Aadl.Instance.find_exn root [ "sp"; "s1" ] in
  match Aadl.Props.actual_processor_binding th.Aadl.Instance.props with
  | Some [ "cpu1" ] -> ()
  | Some p -> Alcotest.fail ("wrong binding path: " ^ String.concat "." p)
  | None -> Alcotest.fail "binding not delivered to thread instance"

let test_property_precedence () =
  (* A subcomponent association must override the type association. *)
  let text =
    {|
thread t
properties
  Priority => 1;
end t;
thread implementation t.impl
end t.impl;
processor cpu
properties
  Scheduling_Protocol => HPF_PROTOCOL;
end cpu;
system s
end s;
system implementation s.impl
subcomponents
  th: thread t.impl { Priority => 9; };
  cpu1: processor cpu;
end s.impl;
|}
  in
  let root = Aadl.Instantiate.of_string text in
  let th = Aadl.Instance.find_exn root [ "th" ] in
  Alcotest.(check (option int)) "subcomponent wins" (Some 9)
    (Aadl.Props.priority th.Aadl.Instance.props)

let test_unknown_classifier_rejected () =
  let text =
    {|
system s
end s;
system implementation s.impl
subcomponents
  x: thread nothere;
end s.impl;
|}
  in
  match Aadl.Instantiate.of_string text with
  | _ -> Alcotest.fail "expected an unknown classifier"
  | exception Aadl.Diag.Error d ->
      Alcotest.(check string) "diagnostic"
        "6:3: error: x: unknown classifier nothere" (Aadl.Diag.to_string d)

let test_category_mismatch_rejected () =
  let text =
    {|
thread t
end t;
system s
end s;
system implementation s.impl
subcomponents
  x: processor t;
end s.impl;
|}
  in
  match Aadl.Instantiate.of_string text with
  | _ -> Alcotest.fail "expected a category mismatch"
  | exception Aadl.Diag.Error d ->
      Alcotest.(check string) "diagnostic"
        "8:3: error: x: declared as processor but classifier t is a thread"
        (Aadl.Diag.to_string d)

(* {1 Time} *)

let test_time_units () =
  Alcotest.(check int) "us" 1_000 (Aadl.Time.to_ns (Aadl.Time.make 1 Aadl.Time.Us));
  Alcotest.(check int) "sec" 2_000_000_000
    (Aadl.Time.to_ns (Aadl.Time.make 2 Aadl.Time.Sec));
  Alcotest.(check int) "min" 60_000_000_000
    (Aadl.Time.to_ns (Aadl.Time.make 1 Aadl.Time.Min));
  Alcotest.(check int) "ps rounds exactly" 3
    (Aadl.Time.to_ns (Aadl.Time.make 3000 Aadl.Time.Ps));
  Alcotest.check_raises "subnanosecond ps"
    (Invalid_argument "Time.make: 1500 ps is not whole nanoseconds")
    (fun () -> ignore (Aadl.Time.make 1500 Aadl.Time.Ps))

let test_time_quanta () =
  let quantum = Aadl.Time.of_ms 2 in
  Alcotest.(check int) "ceil 3ms/2ms" 2
    (Aadl.Time.to_quanta ~quantum (Aadl.Time.of_ms 3));
  Alcotest.(check int) "floor 3ms/2ms" 1
    (Aadl.Time.to_quanta_floor ~quantum (Aadl.Time.of_ms 3));
  Alcotest.(check int) "exact multiple" 2
    (Aadl.Time.to_quanta ~quantum (Aadl.Time.of_ms 4))

let test_time_unit_names () =
  List.iter
    (fun u ->
      match Aadl.Time.unit_of_string (Aadl.Time.unit_to_string u) with
      | Some u' -> Alcotest.(check bool) "unit round-trip" true (u = u')
      | None -> Alcotest.fail "unit name not recognized")
    Aadl.Time.[ Ps; Ns; Us; Ms; Sec; Min; Hr ]

(* {1 Reference resolution} *)

let test_resolve_reference_scoping () =
  (* a reference resolves innermost-first: from sp.s1, "s1" finds the
     sibling-level name before any outer one *)
  let root = instance () in
  (match
     Aadl.Instance.resolve_reference ~root ~from:[ "sp"; "s1" ] [ "s1" ]
   with
  | Some i ->
      Alcotest.(check (list string)) "inner s1" [ "sp"; "s1" ]
        i.Aadl.Instance.path
  | None -> Alcotest.fail "s1 should resolve");
  (match Aadl.Instance.resolve_reference ~root ~from:[ "sp"; "s1" ] [ "cpu1" ] with
  | Some i ->
      Alcotest.(check (list string)) "outer cpu1" [ "cpu1" ] i.Aadl.Instance.path
  | None -> Alcotest.fail "cpu1 should resolve from inner scope");
  Alcotest.(check bool) "unknown stays unresolved" true
    (Aadl.Instance.resolve_reference ~root ~from:[ "sp" ] [ "ghost" ] = None)

(* {1 Semantic connections} *)

let test_semconn_resolution () =
  let root = instance () in
  let sconns = Aadl.Semconn.resolve root in
  match sconns with
  | [ sc ] ->
      Alcotest.(check (list string)) "ultimate source" [ "sp"; "s1" ]
        sc.Aadl.Semconn.src.Aadl.Semconn.inst;
      Alcotest.(check (list string)) "ultimate destination" [ "cp"; "t1" ]
        sc.Aadl.Semconn.dst.Aadl.Semconn.inst;
      Alcotest.(check int) "three syntactic links" 3
        (List.length sc.Aadl.Semconn.links);
      Alcotest.(check bool) "data connection" true
        (not (Aadl.Semconn.is_event_like sc))
  | l -> Alcotest.fail (Fmt.str "expected one semantic connection, got %d" (List.length l))

let test_semconn_bus_binding () =
  let root = instance () in
  let sconns = Aadl.Semconn.resolve root in
  let sc = List.hd sconns in
  match Aadl.Binding.bus_of ~root sc with
  | Some bus ->
      Alcotest.(check (list string)) "bound to b1" [ "b1" ]
        bus.Aadl.Instance.path
  | None -> Alcotest.fail "connection not bound to a bus"

let test_processor_binding () =
  let root = instance () in
  let by_proc = Aadl.Binding.threads_by_processor ~root in
  match by_proc with
  | [ (proc, bound) ] ->
      Alcotest.(check (list string)) "cpu1" [ "cpu1" ] proc.Aadl.Instance.path;
      Alcotest.(check int) "two bound threads" 2 (List.length bound)
  | _ -> Alcotest.fail "expected one processor group"

(* {1 Checks} *)

let test_check_ok_model () =
  let root = instance () in
  let diags = Aadl.Check.run root in
  Alcotest.(check bool) "no errors" true (Aadl.Check.is_ok diags)

let test_check_missing_properties () =
  let text =
    {|
thread t
end t;
processor cpu
end cpu;
system s
end s;
system implementation s.impl
subcomponents
  th: thread t;
  cpu1: processor cpu;
properties
  Actual_Processor_Binding => reference (cpu1) applies to th;
end s.impl;
|}
  in
  let root = Aadl.Instantiate.of_string text in
  let errs = Aadl.Check.errors (Aadl.Check.run root) in
  (* missing Dispatch_Protocol, Compute_Execution_Time, Compute_Deadline,
     Scheduling_Protocol *)
  Alcotest.(check int) "four errors" 4 (List.length errs)

let test_check_unbound_thread () =
  let text =
    {|
thread t
properties
  Dispatch_Protocol => Periodic;
  Period => 10 ms;
  Compute_Execution_Time => 1 ms;
  Compute_Deadline => 10 ms;
end t;
processor cpu
properties
  Scheduling_Protocol => EDF_PROTOCOL;
end cpu;
system s
end s;
system implementation s.impl
subcomponents
  th: thread t;
  cpu1: processor cpu;
end s.impl;
|}
  in
  let root = Aadl.Instantiate.of_string text in
  let errs = Aadl.Check.errors (Aadl.Check.run root) in
  Alcotest.(check bool) "reports unbound thread" true
    (List.exists
       (fun d -> d.Aadl.Diag.subject = [ "th" ])
       errs)

let test_check_aperiodic_needs_connection () =
  let text =
    {|
thread t
features
  trig: in event port;
properties
  Dispatch_Protocol => Aperiodic;
  Compute_Execution_Time => 1 ms;
  Compute_Deadline => 10 ms;
end t;
processor cpu
properties
  Scheduling_Protocol => EDF_PROTOCOL;
end cpu;
system s
end s;
system implementation s.impl
subcomponents
  th: thread t;
  cpu1: processor cpu;
properties
  Actual_Processor_Binding => reference (cpu1) applies to th;
end s.impl;
|}
  in
  let root = Aadl.Instantiate.of_string text in
  let errs = Aadl.Check.errors (Aadl.Check.run root) in
  Alcotest.(check bool) "reports dangling event port" true
    (List.exists
       (fun d ->
         d.Aadl.Diag.subject = [ "th" ]
         && Astring_contains.contains d.Aadl.Diag.message "trig")
       errs)

let test_check_duplicate_subcomponent () =
  let text =
    {|
processor cpu
properties
  Scheduling_Protocol => EDF_PROTOCOL;
end cpu;
thread t
properties
  Dispatch_Protocol => Periodic;
  Period => 10 ms;
  Compute_Execution_Time => 1 ms;
  Compute_Deadline => 10 ms;
end t;
system s
end s;
system implementation s.impl
subcomponents
  th: thread t;
  th: thread t;
  cpu1: processor cpu;
properties
  Actual_Processor_Binding => reference (cpu1) applies to th;
end s.impl;
|}
  in
  let root = Aadl.Instantiate.of_string text in
  let errs = Aadl.Check.errors (Aadl.Check.run root) in
  Alcotest.(check bool) "duplicate reported" true
    (List.exists
       (fun d -> Astring_contains.contains d.Aadl.Diag.message "duplicate subcomponent")
       errs)

let test_check_dangling_connection () =
  let text =
    {|
processor cpu
properties
  Scheduling_Protocol => EDF_PROTOCOL;
end cpu;
thread t
features
  outp: out data port;
properties
  Dispatch_Protocol => Periodic;
  Period => 10 ms;
  Compute_Execution_Time => 1 ms;
  Compute_Deadline => 10 ms;
end t;
system s
end s;
system implementation s.impl
subcomponents
  th: thread t;
  cpu1: processor cpu;
connections
  c1: port th.outp -> nowhere.inp;
properties
  Actual_Processor_Binding => reference (cpu1) applies to th;
end s.impl;
|}
  in
  let root = Aadl.Instantiate.of_string text in
  let errs = Aadl.Check.errors (Aadl.Check.run root) in
  Alcotest.(check bool) "dangling destination reported" true
    (List.exists
       (fun d -> Astring_contains.contains d.Aadl.Diag.message "does not resolve")
       errs)

let test_check_bad_mode_references () =
  let text =
    {|
processor cpu
properties
  Scheduling_Protocol => EDF_PROTOCOL;
end cpu;
thread t
properties
  Dispatch_Protocol => Periodic;
  Period => 10 ms;
  Compute_Execution_Time => 1 ms;
  Compute_Deadline => 10 ms;
end t;
system s
end s;
system implementation s.impl
subcomponents
  th: thread t in modes (ghost);
  cpu1: processor cpu;
modes
  m1: initial mode;
  m1 -[ th.nope ]-> m2;
properties
  Actual_Processor_Binding => reference (cpu1) applies to th;
end s.impl;
|}
  in
  let root = Aadl.Instantiate.of_string text in
  let errs = Aadl.Check.errors (Aadl.Check.run root) in
  Alcotest.(check bool) "undeclared in-modes reported" true
    (List.exists
       (fun d -> Astring_contains.contains d.Aadl.Diag.message "undeclared mode")
       errs);
  Alcotest.(check bool) "unknown transition target reported" true
    (List.exists
       (fun d -> Astring_contains.contains d.Aadl.Diag.message "unknown mode m2")
       errs)

(* {1 Robustness: mutated models are analyzed or rejected, never crash}

   Seeded token-level mutants of every example model go through the whole
   pipeline — instantiate, plan, realize, a bounded exploration — and the
   only failure allowed is a [Diag.Error].  Mutated attribute values of
   an exported instance XML go through the same pipeline. *)

let example_models () =
  match
    List.find_opt Sys.file_exists [ "../examples/models"; "examples/models" ]
  with
  | None -> Alcotest.fail "examples/models not found (missing dune deps?)"
  | Some dir ->
      Sys.readdir dir |> Array.to_list
      |> List.filter (fun f -> Filename.check_suffix f ".aadl")
      |> List.sort compare
      |> List.map (fun f ->
             let ic = open_in_bin (Filename.concat dir f) in
             Fun.protect
               ~finally:(fun () -> close_in_noerr ic)
               (fun () -> (f, really_input_string ic (in_channel_length ic))))

let analyze_or_reject ~what load =
  match
    let tr = Translate.Pipeline.of_plan (Translate.Pipeline.plan (load ())) in
    Versa.Explorer.check_deadlock ~max_states:2000 tr.Translate.Pipeline.defs
      tr.Translate.Pipeline.system
  with
  | _ | (exception Aadl.Diag.Error _) -> ()
  | exception e ->
      Alcotest.failf "%s: uncaught %s" what (Printexc.to_string e)

(* Each token's byte span, from its start to the next token's start. *)
let token_spans text =
  let line_starts = Array.make (String.length text + 2) 0 in
  let lines = ref 1 in
  String.iteri
    (fun i c ->
      if c = '\n' then begin
        line_starts.(!lines) <- i + 1;
        incr lines
      end)
    text;
  let offset (l : Aadl.Ast.srcloc) = line_starts.(l.line - 1) + l.col - 1 in
  let toks = Array.of_list (Aadl.Lexer.tokenize text) in
  Array.init
    (Array.length toks - 1)
    (fun i -> (fst toks.(i), offset (snd toks.(i)), offset (snd toks.(i + 1))))

let swap_case s =
  String.map
    (fun c ->
      if Char.lowercase_ascii c = c then Char.uppercase_ascii c
      else Char.lowercase_ascii c)
    s

let mutate st text =
  let spans = token_spans text in
  let tok, a, b = spans.(Random.State.int st (Array.length spans)) in
  let n = String.length text in
  let splice x = String.sub text 0 a ^ x ^ String.sub text b (n - b) in
  match Random.State.int st 5 with
  | 0 -> splice ""
  | 1 -> splice (String.sub text a (b - a) ^ String.sub text a (b - a))
  | 2 -> (
      match tok with
      | Aadl.Lexer.IDENT id ->
          let e = a + String.length id in
          String.sub text 0 a ^ swap_case id ^ String.sub text e (n - e)
      | _ -> splice "")
  | 3 ->
      splice
        ([| "0 "; "-1 "; "3 ps "; "12345678901234567890 " |].(Random.State.int
                                                                   st 4))
  | _ -> String.sub text 0 a

let test_frontend_fuzz () =
  let st = Random.State.make [| 7 |] in
  List.iter
    (fun (file, text) ->
      for i = 1 to 120 do
        let mutant = mutate st text in
        analyze_or_reject
          ~what:(Fmt.str "%s mutant %d" file i)
          (fun () -> Aadl.Instantiate.of_string mutant)
      done)
    (example_models ())

let test_instance_xml_fuzz () =
  let text = List.assoc "cruise_control.aadl" (example_models ()) in
  let xml = Aadl.Instance_xml.to_string (Aadl.Instantiate.of_string text) in
  (* start offsets of every attribute value *)
  let values =
    List.filter_map
      (fun i ->
        if i > 0 && xml.[i - 1] = '=' && xml.[i] = '"' then Some (i + 1)
        else None)
      (List.init (String.length xml) Fun.id)
    |> Array.of_list
  in
  let replace_value at v =
    let close = String.index_from xml at '"' in
    String.sub xml 0 at ^ v ^ String.sub xml close (String.length xml - close)
  in
  let st = Random.State.make [| 7 |] in
  let first_ns =
    List.find (fun at -> String.sub xml (at - 4) 3 = "ns=") (Array.to_list values)
  in
  List.iteri
    (fun i mutant ->
      analyze_or_reject
        ~what:(Fmt.str "XML mutant %d" i)
        (fun () -> Aadl.Instance_xml.of_string mutant))
    (replace_value first_ns "12x"
    :: List.init 40 (fun _ ->
           replace_value
             values.(Random.State.int st (Array.length values))
             [| "12x"; ""; "-1"; "1.5"; "a.b.c" |].(Random.State.int st 5)))

let test_acsr_parser_fuzz_robustness () =
  let base =
    "Simple = {(cpu,1)} : {(cpu,1),(bus,1)} : done! . Simple;\nsystem = Simple;"
  in
  let st = Random.State.make [| 11 |] in
  let mutate s =
    let b = Bytes.of_string s in
    for _ = 1 to 1 + Random.State.int st 4 do
      let i = Random.State.int st (Bytes.length b) in
      Bytes.set b i (Char.chr (32 + Random.State.int st 95))
    done;
    Bytes.to_string b
  in
  for _ = 1 to 500 do
    let input = mutate base in
    match Acsr.Syntax.parse_string input with
    | _ -> ()
    | exception Acsr.Syntax.Parse_error _ -> ()
  done

let () =
  Alcotest.run "aadl"
    [
      ( "lexer",
        [
          Alcotest.test_case "tokens" `Quick test_lexer_tokens;
          Alcotest.test_case "dotdot vs real" `Quick test_lexer_dotdot_vs_real;
          Alcotest.test_case "strings and arrows" `Quick
            test_lexer_string_and_arrows;
          Alcotest.test_case "error position" `Quick test_lexer_error_position;
        ] );
      ( "parser",
        [
          Alcotest.test_case "decl count" `Quick test_parse_model_decl_count;
          Alcotest.test_case "thread type" `Quick test_parse_thread_type;
          Alcotest.test_case "time and range" `Quick test_parse_time_and_range;
          Alcotest.test_case "applies to" `Quick test_parse_applies_to;
          Alcotest.test_case "error location" `Quick
            test_parse_error_reports_location;
          Alcotest.test_case "end name mismatch" `Quick
            test_parse_end_name_mismatch;
          Alcotest.test_case "subnanosecond literal located" `Quick
            test_parse_subnanosecond_located;
        ] );
      ( "instance",
        [
          Alcotest.test_case "tree shape" `Quick test_instance_tree_shape;
          Alcotest.test_case "contained property delivery" `Quick
            test_contained_property_delivery;
          Alcotest.test_case "property precedence" `Quick
            test_property_precedence;
          Alcotest.test_case "unknown classifier" `Quick
            test_unknown_classifier_rejected;
          Alcotest.test_case "category mismatch" `Quick
            test_category_mismatch_rejected;
        ] );
      ( "time",
        [
          Alcotest.test_case "units" `Quick test_time_units;
          Alcotest.test_case "quanta" `Quick test_time_quanta;
          Alcotest.test_case "unit names" `Quick test_time_unit_names;
        ] );
      ( "references",
        [
          Alcotest.test_case "scoping" `Quick test_resolve_reference_scoping;
        ] );
      ( "semconn",
        [
          Alcotest.test_case "resolution" `Quick test_semconn_resolution;
          Alcotest.test_case "bus binding" `Quick test_semconn_bus_binding;
          Alcotest.test_case "processor binding" `Quick test_processor_binding;
        ] );
      ( "fuzz",
        [
          Alcotest.test_case "aadl frontend total" `Quick test_frontend_fuzz;
          Alcotest.test_case "instance xml total" `Quick
            test_instance_xml_fuzz;
          Alcotest.test_case "acsr parser total" `Quick
            test_acsr_parser_fuzz_robustness;
        ] );
      ( "check",
        [
          Alcotest.test_case "ok model" `Quick test_check_ok_model;
          Alcotest.test_case "missing properties" `Quick
            test_check_missing_properties;
          Alcotest.test_case "unbound thread" `Quick test_check_unbound_thread;
          Alcotest.test_case "aperiodic needs connection" `Quick
            test_check_aperiodic_needs_connection;
          Alcotest.test_case "duplicate subcomponent" `Quick
            test_check_duplicate_subcomponent;
          Alcotest.test_case "dangling connection" `Quick
            test_check_dangling_connection;
          Alcotest.test_case "bad mode references" `Quick
            test_check_bad_mode_references;
        ] );
    ]
