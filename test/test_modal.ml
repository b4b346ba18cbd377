(* Tests for the mode-support extension: parsing of modes, transitions and
   [in modes] clauses; activity analysis; the generated mode manager; and
   end-to-end schedulability of multi-modal systems. *)

let instance ?degraded_cet_ms () =
  Aadl.Instantiate.of_string (Gen.modal_system ?degraded_cet_ms ())

let analyze text =
  Analysis.Schedulability.analyze (Aadl.Instantiate.of_string text)

(* {1 Parsing} *)

let test_parse_modes () =
  let root = instance () in
  Alcotest.(check int) "two modes" 2 (List.length root.Aadl.Instance.modes);
  Alcotest.(check (option string)) "initial mode" (Some "nominal")
    (Aadl.Instance.initial_mode root);
  Alcotest.(check int) "two transitions" 2
    (List.length root.Aadl.Instance.transitions);
  let tr = List.hd root.Aadl.Instance.transitions in
  Alcotest.(check string) "src" "nominal" tr.Aadl.Ast.mt_src;
  Alcotest.(check string) "dst" "degraded" tr.Aadl.Ast.mt_dst;
  (match tr.Aadl.Ast.mt_triggers with
  | [ { Aadl.Ast.ce_sub = Some "ctl"; ce_feature = "alarm" } ] -> ()
  | _ -> Alcotest.fail "unexpected trigger")

let test_parse_in_modes () =
  let root = instance () in
  let wn = Aadl.Instance.find_exn root [ "wn" ] in
  let ctl = Aadl.Instance.find_exn root [ "ctl" ] in
  Alcotest.(check (list string)) "wn in nominal" [ "nominal" ]
    wn.Aadl.Instance.in_modes;
  Alcotest.(check (list string)) "ctl in all modes" []
    ctl.Aadl.Instance.in_modes

(* {1 Activity analysis} *)

let modal_of root =
  Translate.Modal.analyze ~root ~quantum:(Aadl.Time.of_ms 1)
    (Option.get (Translate.Modal.find root))

let test_activity () =
  let root = instance () in
  let m = modal_of root in
  Alcotest.(check bool) "wn active in nominal" true
    (Translate.Modal.active_in m ~mode:"nominal" ~thread:[ "wn" ]);
  Alcotest.(check bool) "wn inactive in degraded" false
    (Translate.Modal.active_in m ~mode:"degraded" ~thread:[ "wn" ]);
  Alcotest.(check bool) "ctl active everywhere" true
    (Translate.Modal.active_in m ~mode:"degraded" ~thread:[ "ctl" ]);
  Alcotest.(check bool) "wn initially active" true
    (Translate.Modal.initially_active m ~thread:[ "wn" ]);
  Alcotest.(check bool) "wd initially inactive" false
    (Translate.Modal.initially_active m ~thread:[ "wd" ]);
  Alcotest.(check int) "two mode-dependent threads" 2
    (List.length (Translate.Modal.restricted_threads m))

let test_internal_triggers () =
  let root = instance () in
  let m = modal_of root in
  Alcotest.(check int) "ctl raises one trigger" 1
    (List.length (Translate.Modal.internal_triggers_of m ~thread:[ "ctl" ]));
  Alcotest.(check int) "wn raises none" 0
    (List.length (Translate.Modal.internal_triggers_of m ~thread:[ "wn" ]))

(* {1 End-to-end schedulability} *)

let test_mode_exclusion_makes_feasible () =
  (* both workers together would overload the processor (2+3+6 = 11 > 10),
     so the verdict is schedulable only if mode exclusion is honored *)
  let root = instance () in
  let wl =
    Translate.Workload.extract ~quantum:(Aadl.Time.of_ms 1) root
  in
  Alcotest.(check bool) "combined utilization above 1" true
    (Translate.Workload.utilization wl.Translate.Workload.tasks > 1.0);
  let r = analyze (Gen.modal_system ()) in
  Alcotest.(check bool) "schedulable thanks to modes" true
    (Analysis.Schedulability.is_schedulable r)

let test_degraded_overload_detected () =
  let r = analyze (Gen.modal_system ~degraded_cet_ms:9 ()) in
  match r.Analysis.Schedulability.verdict with
  | Analysis.Schedulability.Not_schedulable { scenario; _ } ->
      let happenings =
        List.concat_map
          (fun q -> q.Analysis.Raise_trace.happenings)
          scenario.Analysis.Raise_trace.quanta
      in
      Alcotest.(check bool) "scenario contains the mode switch" true
        (List.exists
           (function
             | Analysis.Raise_trace.Mode_transition _ -> true
             | _ -> false)
           happenings);
      Alcotest.(check bool) "wd activated" true
        (List.exists
           (function
             | Analysis.Raise_trace.Activated [ "wd" ] -> true
             | _ -> false)
           happenings);
      Alcotest.(check bool) "wn deactivated" true
        (List.exists
           (function
             | Analysis.Raise_trace.Deactivated [ "wn" ] -> true
             | _ -> false)
           happenings)
  | _ -> Alcotest.fail "expected the degraded-mode overload to be found"

let test_deactivation_waits_for_completion () =
  (* the mode manager delivers deactivation at a dispatch boundary: no
     scenario may deactivate a thread between its dispatch and its
     completion.  We check all reachable violations of the overloaded
     variant respect this for wn. *)
  let root = instance ~degraded_cet_ms:9 () in
  let options =
    { Analysis.Schedulability.default_options with all_violations = true }
  in
  let r = Analysis.Schedulability.analyze ~options root in
  let scenarios = Analysis.Schedulability.all_scenarios r in
  Alcotest.(check bool) "at least one violation" true (scenarios <> []);
  List.iter
    (fun (sc : Analysis.Raise_trace.t) ->
      let running = ref false in
      List.iter
        (fun q ->
          List.iter
            (function
              | Analysis.Raise_trace.Dispatched [ "wn" ] -> running := true
              | Analysis.Raise_trace.Completed [ "wn" ] -> running := false
              | Analysis.Raise_trace.Deactivated [ "wn" ] ->
                  Alcotest.(check bool)
                    "wn not deactivated mid-dispatch" false !running
              | _ -> ())
            q.Analysis.Raise_trace.happenings)
        sc.Analysis.Raise_trace.quanta)
    scenarios

let test_multiple_modal_components_rejected () =
  let text =
    {|
processor cpu
properties
  Scheduling_Protocol => RATE_MONOTONIC_PROTOCOL;
end cpu;
thread t
properties
  Dispatch_Protocol => Periodic;
  Period => 10 ms;
  Compute_Execution_Time => 1 ms;
  Compute_Deadline => 10 ms;
end t;
system sub
end sub;
system implementation sub.impl
subcomponents
  th: thread t;
modes
  a: initial mode;
  b: mode;
end sub.impl;
system root
end root;
system implementation root.impl
subcomponents
  cpu1: processor cpu;
  s1: system sub.impl;
modes
  x: initial mode;
  y: mode;
properties
  Actual_Processor_Binding => reference (cpu1) applies to s1.th;
end root.impl;
|}
  in
  Alcotest.(check bool) "rejected" true
    (try
       ignore (analyze text);
       false
     with Aadl.Diag.Error _ -> true)

let test_environment_trigger () =
  (* a transition triggered by the modal component's own port: the
     environment may switch modes at any time; both modes must hold *)
  let text =
    {|
processor cpu
properties
  Scheduling_Protocol => RATE_MONOTONIC_PROTOCOL;
end cpu;
thread w1
properties
  Dispatch_Protocol => Periodic;
  Period => 10 ms;
  Compute_Execution_Time => 4 ms;
  Compute_Deadline => 10 ms;
end w1;
thread w2
properties
  Dispatch_Protocol => Periodic;
  Period => 10 ms;
  Compute_Execution_Time => 7 ms;
  Compute_Deadline => 10 ms;
end w2;
system root
features
  switch_req: in event port;
end root;
system implementation root.impl
subcomponents
  cpu1: processor cpu;
  a: thread w1 in modes (m1);
  b: thread w2 in modes (m2);
modes
  m1: initial mode;
  m2: mode;
  m1 -[ switch_req ]-> m2;
  m2 -[ switch_req ]-> m1;
properties
  Actual_Processor_Binding => reference (cpu1) applies to a;
  Actual_Processor_Binding => reference (cpu1) applies to b;
end root.impl;
|}
  in
  let r = analyze text in
  Alcotest.(check bool) "both modes feasible under arbitrary switching" true
    (Analysis.Schedulability.is_schedulable r)

let test_translation_counts_unchanged () =
  (* mode support must not change the Algorithm 1 process counts *)
  let root = instance () in
  let tr = Translate.Pipeline.translate root in
  Alcotest.(check int) "three thread processes" 3
    tr.Translate.Pipeline.num_thread_processes;
  Alcotest.(check int) "three dispatchers" 3 tr.Translate.Pipeline.num_dispatchers

(* AADL identifiers are case-insensitive: declaring the modes in another
   case than the transitions and [in modes] clauses use must not change
   the analysis. *)
let test_mode_names_case_insensitive () =
  let replace ~sub ~by text =
    let n = String.length sub in
    let rec go i =
      if String.sub text i n = sub then
        String.sub text 0 i ^ by
        ^ String.sub text (i + n) (String.length text - i - n)
      else go (i + 1)
    in
    go 0
  in
  List.iter
    (fun degraded_cet_ms ->
      let text = Gen.modal_system ?degraded_cet_ms () in
      let swapped =
        text
        |> replace ~sub:"nominal: initial mode;" ~by:"NOMINAL: initial mode;"
        |> replace ~sub:"degraded: mode;" ~by:"DEGRADED: mode;"
      in
      let summary text =
        let r = analyze text in
        ( Analysis.Schedulability.is_schedulable r,
          Versa.Explorer.num_states r.Analysis.Schedulability.exploration )
      in
      Alcotest.(check (pair bool int))
        "same verdict and state count" (summary text) (summary swapped))
    [ None; Some 9 ]

let () =
  Alcotest.run "modal"
    [
      ( "parsing",
        [
          Alcotest.test_case "modes and transitions" `Quick test_parse_modes;
          Alcotest.test_case "in modes clauses" `Quick test_parse_in_modes;
        ] );
      ( "activity",
        [
          Alcotest.test_case "active_in" `Quick test_activity;
          Alcotest.test_case "internal triggers" `Quick test_internal_triggers;
        ] );
      ( "analysis",
        [
          Alcotest.test_case "mode exclusion feasible" `Quick
            test_mode_exclusion_makes_feasible;
          Alcotest.test_case "degraded overload" `Quick
            test_degraded_overload_detected;
          Alcotest.test_case "deactivation at boundary" `Quick
            test_deactivation_waits_for_completion;
          Alcotest.test_case "multiple modal rejected" `Quick
            test_multiple_modal_components_rejected;
          Alcotest.test_case "environment trigger" `Quick
            test_environment_trigger;
          Alcotest.test_case "counts unchanged" `Quick
            test_translation_counts_unchanged;
          Alcotest.test_case "mode names case-insensitive" `Quick
            test_mode_names_case_insensitive;
        ] );
    ]
