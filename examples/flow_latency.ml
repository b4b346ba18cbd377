(* End-to-end latency analysis with observer processes (paper, Section 5):
   an observer is triggered by the dispatch of the flow's first thread and
   deadlocks if the completion of the last thread is not observed within
   the bound.

   We check the RefSpeed -> Cruise1 -> Cruise2 flow of the cruise-control
   system against a sweep of bounds, locating the tightest bound that
   holds on every path.

   Run with: dune exec examples/flow_latency.exe *)

let () =
  let root = Aadl.Instantiate.of_string (Gen.cruise_control ()) in
  let check bound_ms =
    let r =
      Analysis.Latency.check
        ~from_thread:[ "hci"; "ref_speed" ]
        ~to_thread:[ "ccl"; "cruise2" ]
        ~bound:(Aadl.Time.of_ms bound_ms) root
    in
    (bound_ms, r)
  in
  Fmt.pr "flow: dispatch(hci.ref_speed) ~~> complete(ccl.cruise2)@.@.";
  let results = List.map check [ 100; 80; 60; 50; 40; 30; 20; 10 ] in
  List.iter
    (fun (bound_ms, (r : Analysis.Latency.t)) ->
      let verdict =
        match r.Analysis.Latency.verdict with
        | Analysis.Latency.Latency_met -> "met"
        | Analysis.Latency.Latency_violated _ -> "VIOLATED"
        | Analysis.Latency.Deadline_missed _ -> "deadline missed"
        | Analysis.Latency.Latency_inconclusive why -> "inconclusive: " ^ why
      in
      Fmt.pr "bound %3d ms: %s@." bound_ms verdict)
    results;
  (* show the counterexample for the tightest violated bound *)
  match
    List.find_opt
      (fun (_, (r : Analysis.Latency.t)) ->
        match r.Analysis.Latency.verdict with
        | Analysis.Latency.Latency_violated _ -> true
        | _ -> false)
      results
  with
  | Some (bound_ms, r) -> (
      match r.Analysis.Latency.verdict with
      | Analysis.Latency.Latency_violated { scenario; _ } ->
          Fmt.pr "@.witness for the %d ms violation:@.%a@." bound_ms
            Analysis.Raise_trace.pp scenario
      | _ -> ())
  | None -> Fmt.pr "@.every checked bound holds@."
