(* A larger end-to-end example: an avionics-flavoured system with three
   processors (rate-monotonic I/O and mission partitions, an EDF flight
   partition) and a shared bus carrying the sensing-to-actuation and
   guidance-to-mission data flows.

   The example runs the full tool-chain: legality checks, schedulability
   by state exploration, end-to-end latency of the sensor->actuator flow,
   and sensitivity (breakdown execution times) of the flight-control
   threads.

   Run with: dune exec examples/avionics.exe *)

let () =
  let root = Aadl.Instantiate.of_string (Gen.avionics ()) in
  (* 1. legality *)
  let diags = Aadl.Check.run (Aadl.Binding.resolve root) in
  assert (Aadl.Check.is_ok diags);
  (* 2. schedulability *)
  let r = Analysis.Schedulability.analyze root in
  Fmt.pr "%a@.@." Analysis.Schedulability.pp r;
  assert (Analysis.Schedulability.is_schedulable r);
  let wl = r.Analysis.Schedulability.translation.Translate.Pipeline.workload in
  List.iter
    (fun ((proc : Aadl.Instance.t), tasks) ->
      Fmt.pr "%a: U = %.2f (%d threads)@." Aadl.Instance.pp_path
        proc.Aadl.Instance.path
        (Translate.Workload.utilization tasks)
        (List.length tasks))
    wl.Translate.Workload.by_processor;
  (* 3. end-to-end latency: dispatch(sensor_poll) to complete(actuator_drive) *)
  Fmt.pr "@.sensing-to-actuation latency:@.";
  List.iter
    (fun bound_ms ->
      let l =
        Analysis.Latency.check
          ~from_thread:[ "sensor_poll" ]
          ~to_thread:[ "actuator_drive" ]
          ~bound:(Aadl.Time.of_ms bound_ms) root
      in
      Fmt.pr "  %2d ms: %s@." bound_ms
        (match l.Analysis.Latency.verdict with
        | Analysis.Latency.Latency_met -> "met"
        | Analysis.Latency.Latency_violated _ -> "violated"
        | Analysis.Latency.Deadline_missed _ -> "deadline missed"
        | Analysis.Latency.Latency_inconclusive w -> "inconclusive: " ^ w))
    [ 16; 8; 6; 4 ];
  (* 4. sensitivity of the flight partition *)
  Fmt.pr "@.breakdown execution times (flight partition):@.";
  List.iter
    (fun thread ->
      Fmt.pr "  %a@." Analysis.Sensitivity.pp
        (Analysis.Sensitivity.breakdown ~thread root))
    [ [ "rate_damping" ]; [ "attitude_control" ]; [ "guidance" ] ]
