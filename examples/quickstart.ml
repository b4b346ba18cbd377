(* Quickstart: write a small AADL model as text, analyze its
   schedulability, and inspect the failing scenario if there is one.

   Run with: dune exec examples/quickstart.exe *)

let model =
  {|
processor cpu
properties
  Scheduling_Protocol => RATE_MONOTONIC_PROTOCOL;
end cpu;

thread control
properties
  Dispatch_Protocol => Periodic;
  Period => 10 ms;
  Compute_Execution_Time => 3 ms;
  Compute_Deadline => 10 ms;
end control;

thread telemetry
properties
  Dispatch_Protocol => Periodic;
  Period => 25 ms;
  Compute_Execution_Time => 8 ms;
  Compute_Deadline => 25 ms;
end telemetry;

system avionics
end avionics;

system implementation avionics.impl
subcomponents
  cpu1: processor cpu;
  control: thread control;
  telemetry: thread telemetry;
properties
  Actual_Processor_Binding => reference (cpu1) applies to control;
  Actual_Processor_Binding => reference (cpu1) applies to telemetry;
end avionics.impl;
|}

let () =
  (* parse + instantiate the root system *)
  let root = Aadl.Instantiate.of_string model in
  (* legality diagnostics (the paper's translation preconditions) *)
  let diags = Aadl.Check.run root in
  Fmt.pr "check: %a@.@." (Aadl.Check.pp_report ?file:None) diags;
  (* translate to ACSR and explore the prioritized state space *)
  let result = Analysis.Schedulability.analyze root in
  Fmt.pr "%a@.@." Analysis.Schedulability.pp result;
  (* the same verdict from the classical side, for comparison *)
  let wl = result.Analysis.Schedulability.translation.Translate.Pipeline.workload in
  List.iter
    (fun (_, tasks) ->
      Fmt.pr "RTA baseline: %a@." Analysis.Rta.pp
        (Analysis.Rta.analyze ~protocol:Aadl.Props.Rate_monotonic tasks))
    wl.Translate.Workload.by_processor
