(* Tests for the analysis layer: schedulability verdicts via state
   exploration, agreement with the classical baselines (RTA, EDF demand
   analysis, utilization bounds, deterministic simulation), failing-
   scenario raising, latency observers, and queue overflow handling. *)

module Str_replace = struct
  let replace pat repl s =
    let plen = String.length pat in
    let buf = Buffer.create (String.length s) in
    let i = ref 0 in
    while !i <= String.length s - plen do
      if String.sub s !i plen = pat then begin
        Buffer.add_string buf repl;
        i := !i + plen
      end
      else begin
        Buffer.add_char buf s.[!i];
        incr i
      end
    done;
    Buffer.add_string buf (String.sub s !i (String.length s - !i));
    Buffer.contents buf
end

let analyze ?protocol ?(quantum = Aadl.Time.of_ms 1) text =
  let root = Aadl.Instantiate.of_string text in
  let options =
    {
      Analysis.Schedulability.default_options with
      translation_options =
        {
          Translate.Pipeline.default_options with
          force_protocol = protocol;
          quantum = Some quantum;
        };
    }
  in
  Analysis.Schedulability.analyze ~options root

let tasks_of ?(quantum = Aadl.Time.of_ms 1) text =
  (Translate.Workload.extract ~quantum (Aadl.Instantiate.of_string text))
    .Translate.Workload.tasks

(* {1 Verdicts on the reference task sets} *)

let test_light_schedulable_everywhere () =
  List.iter
    (fun protocol ->
      let r = analyze ~protocol (Gen.periodic_system Gen.light_set) in
      Alcotest.(check bool)
        (Aadl.Props.scheduling_protocol_to_string protocol)
        true
        (Analysis.Schedulability.is_schedulable r))
    [
      Aadl.Props.Rate_monotonic;
      Aadl.Props.Deadline_monotonic;
      Aadl.Props.Edf;
      Aadl.Props.Llf;
    ]

let test_crossover_rm_fails_edf_passes () =
  let rm = analyze ~protocol:Aadl.Props.Rate_monotonic (Gen.periodic_system Gen.crossover_set) in
  let edf = analyze ~protocol:Aadl.Props.Edf (Gen.periodic_system Gen.crossover_set) in
  let llf = analyze ~protocol:Aadl.Props.Llf (Gen.periodic_system Gen.crossover_set) in
  Alcotest.(check bool) "RM misses" false
    (Analysis.Schedulability.is_schedulable rm);
  Alcotest.(check bool) "EDF meets" true
    (Analysis.Schedulability.is_schedulable edf);
  Alcotest.(check bool) "LLF meets" true
    (Analysis.Schedulability.is_schedulable llf)

let test_overloaded_fails_everywhere () =
  List.iter
    (fun protocol ->
      let r = analyze ~protocol (Gen.periodic_system Gen.overloaded_set) in
      Alcotest.(check bool)
        (Aadl.Props.scheduling_protocol_to_string protocol)
        false
        (Analysis.Schedulability.is_schedulable r))
    [ Aadl.Props.Rate_monotonic; Aadl.Props.Edf ]

(* {1 Failing scenarios} *)

let test_scenario_contents () =
  let r = analyze ~protocol:Aadl.Props.Rate_monotonic (Gen.periodic_system Gen.crossover_set) in
  match r.Analysis.Schedulability.verdict with
  | Analysis.Schedulability.Not_schedulable { scenario; _ } ->
      (* the violation is t2's first deadline at t=7 *)
      Alcotest.(check int) "violation at t=7" 7
        scenario.Analysis.Raise_trace.violation_time;
      let all_happenings =
        List.concat_map
          (fun q -> q.Analysis.Raise_trace.happenings)
          scenario.Analysis.Raise_trace.quanta
      in
      Alcotest.(check bool) "dispatches of both threads reported" true
        (List.exists
           (function
             | Analysis.Raise_trace.Dispatched [ "t1_i" ] -> true
             | _ -> false)
           all_happenings
        && List.exists
             (function
               | Analysis.Raise_trace.Dispatched [ "t2_i" ] -> true
               | _ -> false)
             all_happenings);
      Alcotest.(check bool) "t1 completions reported" true
        (List.exists
           (function
             | Analysis.Raise_trace.Completed [ "t1_i" ] -> true
             | _ -> false)
           all_happenings);
      Alcotest.(check bool) "t2 never completes" true
        (not
           (List.exists
              (function
                | Analysis.Raise_trace.Completed [ "t2_i" ] -> true
                | _ -> false)
              all_happenings))
  | _ -> Alcotest.fail "expected a failing scenario"

let test_all_scenarios_exhaustive () =
  let text = Gen.periodic_system Gen.overloaded_set in
  let root = Aadl.Instantiate.of_string text in
  let options =
    { Analysis.Schedulability.default_options with all_violations = true }
  in
  let r = Analysis.Schedulability.analyze ~options root in
  Alcotest.(check bool) "several violation states found" true
    (List.length (Analysis.Schedulability.all_scenarios r) >= 1)

(* {1 Baseline: RTA} *)

let test_rta_crossover () =
  let tasks = tasks_of (Gen.periodic_system Gen.crossover_set) in
  let r = Analysis.Rta.analyze ~protocol:Aadl.Props.Rate_monotonic tasks in
  Alcotest.(check bool) "applicable" true r.Analysis.Rta.applicable;
  Alcotest.(check bool) "not schedulable" false r.Analysis.Rta.schedulable;
  (* t1's response is its own cet; t2's recurrence diverges past 7 *)
  let t1 =
    List.find
      (fun (tr : Analysis.Rta.task_result) ->
        tr.Analysis.Rta.task.Translate.Workload.path = [ "t1_i" ])
      r.Analysis.Rta.per_task
  in
  Alcotest.(check (option int)) "t1 response 2" (Some 2) t1.Analysis.Rta.response

let test_rta_exact_response_times () =
  (* classic example: T1(1,4), T2(2,6): R1=1, R2=3 *)
  let text =
    Gen.periodic_system
      [
        Gen.simple_spec ~name:"t1" ~period_ms:4 ~cet_ms:1 ();
        Gen.simple_spec ~name:"t2" ~period_ms:6 ~cet_ms:2 ();
      ]
  in
  let r =
    Analysis.Rta.analyze ~protocol:Aadl.Props.Rate_monotonic (tasks_of text)
  in
  let resp name =
    (List.find
       (fun (tr : Analysis.Rta.task_result) ->
         tr.Analysis.Rta.task.Translate.Workload.path = [ name ])
       r.Analysis.Rta.per_task)
      .Analysis.Rta.response
  in
  Alcotest.(check (option int)) "R1" (Some 1) (resp "t1_i");
  Alcotest.(check (option int)) "R2" (Some 3) (resp "t2_i")

let test_rta_not_applicable_to_edf () =
  let tasks = tasks_of (Gen.periodic_system Gen.light_set) in
  let r = Analysis.Rta.analyze ~protocol:Aadl.Props.Edf tasks in
  Alcotest.(check bool) "not applicable" false r.Analysis.Rta.applicable

(* {1 Baseline: EDF demand} *)

let test_edf_demand_crossover () =
  let r = Analysis.Edf_demand.analyze (tasks_of (Gen.periodic_system Gen.crossover_set)) in
  Alcotest.(check bool) "schedulable under EDF" true
    r.Analysis.Edf_demand.schedulable

let test_edf_demand_overloaded () =
  let r = Analysis.Edf_demand.analyze (tasks_of (Gen.periodic_system Gen.overloaded_set)) in
  Alcotest.(check bool) "not schedulable" false r.Analysis.Edf_demand.schedulable

(* {1 Baseline: utilization bounds} *)

let test_utilization_verdicts () =
  let u_light = Analysis.Utilization.rate_monotonic (tasks_of (Gen.periodic_system Gen.light_set)) in
  Alcotest.(check bool) "light under LL bound" true
    (u_light.Analysis.Utilization.verdict = Analysis.Utilization.Schedulable);
  let u_cross = Analysis.Utilization.rate_monotonic (tasks_of (Gen.periodic_system Gen.crossover_set)) in
  Alcotest.(check bool) "crossover above bound but below 1" true
    (u_cross.Analysis.Utilization.verdict = Analysis.Utilization.Unknown);
  let u_over = Analysis.Utilization.edf (tasks_of (Gen.periodic_system Gen.overloaded_set)) in
  Alcotest.(check bool) "overloaded beyond 1" true
    (u_over.Analysis.Utilization.verdict = Analysis.Utilization.Overloaded)

let test_ll_bound_values () =
  Alcotest.(check (float 1e-6)) "n=1" 1.0 (Analysis.Utilization.ll_bound 1);
  Alcotest.(check (float 1e-4)) "n=2" 0.8284 (Analysis.Utilization.ll_bound 2)

(* {1 Baseline: simulator} *)

let test_simulator_misses_match_rm () =
  let tasks = tasks_of (Gen.periodic_system Gen.crossover_set) in
  let sim =
    Analysis.Simulator.simulate ~protocol:Aadl.Props.Rate_monotonic tasks
  in
  Alcotest.(check bool) "RM misses in simulation too" false
    sim.Analysis.Simulator.schedulable;
  let sim_edf = Analysis.Simulator.simulate ~protocol:Aadl.Props.Edf tasks in
  Alcotest.(check bool) "EDF simulation meets" true
    sim_edf.Analysis.Simulator.schedulable

let test_simulator_response_times () =
  let text =
    Gen.periodic_system
      [
        Gen.simple_spec ~name:"t1" ~period_ms:4 ~cet_ms:1 ();
        Gen.simple_spec ~name:"t2" ~period_ms:6 ~cet_ms:2 ();
      ]
  in
  let sim =
    Analysis.Simulator.simulate ~protocol:Aadl.Props.Rate_monotonic
      (tasks_of text)
  in
  Alcotest.(check (option int)) "worst response of t2" (Some 3)
    (Analysis.Simulator.worst_response sim [ "t2_i" ])

let test_simulator_timeline_busy () =
  let sim =
    Analysis.Simulator.simulate ~protocol:Aadl.Props.Edf
      (tasks_of (Gen.periodic_system Gen.crossover_set))
  in
  let busy =
    Array.fold_left
      (fun n slot ->
        match slot with Analysis.Simulator.Running _ -> n + 1 | _ -> n)
      0 sim.Analysis.Simulator.timeline
  in
  (* demand over the hyperperiod 35: 7*2 + 5*4 = 34 *)
  Alcotest.(check int) "busy quanta = total demand" 34 busy

(* {1 Observed response times (exploration vs RTA)} *)

(* pin the quantum so observed quanta and RTA quanta agree *)
let response_options =
  {
    Analysis.Schedulability.default_options with
    translation_options =
      {
        Translate.Pipeline.default_options with
        quantum = Some (Aadl.Time.of_ms 1);
      };
  }

let test_observed_equals_rta () =
  let text =
    Gen.periodic_system
      [
        Gen.simple_spec ~name:"t1" ~period_ms:4 ~cet_ms:1 ();
        Gen.simple_spec ~name:"t2" ~period_ms:6 ~cet_ms:2 ();
      ]
  in
  let root = Aadl.Instantiate.of_string text in
  let rta =
    Analysis.Rta.analyze ~protocol:Aadl.Props.Rate_monotonic (tasks_of text)
  in
  List.iter
    (fun (tr : Analysis.Rta.task_result) ->
      let obs =
        Analysis.Response.worst_response ~options:response_options
          ~thread:tr.Analysis.Rta.task.Translate.Workload.path root
      in
      Alcotest.(check (option int))
        (Fmt.str "observed = RTA for %a" Aadl.Instance.pp_path
           tr.Analysis.Rta.task.Translate.Workload.path)
        tr.Analysis.Rta.response obs.Analysis.Response.response)
    rta.Analysis.Rta.per_task

let test_observed_none_when_missing () =
  let root =
    Aadl.Instantiate.of_string (Gen.periodic_system Gen.crossover_set)
  in
  let obs =
    Analysis.Response.worst_response ~options:response_options
      ~thread:[ "t2_i" ] root
  in
  Alcotest.(check (option int)) "t2 misses under RM" None
    obs.Analysis.Response.response

(* On an unschedulable set every observed exploration reaches a missed
   deadline, whichever thread it observes, so no bound holds: the
   observed response is none for every thread, where RTA still bounds
   the threads that meet their deadlines. *)
let prop_observed_equals_rta =
  QCheck2.Test.make ~name:"observed response = RTA response (RM)" ~count:50
    ~print:(fun (seed, n) -> Printf.sprintf "seed %d, %d threads" seed n)
    QCheck2.Gen.(pair (int_range 0 1000) (int_range 2 4))
    (fun (seed, n) ->
      let specs = Gen.random_specs ~seed ~n ~u:0.7 in
      let text = Gen.periodic_system specs in
      let root = Aadl.Instantiate.of_string text in
      let rta =
        Analysis.Rta.analyze ~protocol:Aadl.Props.Rate_monotonic
          (tasks_of text)
      in
      (not rta.Analysis.Rta.applicable)
      || List.for_all
           (fun (tr : Analysis.Rta.task_result) ->
             let obs =
               Analysis.Response.worst_response ~options:response_options
                 ~thread:tr.Analysis.Rta.task.Translate.Workload.path root
             in
             obs.Analysis.Response.response
             =
             if rta.Analysis.Rta.schedulable then tr.Analysis.Rta.response
             else None)
           rta.Analysis.Rta.per_task)

(* {1 Sensitivity analysis (breakdown execution time)} *)

let test_breakdown_matches_rta_slack () =
  (* T1(1,4), T2(2,6) under RM: t2's breakdown is the largest C2 with
     response <= 6: C2=3 gives R2=3+ceil/..=... check against RTA *)
  let text =
    Gen.periodic_system
      [
        Gen.simple_spec ~name:"t1" ~period_ms:4 ~cet_ms:1 ();
        Gen.simple_spec ~name:"t2" ~period_ms:6 ~cet_ms:2 ();
      ]
  in
  let root = Aadl.Instantiate.of_string text in
  let b = Analysis.Sensitivity.breakdown ~thread:[ "t2_i" ] root in
  Alcotest.(check int) "original" 2 b.Analysis.Sensitivity.original_cmax;
  (* exact check via RTA: find the largest C2 with RTA schedulable *)
  let rta_ok c2 =
    let tasks =
      tasks_of
        (Gen.periodic_system
           [
             Gen.simple_spec ~name:"t1" ~period_ms:4 ~cet_ms:1 ();
             Gen.simple_spec ~name:"t2" ~period_ms:6 ~cet_ms:c2 ();
           ])
    in
    (Analysis.Rta.analyze ~protocol:Aadl.Props.Rate_monotonic tasks)
      .Analysis.Rta.schedulable
  in
  let rec largest c = if c < 1 then 0 else if rta_ok c then c else largest (c - 1) in
  Alcotest.(check (option int)) "breakdown = RTA breakdown"
    (Some (largest 6)) b.Analysis.Sensitivity.breakdown_cmax

let test_breakdown_recovers_overload () =
  (* the overloaded set becomes feasible once t2 shrinks to 2 quanta *)
  let root =
    Aadl.Instantiate.of_string (Gen.periodic_system Gen.overloaded_set)
  in
  let b = Analysis.Sensitivity.breakdown ~thread:[ "t2_i" ] root in
  Alcotest.(check (option int)) "breakdown at full utilization" (Some 2)
    b.Analysis.Sensitivity.breakdown_cmax;
  Alcotest.(check (option int)) "negative slack" (Some (-1))
    b.Analysis.Sensitivity.slack

let test_breakdown_none_when_infeasible () =
  (* t1 saturates the processor alone: no cet of t2 can fit *)
  let text =
    Gen.periodic_system
      [
        Gen.simple_spec ~name:"t1" ~period_ms:4 ~cet_ms:4 ();
        Gen.simple_spec ~name:"t2" ~period_ms:4 ~cet_ms:1 ();
      ]
  in
  let root = Aadl.Instantiate.of_string text in
  let b = Analysis.Sensitivity.breakdown ~thread:[ "t2_i" ] root in
  Alcotest.(check (option int)) "no feasible cet" None
    b.Analysis.Sensitivity.breakdown_cmax

let test_with_cet_override () =
  let root =
    Aadl.Instantiate.of_string (Gen.periodic_system Gen.light_set)
  in
  let quantum = Aadl.Time.of_ms 1 in
  let root' =
    Analysis.Sensitivity.with_cet ~quantum ~thread:[ "t1_i" ] ~cet:3 root
  in
  let wl = Translate.Workload.extract ~quantum root' in
  let t1 = Option.get (Translate.Workload.find_task wl [ "t1_i" ]) in
  Alcotest.(check int) "cet overridden" 3 t1.Translate.Workload.cmax;
  let t2 = Option.get (Translate.Workload.find_task wl [ "t2_i" ]) in
  Alcotest.(check int) "other threads untouched" 2 t2.Translate.Workload.cmax

(* {1 Latency observers} *)

let test_latency_met_and_violated () =
  let root = Aadl.Instantiate.of_string (Gen.periodic_system Gen.light_set) in
  let ok =
    Analysis.Latency.check ~from_thread:[ "t2_i" ] ~to_thread:[ "t2_i" ]
      ~bound:(Aadl.Time.of_ms 6) root
  in
  Alcotest.(check bool) "t2 completes within its period" true
    (ok.Analysis.Latency.verdict = Analysis.Latency.Latency_met);
  let tight =
    Analysis.Latency.check ~from_thread:[ "t2_i" ] ~to_thread:[ "t2_i" ]
      ~bound:(Aadl.Time.of_ms 2) root
  in
  match tight.Analysis.Latency.verdict with
  | Analysis.Latency.Latency_violated { scenario; _ } ->
      Alcotest.(check bool) "scenario nonempty" true
        (scenario.Analysis.Raise_trace.quanta <> [])
  | _ -> Alcotest.fail "expected a latency violation for a 2ms bound"

(* A deadline miss before the bound is its own verdict: under RM, t2 of
   the crossover set misses its 7 ms deadline at t=7, long before a
   1,000 s bound could pass. *)
let test_latency_deadline_missed () =
  let root =
    Aadl.Instantiate.of_string (Gen.periodic_system Gen.crossover_set)
  in
  let r =
    Analysis.Latency.check ~from_thread:[ "t2_i" ] ~to_thread:[ "t2_i" ]
      ~bound:(Aadl.Time.of_ms 1_000_000) root
  in
  match r.Analysis.Latency.verdict with
  | Analysis.Latency.Deadline_missed { scenario; _ } ->
      Alcotest.(check int) "missed at t2's deadline" 7
        scenario.Analysis.Raise_trace.violation_time
  | v ->
      Alcotest.failf "expected a deadline miss, got %a"
        Analysis.Latency.pp_verdict v

(* The width of the frame the explorer splits a system into. *)
let frame_width (system : Acsr.Proc.t) =
  let cache = Acsr.Semantics.make_cache () in
  Acsr.Frame.width
    (fst
       (Acsr.Frame.split
          (Acsr.Semantics.nodes cache)
          (Acsr.Hproc.of_proc (Acsr.Semantics.terms cache) system)))

(* The observer is one more slot of the system's own frame: on
   [e6_model 7] the check explores the states and transitions of the
   composition around the system (10,964 and 22,265), over a frame one
   slot wider than [analyze]'s, with one node per local state of a
   slot.  Composed around the system, the observer's partner would be
   one opaque slot holding the whole system, one node per state: 11,164
   slot nodes. *)
let test_latency_work_pin () =
  let root = Aadl.Instantiate.of_string (Gen.e6_model 7) in
  let r =
    Analysis.Latency.check ~from_thread:[ "t7_i" ] ~to_thread:[ "t7_i" ]
      ~bound:(Aadl.Time.of_ms 16) root
  in
  let analysis = r.Analysis.Latency.analysis in
  let stats = Versa.Explorer.stats analysis.Analysis.Schedulability.exploration in
  Alcotest.(check bool) "bound met" true
    (r.Analysis.Latency.verdict = Analysis.Latency.Latency_met);
  Alcotest.(check int) "states" 10_964 stats.Versa.Lts.num_states;
  Alcotest.(check int) "transitions" 22_265 stats.Versa.Lts.num_transitions;
  Alcotest.(check int) "slot nodes" 181 stats.Versa.Lts.slot_nodes;
  let plain = Analysis.Schedulability.analyze root in
  Alcotest.(check int) "frame width"
    (frame_width
       plain.Analysis.Schedulability.translation.Translate.Pipeline.system
    + 1)
    (frame_width
       analysis.Analysis.Schedulability.translation.Translate.Pipeline.system)

let test_latency_unknown_thread () =
  let root = Aadl.Instantiate.of_string (Gen.periodic_system Gen.light_set) in
  Alcotest.(check bool) "raises" true
    (try
       ignore
         (Analysis.Latency.check ~from_thread:[ "nope" ] ~to_thread:[ "t1_i" ]
            ~bound:(Aadl.Time.of_ms 4) root);
       false
     with Aadl.Diag.Error _ -> true)

(* {1 Event-driven models and queues} *)

let test_event_driven_schedulable () =
  let r = analyze (Gen.event_driven ()) in
  Alcotest.(check bool) "schedulable" true
    (Analysis.Schedulability.is_schedulable r)

let test_queue_overflow_error_detected () =
  (* a queue of size 1 with Error overflow: the producer (8 ms) outpaces a
     handler with 16 ms minimum separation, so the queue must overflow *)
  let text =
    Gen.event_driven ~queue_size:1 ~overflow:"Error" ()
    |> Str_replace.replace "Period => 4 ms;" "Period => 16 ms;"
  in
  let r = analyze text in
  Alcotest.(check bool) "overflow error is a violation" false
    (Analysis.Schedulability.is_schedulable r)

let test_queue_overflow_drop_absorbs () =
  (* the same overloading producer, but dropping policies: the overflow
     is absorbed (events are lost, no deadline is missed), so the very
     model that Error rejects stays schedulable under both drop
     policies *)
  List.iter
    (fun overflow ->
      let text =
        Gen.event_driven ~queue_size:1 ~overflow ()
        |> Str_replace.replace "Period => 4 ms;" "Period => 16 ms;"
      in
      let r = analyze text in
      Alcotest.(check bool)
        (overflow ^ " absorbs the overflow")
        true
        (Analysis.Schedulability.is_schedulable r))
    [ "DropNewest"; "DropOldest" ]

let test_queue_overflow_drop_policies_coincide () =
  (* the queue process abstracts contents to a fill counter, so dropping
     the newest or the oldest event must generate the same state space *)
  let explore overflow =
    let text =
      Gen.event_driven ~queue_size:1 ~overflow ()
      |> Str_replace.replace "Period => 4 ms;" "Period => 16 ms;"
    in
    let r = analyze text in
    ( Versa.Explorer.num_states r.Analysis.Schedulability.exploration,
      Versa.Explorer.num_transitions r.Analysis.Schedulability.exploration )
  in
  let newest = explore "DropNewest" and oldest = explore "DropOldest" in
  Alcotest.(check (pair int int)) "identical state spaces" newest oldest

(* {1 Shared data across processors (access connections)} *)

let test_shared_data_contention_detected () =
  (* data demand 2+3 of every 4 quanta: unschedulable, although each
     processor in isolation is fine — per-processor RTA cannot see it *)
  let r = analyze (Gen.shared_data_system ()) in
  Alcotest.(check bool) "exploration rejects" false
    (Analysis.Schedulability.is_schedulable r);
  let wl = r.Analysis.Schedulability.translation.Translate.Pipeline.workload in
  List.iter
    (fun (_, tasks) ->
      let rta = Analysis.Rta.analyze ~protocol:Aadl.Props.Rate_monotonic tasks in
      Alcotest.(check bool) "per-processor RTA is fooled" true
        rta.Analysis.Rta.schedulable)
    wl.Translate.Workload.by_processor

let test_shared_data_feasible_when_light () =
  let r = analyze (Gen.shared_data_system ~t2_cet_ms:1 ()) in
  Alcotest.(check bool) "schedulable" true
    (Analysis.Schedulability.is_schedulable r)

let test_shared_data_in_scenario () =
  let r = analyze (Gen.shared_data_system ()) in
  match r.Analysis.Schedulability.verdict with
  | Analysis.Schedulability.Not_schedulable { scenario; _ } ->
      let uses_data =
        List.exists
          (fun q ->
            match q.Analysis.Raise_trace.usage with
            | Some u -> u.Analysis.Raise_trace.data <> []
            | None -> false)
          scenario.Analysis.Raise_trace.quanta
      in
      Alcotest.(check bool) "scenario shows shared-data usage" true uses_data
  | _ -> Alcotest.fail "expected a violation"

let test_shared_data_workload_extraction () =
  let root = Aadl.Instantiate.of_string (Gen.shared_data_system ()) in
  let wl = Translate.Workload.extract ~quantum:(Aadl.Time.of_ms 1) root in
  let w = Option.get (Translate.Workload.find_task wl [ "w" ]) in
  Alcotest.(check (list (list string))) "writer shares sd" [ [ "sd" ] ]
    w.Translate.Workload.data_shared;
  let sd = Aadl.Instance.find_exn root [ "sd" ] in
  Alcotest.(check bool) "ceiling protocol parsed" true
    (Aadl.Props.concurrency_control sd.Aadl.Instance.props
    = Aadl.Props.Priority_ceiling)

(* {1 Agreement properties (qcheck)} *)

let gen_taskset =
  QCheck2.Gen.(
    let* seed = int_range 0 10_000 in
    let* n = int_range 2 3 in
    let* u10 = int_range 5 11 in
    return (Gen.random_specs ~seed ~n ~u:(float_of_int u10 /. 10.0)))

(* The exploration's verdict.  A budget stop answers nothing, so it
   fails the property with its reason rather than passing as agreement
   with an unschedulable analytic verdict. *)
let acsr_verdict protocol specs =
  let r = analyze ~protocol (Gen.periodic_system specs) in
  match r.Analysis.Schedulability.verdict with
  | Analysis.Schedulability.Schedulable -> true
  | Analysis.Schedulability.Not_schedulable _ -> false
  | Analysis.Schedulability.Inconclusive reason ->
      QCheck2.Test.fail_reportf "exploration inconclusive: %s" reason

let prop_acsr_agrees_with_rta =
  QCheck2.Test.make ~name:"ACSR verdict = RTA verdict (RM)" ~count:25
    gen_taskset (fun specs ->
      let tasks = tasks_of (Gen.periodic_system specs) in
      let rta = Analysis.Rta.analyze ~protocol:Aadl.Props.Rate_monotonic tasks in
      (not rta.Analysis.Rta.applicable)
      || acsr_verdict Aadl.Props.Rate_monotonic specs
         = rta.Analysis.Rta.schedulable)

let prop_acsr_agrees_with_edf_demand =
  QCheck2.Test.make ~name:"ACSR verdict = demand analysis (EDF)" ~count:25
    gen_taskset (fun specs ->
      let tasks = tasks_of (Gen.periodic_system specs) in
      let dem = Analysis.Edf_demand.analyze tasks in
      (not dem.Analysis.Edf_demand.applicable)
      || acsr_verdict Aadl.Props.Edf specs = dem.Analysis.Edf_demand.schedulable)

let prop_acsr_agrees_with_simulator =
  QCheck2.Test.make ~name:"ACSR verdict = simulation (RM, deterministic)"
    ~count:25 gen_taskset (fun specs ->
      let tasks = tasks_of (Gen.periodic_system specs) in
      let sim =
        Analysis.Simulator.simulate ~protocol:Aadl.Props.Rate_monotonic tasks
      in
      acsr_verdict Aadl.Props.Rate_monotonic specs
      = sim.Analysis.Simulator.schedulable)

let prop_ll_bound_implies_acsr_schedulable =
  QCheck2.Test.make ~name:"LL bound implies exploration verdict" ~count:25
    gen_taskset (fun specs ->
      let tasks = tasks_of (Gen.periodic_system specs) in
      let u = Analysis.Utilization.rate_monotonic tasks in
      u.Analysis.Utilization.verdict <> Analysis.Utilization.Schedulable
      || acsr_verdict Aadl.Props.Rate_monotonic specs)

(* {1 Latency: one restriction = the nested composition}

   The oracle composes the observer around the translated system, from
   the same translation's fragments: [Restrict (S, Restrict (L, P_0 ||
   ...) || Obs)], with [S] the observer's labels and [L] the others',
   and explores it without orbit reduction.  The
   check must reach the same verdict at the same violation time.
   Without the orbit reduction the scenario is the same; with it, a
   failing scenario is one of an orbit of equally short ones (any
   member may play the part), so its length is compared.  A deadlock
   the check calls a missed deadline must also be one of the model
   without an observer. *)

let nested_latency (options : Translate.Pipeline.options) root =
  let tr = Translate.Pipeline.translate ~options root in
  let observers, units =
    List.partition
      (fun f -> f.Translate.Fragment.kind = Translate.Fragment.Observer)
      tr.Translate.Pipeline.fragments
  in
  let restricted fs =
    Acsr.Label.set_of_list
      (List.concat_map (fun f -> f.Translate.Fragment.restricted) fs)
  in
  let processes fs =
    Acsr.Proc.par_list
      (List.concat_map (fun f -> f.Translate.Fragment.initials) fs)
  in
  let system =
    Acsr.Proc.restrict (restricted observers)
      (Acsr.Proc.par
         (Acsr.Proc.restrict (restricted units) (processes units))
         (processes observers))
  in
  match
    (Versa.Explorer.check_deadlock tr.Translate.Pipeline.defs system)
      .Versa.Explorer.verdict
  with
  | Versa.Explorer.Deadlock_free -> `Met
  | Versa.Explorer.Deadlock { trace; _ } ->
      `Deadlock
        (Analysis.Raise_trace.raise_trace
           ~registry:tr.Translate.Pipeline.registry trace)
  | Versa.Explorer.Inconclusive why -> `Inconclusive why

let gen_latency_case =
  QCheck2.Gen.(
    let* family = bool in
    let* symmetry = bool in
    if family then
      let* threads = int_range 2 4 in
      let* u10 = int_range 6 11 in
      let* probed = int_range 1 threads in
      let* bound_ms = int_range 1 6 in
      let member = [ Printf.sprintf "t%d_i" probed ] in
      return
        ( Gen.replicated_family ~threads
            ~utilization:(float_of_int u10 /. 10.0)
            (),
          member,
          member,
          bound_ms,
          symmetry )
    else
      let* specs = gen_taskset in
      let n = List.length specs in
      let* from_i = int_range 1 n in
      let* to_i = int_range 1 n in
      let* bound_ms = int_range 1 24 in
      let path i = [ Printf.sprintf "t%d_i" i ] in
      return
        (Gen.periodic_system specs, path from_i, path to_i, bound_ms, symmetry))

let prop_latency_equals_nested =
  QCheck2.Test.make ~name:"latency verdict = nested observer composition"
    ~count:100
    ~print:(fun (text, from_thread, to_thread, bound_ms, symmetry) ->
      Fmt.str "%a -> %a within %d ms, symmetry %b@.%s" Aadl.Instance.pp_path
        from_thread Aadl.Instance.pp_path to_thread bound_ms symmetry text)
    gen_latency_case
    (fun (text, from_thread, to_thread, bound_ms, symmetry) ->
      let root = Aadl.Instantiate.of_string text in
      let bound = Aadl.Time.of_ms bound_ms in
      let translation_options =
        {
          Translate.Pipeline.default_options with
          quantum = Some (Aadl.Time.of_ms 1);
        }
      in
      let oracle =
        nested_latency
          {
            translation_options with
            observer = Some { Translate.Pipeline.from_thread; to_thread; bound };
          }
          root
      in
      let options =
        {
          Analysis.Schedulability.default_options with
          translation_options;
          symmetry;
        }
      in
      let r =
        Analysis.Latency.check ~options ~from_thread ~to_thread ~bound root
      in
      let same (scenario : Analysis.Raise_trace.t)
          (expected : Analysis.Raise_trace.t) =
        if symmetry then
          scenario.Analysis.Raise_trace.violation_time
          = expected.Analysis.Raise_trace.violation_time
          && List.length scenario.Analysis.Raise_trace.quanta
             = List.length expected.Analysis.Raise_trace.quanta
        else scenario = expected
      in
      match (r.Analysis.Latency.verdict, oracle) with
      | Analysis.Latency.Latency_met, `Met -> true
      | Analysis.Latency.Latency_violated { scenario; _ }, `Deadlock expected
        ->
          same scenario expected
      | Analysis.Latency.Deadline_missed { scenario; _ }, `Deadlock expected ->
          same scenario expected
          && not
               (Analysis.Schedulability.is_schedulable
                  (Analysis.Schedulability.analyze ~options root))
      | Analysis.Latency.Latency_inconclusive a, `Inconclusive b -> a = b
      | v, _ ->
          QCheck2.Test.fail_reportf "verdict %a disagrees with the oracle"
            Analysis.Latency.pp_verdict v)

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_observed_equals_rta;
      prop_acsr_agrees_with_rta;
      prop_acsr_agrees_with_edf_demand;
      prop_acsr_agrees_with_simulator;
      prop_ll_bound_implies_acsr_schedulable;
      prop_latency_equals_nested;
    ]

let () =
  Alcotest.run "analysis"
    [
      ( "verdicts",
        [
          Alcotest.test_case "light schedulable" `Quick
            test_light_schedulable_everywhere;
          Alcotest.test_case "crossover rm/edf" `Quick
            test_crossover_rm_fails_edf_passes;
          Alcotest.test_case "overloaded fails" `Quick
            test_overloaded_fails_everywhere;
        ] );
      ( "scenario",
        [
          Alcotest.test_case "contents" `Quick test_scenario_contents;
          Alcotest.test_case "all scenarios" `Quick
            test_all_scenarios_exhaustive;
        ] );
      ( "rta",
        [
          Alcotest.test_case "crossover" `Quick test_rta_crossover;
          Alcotest.test_case "exact responses" `Quick
            test_rta_exact_response_times;
          Alcotest.test_case "edf not applicable" `Quick
            test_rta_not_applicable_to_edf;
        ] );
      ( "edf demand",
        [
          Alcotest.test_case "crossover" `Quick test_edf_demand_crossover;
          Alcotest.test_case "overloaded" `Quick test_edf_demand_overloaded;
        ] );
      ( "utilization",
        [
          Alcotest.test_case "verdicts" `Quick test_utilization_verdicts;
          Alcotest.test_case "ll bound" `Quick test_ll_bound_values;
        ] );
      ( "simulator",
        [
          Alcotest.test_case "misses match" `Quick
            test_simulator_misses_match_rm;
          Alcotest.test_case "response times" `Quick
            test_simulator_response_times;
          Alcotest.test_case "timeline busy" `Quick
            test_simulator_timeline_busy;
        ] );
      ( "response",
        [
          Alcotest.test_case "observed equals rta" `Quick
            test_observed_equals_rta;
          Alcotest.test_case "none when missing" `Quick
            test_observed_none_when_missing;
        ] );
      ( "sensitivity",
        [
          Alcotest.test_case "breakdown matches rta" `Quick
            test_breakdown_matches_rta_slack;
          Alcotest.test_case "recovers overload" `Quick
            test_breakdown_recovers_overload;
          Alcotest.test_case "none when infeasible" `Quick
            test_breakdown_none_when_infeasible;
          Alcotest.test_case "with_cet override" `Quick test_with_cet_override;
        ] );
      ( "latency",
        [
          Alcotest.test_case "met and violated" `Quick
            test_latency_met_and_violated;
          Alcotest.test_case "unknown thread" `Quick
            test_latency_unknown_thread;
          Alcotest.test_case "deadline miss is its own verdict" `Quick
            test_latency_deadline_missed;
          Alcotest.test_case "one frame with the system" `Quick
            test_latency_work_pin;
        ] );
      ( "shared data",
        [
          Alcotest.test_case "cross-processor contention" `Quick
            test_shared_data_contention_detected;
          Alcotest.test_case "feasible when light" `Quick
            test_shared_data_feasible_when_light;
          Alcotest.test_case "scenario shows data" `Quick
            test_shared_data_in_scenario;
          Alcotest.test_case "workload extraction" `Quick
            test_shared_data_workload_extraction;
        ] );
      ( "queues",
        [
          Alcotest.test_case "event driven ok" `Quick
            test_event_driven_schedulable;
          Alcotest.test_case "overflow error" `Quick
            test_queue_overflow_error_detected;
          Alcotest.test_case "overflow drop absorbs" `Quick
            test_queue_overflow_drop_absorbs;
          Alcotest.test_case "drop policies coincide" `Quick
            test_queue_overflow_drop_policies_coincide;
        ] );
      ("agreement", qcheck_cases);
    ]
