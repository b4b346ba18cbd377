(* The benchmark harness: regenerates every experiment of DESIGN.md's
   index (the paper's Figures 1-6 as executable artifacts plus the
   quantitative claims of Sections 4-6) and times the core operations
   with Bechamel.

   Each experiment prints the table/series described in EXPERIMENTS.md;
   the timing section at the end reports one Bechamel estimate per
   experiment's hot path.  The subcommands [obs], [reduction] and [dist]
   run one gate each; [gen] prints a replicated family. *)

let hr title = Fmt.pr "@.===== %s =====@." title

let analyze_text ?protocol ?quantum ?(max_states = 2_000_000)
    ?(symmetry = true) text =
  let root = Aadl.Instantiate.of_string text in
  let options =
    {
      Analysis.Schedulability.translation_options =
        {
          Translate.Pipeline.default_options with
          force_protocol = protocol;
          quantum;
        };
      max_states;
      all_violations = false;
      deadline = None;
      poll = None;
      symmetry;
    }
  in
  Analysis.Schedulability.analyze ~options root

let verdict_string r =
  match r.Analysis.Schedulability.verdict with
  | Analysis.Schedulability.Schedulable -> "schedulable"
  | Analysis.Schedulability.Not_schedulable _ -> "NOT schedulable"
  | Analysis.Schedulability.Inconclusive _ -> "inconclusive"

let states_of r =
  Versa.Explorer.num_states r.Analysis.Schedulability.exploration

(* {1 F1: the cruise-control system of Fig. 1} *)

let exp_f1 () =
  hr "F1: cruise control (paper Fig. 1, Section 4.1)";
  Fmt.pr "variant       threads disp queues  states  verdict@.";
  List.iter
    (fun (name, text) ->
      let r = analyze_text text in
      let tr = r.Analysis.Schedulability.translation in
      Fmt.pr "%-12s  %7d %4d %6d  %6d  %s@." name
        tr.Translate.Pipeline.num_thread_processes
        tr.Translate.Pipeline.num_dispatchers tr.Translate.Pipeline.num_queues
        (states_of r) (verdict_string r))
    [
      ("nominal", Gen.cruise_control ());
      ("overloaded", Gen.cruise_control ~overload:true ());
    ];
  Fmt.pr
    "(paper: six thread processes, six dispatchers, no queue processes)@."

(* {1 F2/F3: the ACSR figures} *)

let exp_f2_f3 () =
  hr "F2: the Simple process (paper Fig. 2)";
  let l2a = Versa.Lts.build Gen.Paper_figs.fig2a_defs Gen.Paper_figs.fig2a_initial in
  let l2b = Versa.Lts.build Gen.Paper_figs.fig2b_defs Gen.Paper_figs.fig2b_initial in
  Fmt.pr "fig 2a: %a@.fig 2b: %a@." Versa.Lts.pp_summary l2a
    Versa.Lts.pp_summary l2b;
  hr "F3: Simple || SimpleDriver (paper Fig. 3)";
  let l3 = Versa.Lts.build Gen.Paper_figs.fig3_defs Gen.Paper_figs.fig3_system in
  Fmt.pr "composition: %a@." Versa.Lts.pp_summary l3;
  Fmt.pr "deadlocks: %d@." (List.length (Versa.Lts.deadlocks l3));
  Fmt.pr "interrupt path reachable:  %b@."
    (Gen.Paper_figs.label_reachable l3 Gen.Paper_figs.interrupt_handled);
  Fmt.pr "exception path reachable:  %b@."
    (Gen.Paper_figs.label_reachable l3 Gen.Paper_figs.exception_handled)

(* {1 F5: Compute-process state space vs execution time (Fig. 5)} *)

let exp_f5 () =
  hr "F5: Compute(e,t) state growth (paper Fig. 5)";
  (* a nondeterministic execution time in [1, cmax]: each possible
     completion point branches the Compute process, so the reachable state
     space grows with the width of the range *)
  Fmt.pr "cet range (quanta)  states  transitions@.";
  List.iter
    (fun cmax ->
      let text =
        Gen.periodic_system
          [
            {
              Gen.name = "t1";
              period_ms = 8;
              cet_min_ms = 1;
              cet_max_ms = cmax;
              deadline_ms = 8;
            };
          ]
      in
      let r = analyze_text ~quantum:(Aadl.Time.of_ms 1) text in
      let e = r.Analysis.Schedulability.exploration in
      Fmt.pr "            [1,%d]  %6d  %11d@." cmax
        (Versa.Explorer.num_states e)
        (Versa.Explorer.num_transitions e))
    [ 1; 2; 3; 4; 5; 6 ]

(* {1 E1: verdict agreement, exploration vs classical baselines} *)

let exp_e1 () =
  hr "E1: verdict agreement (ACSR exploration vs RTA / demand / simulation)";
  Fmt.pr
    "U      sets  RM:sched  RTA-agree  sim-agree  EDF:sched  demand-agree@.";
  List.iter
    (fun u ->
      let sets = List.init 10 (fun seed -> Gen.random_specs ~seed ~n:3 ~u) in
      let rm_sched = ref 0
      and rta_agree = ref 0
      and sim_agree = ref 0
      and edf_sched = ref 0
      and dem_agree = ref 0 in
      List.iter
        (fun specs ->
          let text = Gen.periodic_system specs in
          let tasks =
            (Translate.Workload.extract ~quantum:(Aadl.Time.of_ms 1)
               (Aadl.Instantiate.of_string text))
              .Translate.Workload.tasks
          in
          let acsr_rm =
            Analysis.Schedulability.is_schedulable
              (analyze_text ~protocol:Aadl.Props.Rate_monotonic text)
          in
          let acsr_edf =
            Analysis.Schedulability.is_schedulable
              (analyze_text ~protocol:Aadl.Props.Edf text)
          in
          if acsr_rm then incr rm_sched;
          if acsr_edf then incr edf_sched;
          let rta =
            Analysis.Rta.analyze ~protocol:Aadl.Props.Rate_monotonic tasks
          in
          if rta.Analysis.Rta.applicable
             && rta.Analysis.Rta.schedulable = acsr_rm
          then incr rta_agree;
          let sim =
            Analysis.Simulator.simulate ~protocol:Aadl.Props.Rate_monotonic
              tasks
          in
          if sim.Analysis.Simulator.schedulable = acsr_rm then incr sim_agree;
          let dem = Analysis.Edf_demand.analyze tasks in
          if dem.Analysis.Edf_demand.applicable
             && dem.Analysis.Edf_demand.schedulable = acsr_edf
          then incr dem_agree)
        sets;
      Fmt.pr "%.2f  %5d  %8d  %9d  %9d  %9d  %12d@." u (List.length sets)
        !rm_sched !rta_agree !sim_agree !edf_sched !dem_agree)
    [ 0.5; 0.7; 0.85; 0.95; 1.05 ]

(* {1 E2: scheduling policy comparison (Section 5)} *)

let exp_e2 () =
  hr "E2: scheduling policies on the reference task sets";
  let protocols =
    [
      ("RM", Aadl.Props.Rate_monotonic);
      ("DM", Aadl.Props.Deadline_monotonic);
      ("EDF", Aadl.Props.Edf);
      ("LLF", Aadl.Props.Llf);
    ]
  in
  Fmt.pr "%-12s" "task set";
  List.iter (fun (n, _) -> Fmt.pr "  %-16s" n) protocols;
  Fmt.pr "@.";
  List.iter
    (fun (name, specs) ->
      Fmt.pr "%-12s" name;
      List.iter
        (fun (_, p) ->
          let r = analyze_text ~protocol:p (Gen.periodic_system specs) in
          Fmt.pr "  %-16s" (verdict_string r))
        protocols;
      Fmt.pr "@.")
    [
      ("light", Gen.light_set);
      ("crossover", Gen.crossover_set);
      ("overloaded", Gen.overloaded_set);
    ];
  Fmt.pr
    "(expected crossover row: RM misses, EDF/LLF schedule — U=0.971 is \
     above the RM bound but below 1)@."

(* {1 E3: quantum size vs precision (Section 4.1)} *)

let exp_e3 () =
  hr "E3: quantum size vs precision and state space (Section 4.1)";
  (* T1(2ms, 10ms), T2(6ms, 10ms): schedulable at fine quanta; a 4 ms
     quantum rounds T2's demand up and the deadline down, producing a
     (sound) false violation *)
  let text =
    Gen.periodic_system
      [
        Gen.simple_spec ~name:"t1" ~period_ms:10 ~cet_ms:2 ();
        Gen.simple_spec ~name:"t2" ~period_ms:10 ~cet_ms:6 ();
      ]
  in
  Fmt.pr "quantum  states  verdict@.";
  List.iter
    (fun q_ms ->
      let r = analyze_text ~quantum:(Aadl.Time.of_ms q_ms) text in
      Fmt.pr "%4d ms  %6d  %s@." q_ms (states_of r) (verdict_string r))
    [ 1; 2; 4; 5 ];
  Fmt.pr
    "(the model is schedulable; coarse quanta may reject it but never \
     falsely accept)@."

(* {1 E4: diagnostic traces (Section 5)} *)

let exp_e4 () =
  hr "E4: failing-scenario diagnostics (Section 5)";
  let r = analyze_text (Gen.cruise_control ~overload:true ()) in
  match r.Analysis.Schedulability.verdict with
  | Analysis.Schedulability.Not_schedulable { scenario; _ } ->
      let happenings =
        List.concat_map
          (fun q -> q.Analysis.Raise_trace.happenings)
          scenario.Analysis.Raise_trace.quanta
      in
      Fmt.pr
        "violation at t=%d; %d quanta in the scenario; %d AADL-level \
         happenings (dispatches/completions)@."
        scenario.Analysis.Raise_trace.violation_time
        (List.length scenario.Analysis.Raise_trace.quanta)
        (List.length happenings)
  | _ -> Fmt.pr "unexpected: overloaded variant not rejected@."

(* {1 E5: latency observers (Section 5)} *)

let exp_e5 () =
  hr "E5: end-to-end latency observer sweep (Section 5)";
  let root = Aadl.Instantiate.of_string (Gen.cruise_control ()) in
  Fmt.pr "bound   verdict   states@.";
  List.iter
    (fun bound_ms ->
      let r =
        Analysis.Latency.check
          ~from_thread:[ "hci"; "ref_speed" ]
          ~to_thread:[ "ccl"; "cruise2" ]
          ~bound:(Aadl.Time.of_ms bound_ms) root
      in
      let verdict =
        match r.Analysis.Latency.verdict with
        | Analysis.Latency.Latency_met -> "met"
        | Analysis.Latency.Latency_violated _ -> "violated"
        | Analysis.Latency.Latency_inconclusive _ -> "inconclusive"
      in
      Fmt.pr "%3d ms  %-8s  %6d@." bound_ms verdict
        (Versa.Explorer.num_states r.Analysis.Latency.exploration))
    [ 100; 60; 40; 30; 20 ]

(* {1 E6: state-space scaling (Section 7 motivation)} *)

let exp_e6 () =
  hr "E6: state-space growth with the number of threads (Section 7)";
  Fmt.pr "threads  states  transitions  time@.";
  List.iter
    (fun n ->
      let r = analyze_text (Gen.e6_model n) in
      let e = r.Analysis.Schedulability.exploration in
      Fmt.pr "%7d  %6d  %11d  %.3fs@." n (Versa.Explorer.num_states e)
        (Versa.Explorer.num_transitions e) e.Versa.Explorer.elapsed)
    [ 1; 2; 3; 4; 5; 6 ]

(* {1 E7: queue sizes and overflow (Section 4.4)} *)

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

let exp_e7 () =
  hr "E7: queue sizes and Overflow_Handling_Protocol (Section 4.4)";
  Fmt.pr "queue  policy      verdict          states@.";
  List.iter
    (fun (qs, overflow) ->
      let text =
        replace "Period => 4 ms;" "Period => 16 ms;"
          (Gen.event_driven ~queue_size:qs ~overflow ())
      in
      let r = analyze_text text in
      Fmt.pr "%5d  %-10s  %-15s  %6d@." qs overflow (verdict_string r)
        (states_of r))
    [
      (1, "DropNewest");
      (2, "DropNewest");
      (1, "Error");
      (2, "Error");
      (4, "Error");
    ];
  Fmt.pr
    "(a slow sporadic consumer: dropping absorbs the overload, Error \
     surfaces it as a violation)@."

(* {1 E8: cross-processor shared data (access connections)} *)

let exp_e8 () =
  hr "E8: shared-data contention across processors (beyond classical RTA)";
  Fmt.pr "reader cet  data demand/period  exploration      per-cpu RTA@.";
  List.iter
    (fun cet ->
      let text = Gen.shared_data_system ~t2_cet_ms:cet () in
      let r = analyze_text text in
      let wl =
        r.Analysis.Schedulability.translation.Translate.Pipeline.workload
      in
      let rta_all =
        List.for_all
          (fun (_, tasks) ->
            (Analysis.Rta.analyze ~protocol:Aadl.Props.Rate_monotonic tasks)
              .Analysis.Rta.schedulable)
          wl.Translate.Workload.by_processor
      in
      Fmt.pr "%10d  %17s  %-15s  %s@." cet
        (Printf.sprintf "%d/4" (2 + cet))
        (verdict_string r)
        (if rta_all then "schedulable" else "NOT schedulable"))
    [ 1; 2; 3 ];
  Fmt.pr
    "(the serialized data component overloads at demand 5/4; only the exploration sees it — the paper's argument for handling complex interaction patterns)@."

(* {1 E9: multi-modal systems (extension)} *)

let exp_e9 () =
  hr "E9: mode switching (extension; the paper's translation omits modes)";
  Fmt.pr "degraded worker cet  verdict          states@.";
  List.iter
    (fun cet ->
      let r = analyze_text (Gen.modal_system ~degraded_cet_ms:cet ()) in
      Fmt.pr "%19d  %-15s  %6d@." cet (verdict_string r) (states_of r))
    [ 4; 6; 8; 9 ];
  Fmt.pr
    "(combined utilization of all threads is > 1; feasibility up to cet 8 shows mode exclusion is honored; cet 9 overloads the degraded mode and the scenario walks through the mode switch)@."

(* {1 E10: hierarchical scheduling (extension, Section 7)} *)

let exp_e10 () =
  hr "E10: hierarchical scheduling by priority bands (Section 7)";
  Fmt.pr "ranking                          verdict          states@.";
  List.iter
    (fun (name, crit, be) ->
      let r =
        analyze_text
          (Gen.hierarchical_system ~critical_rank:crit ~besteffort_rank:be ())
      in
      Fmt.pr "%-31s  %-15s  %6d@." name (verdict_string r) (states_of r))
    [
      ("critical group on top", 10, 1);
      ("best-effort group on top", 1, 10);
    ];
  Fmt.pr
    "(two-level: fixed priority across process groups, RM / EDF locally; \
     ranking the best-effort group above starves the 2 ms-deadline \
     critical thread)@."

(* {1 Bechamel timing} *)

let bechamel_section () =
  hr "timing (Bechamel, one estimate per experiment hot path)";
  let open Bechamel in
  let cruise = Gen.cruise_control () in
  let cruise_root = Aadl.Instantiate.of_string cruise in
  let cruise_tr = Translate.Pipeline.translate cruise_root in
  let crossover = Gen.periodic_system Gen.crossover_set in
  let crossover_tasks =
    (Translate.Workload.extract ~quantum:(Aadl.Time.of_ms 1)
       (Aadl.Instantiate.of_string crossover))
      .Translate.Workload.tasks
  in
  let e6_4 = Gen.e6_model 4 in
  let tests =
    [
      Test.make ~name:"fig1_cruise_control_analysis"
        (Staged.stage (fun () -> ignore (analyze_text cruise)));
      Test.make ~name:"fig1_parse_and_instantiate"
        (Staged.stage (fun () -> ignore (Aadl.Instantiate.of_string cruise)));
      Test.make ~name:"fig1_translate_only"
        (Staged.stage (fun () ->
             ignore (Translate.Pipeline.translate cruise_root)));
      Test.make ~name:"fig1_explore_only"
        (Staged.stage (fun () ->
             ignore
               (Versa.Explorer.check_deadlock cruise_tr.Translate.Pipeline.defs
                  cruise_tr.Translate.Pipeline.system)));
      Test.make ~name:"fig2_simple_process"
        (Staged.stage (fun () ->
             ignore
               (Versa.Lts.build Gen.Paper_figs.fig2a_defs
                  Gen.Paper_figs.fig2a_initial)));
      Test.make ~name:"fig3_composition"
        (Staged.stage (fun () ->
             ignore
               (Versa.Lts.build Gen.Paper_figs.fig3_defs
                  Gen.Paper_figs.fig3_system)));
      Test.make ~name:"fig5_compute_cet4"
        (Staged.stage (fun () ->
             ignore
               (analyze_text ~quantum:(Aadl.Time.of_ms 1)
                  (Gen.periodic_system
                     [ Gen.simple_spec ~name:"t1" ~period_ms:8 ~cet_ms:4 () ]))));
      Test.make ~name:"e1_rta_baseline"
        (Staged.stage (fun () ->
             ignore
               (Analysis.Rta.analyze ~protocol:Aadl.Props.Rate_monotonic
                  crossover_tasks)));
      Test.make ~name:"e1_simulator_baseline"
        (Staged.stage (fun () ->
             ignore
               (Analysis.Simulator.simulate ~protocol:Aadl.Props.Rate_monotonic
                  crossover_tasks)));
      Test.make ~name:"e2_crossover_edf"
        (Staged.stage (fun () ->
             ignore (analyze_text ~protocol:Aadl.Props.Edf crossover)));
      Test.make ~name:"e6_four_threads"
        (Staged.stage (fun () -> ignore (analyze_text e6_4)));
      Test.make ~name:"e7_queue_overflow"
        (Staged.stage (fun () -> ignore (analyze_text (Gen.event_driven ()))));
      Test.make ~name:"e8_shared_data"
        (Staged.stage (fun () ->
             ignore (analyze_text (Gen.shared_data_system ()))));
      Test.make ~name:"e9_modal_system"
        (Staged.stage (fun () -> ignore (analyze_text (Gen.modal_system ()))));
      Test.make ~name:"e10_hierarchical"
        (Staged.stage (fun () ->
             ignore (analyze_text (Gen.hierarchical_system ()))));
      Test.make ~name:"e11_sensitivity_breakdown"
        (Staged.stage (fun () ->
             let root =
               Aadl.Instantiate.of_string (Gen.periodic_system Gen.light_set)
             in
             ignore
               (Analysis.Sensitivity.breakdown ~thread:[ "t2_i" ] root)));
      Test.make ~name:"e12_avionics_8_threads"
        (Staged.stage (fun () -> ignore (analyze_text (Gen.avionics ()))));
    ]
  in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) () in
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  Fmt.pr "%-32s %14s %8s@." "benchmark" "time/run" "r^2";
  List.iter
    (fun test ->
      List.iter
        (fun elt ->
          let raw = Benchmark.run cfg Toolkit.Instance.[ monotonic_clock ] elt in
          let est = Analyze.one ols Toolkit.Instance.monotonic_clock raw in
          let time_ns =
            match Analyze.OLS.estimates est with
            | Some [ t ] -> t
            | Some _ | None -> nan
          in
          let r2 =
            match Analyze.OLS.r_square est with Some r -> r | None -> nan
          in
          let pp_time ppf ns =
            if ns >= 1e9 then Fmt.pf ppf "%10.3f s " (ns /. 1e9)
            else if ns >= 1e6 then Fmt.pf ppf "%10.3f ms" (ns /. 1e6)
            else Fmt.pf ppf "%10.3f us" (ns /. 1e3)
          in
          Fmt.pr "%-32s %a %8.4f@." (Test.Elt.name elt) pp_time time_ns r2)
        (Test.elements test))
    tests

(* {1 Gates}

   Each gate below asserts a property a regression can break, writes its
   measurements to its own BENCH_<gate>.json through [record_gate], and
   exits 1 when the property fails.  End-to-end timings are perfbench's
   job, not theirs. *)

(* Writes a gate's record to [path]: what was measured, the host it ran
   on (core count, OCaml version), the gate's own fields and its [ok]
   flag; then exits 1 unless [ok]. *)
let record_gate path ~benchmark ~ok fields =
  let open Service.Json in
  let host =
    Obj
      [
        ("cores", Int (Domain.recommended_domain_count ()));
        ("ocaml", String Sys.ocaml_version);
      ]
  in
  let json =
    Obj
      ((("benchmark", String benchmark) :: ("host", host) :: fields)
      @ [ ("ok", Bool ok) ])
  in
  Out_channel.with_open_text path (fun oc ->
      output_string oc (to_string json);
      output_char oc '\n');
  Fmt.pr "telemetry written to %s@." path;
  if not ok then exit 1

(* {1 Dist: shard-count throughput over loopback sockets (the
   [make bench-dist] target)}

   A duplicate-heavy manifest (every distinct model submitted several
   times, the shape of parameter sweeps and CI re-runs) pushed through a
   socket router fronting 1, 2 and 4 owner shards, each shard in its own
   domain with its own verdict cache and journal — the smallest honest
   model of a multi-process deployment that still fits in one bench
   binary.  A small pool of client threads (each with its own connection
   pool, so calls overlap) drives the router; rows are written to
   BENCH_dist.json, and verdicts must match a direct in-process run.
   The shards4/shards1 >= 1.2 speedup gate is enforced only on hosts
   with >= 4 cores; elsewhere the rows are still recorded and the gate
   marked skipped. *)

let service_manifest () =
  let distinct =
    [
      ("cruise", Gen.cruise_control ());
      ("cruise_over", Gen.cruise_control ~overload:true ());
      ("crossover", Gen.periodic_system Gen.crossover_set);
      ("light", Gen.periodic_system Gen.light_set);
      ("e6_four", Gen.e6_model 4);
      ("e6_five", Gen.e6_model 5);
    ]
  in
  let repeats = 6 in
  ( List.length distinct,
    List.concat
      (List.init repeats (fun round ->
           List.map
             (fun (name, text) ->
               Service.Job.request
                 ~id:(Printf.sprintf "%s_%d" name round)
                 (Service.Job.Inline text))
             distinct)) )

let dist_clients = 4

(* shard domains bind their listeners asynchronously: poll an endpoint
   with the cheap stats op until it answers (or give up loudly) *)
let dist_await_endpoint socket addr =
  let deadline = Timed.Clock.gettimeofday () +. 10.0 in
  let rec loop () =
    match
      Service.Transport_socket.call socket ~timeout:1.0 ~src:"bench-probe"
        ~dst:addr {|{"op":"stats"}|}
    with
    | Ok _ -> ()
    | Error _ when Timed.Clock.gettimeofday () < deadline ->
        Thread.delay 0.05;
        loop ()
    | Error e ->
        failwith
          (Fmt.str "bench dist: %s never came up: %s" addr
             (Service.Transport.error_message e))
  in
  loop ()

let dist_run ~shards:count requests =
  let tmp = Filename.get_temp_dir_name () in
  let pid = Unix.getpid () in
  let shard_addr i = Fmt.str "unix:%s/aadl_bench_%d_%d_s%d.sock" tmp pid count i in
  let journal_path i = Fmt.str "%s/aadl_bench_%d_%d_s%d.journal" tmp pid count i in
  let shard_addrs = List.init count shard_addr in
  (* one domain per shard: exploration on shard A must not share a
     runtime lock with shard B, or adding shards measures nothing *)
  let domains =
    List.init count (fun i ->
        Domain.spawn (fun () ->
            let socket = Service.Transport_socket.create () in
            let transport = Service.Transport_socket.make socket in
            match
              Service.Shard.create ~journal:(journal_path i)
                ~name:(shard_addr i) Service.Runner.default_config
            with
            | Error e -> failwith ("bench dist: shard: " ^ e)
            | Ok shard ->
                Service.Shard.register shard transport;
                while not (Service.Shard.stopping shard) do
                  Thread.delay 0.02
                done;
                (* give the in-flight quit reply a beat to flush *)
                Thread.delay 0.1;
                Service.Transport_socket.stop socket;
                Service.Shard.close shard))
  in
  let socket = Service.Transport_socket.create () in
  let transport = Service.Transport_socket.make socket in
  List.iter (dist_await_endpoint socket) shard_addrs;
  let router_addr = Fmt.str "unix:%s/aadl_bench_%d_%d_router.sock" tmp pid count in
  let router =
    Service.Router.create ~name:router_addr ~retries:3 ~call_timeout:60.0
      ~shards:shard_addrs transport
  in
  Service.Router.register router transport;
  dist_await_endpoint socket router_addr;
  let reqs = Array.of_list requests in
  let n = Array.length reqs in
  let outcomes = Array.make n None in
  let next = Atomic.make 0 in
  let client () =
    (* own transport per client: the pooled per-destination connection
       serializes its calls, so a shared pool would serialize the whole
       client side *)
    let socket = Service.Transport_socket.create () in
    let rec loop () =
      let i = Atomic.fetch_and_add next 1 in
      if i < n then begin
        let line =
          Service.Json.to_string (Service.Job.request_to_json reqs.(i))
        in
        (match
           Service.Transport_socket.call socket ~timeout:120.0 ~src:"bench"
             ~dst:router_addr line
         with
        | Error e ->
            failwith ("bench dist: " ^ Service.Transport.error_message e)
        | Ok reply -> (
            match Service.Json.parse reply with
            | Error e -> failwith ("bench dist: bad reply: " ^ e)
            | Ok j -> (
                match Service.Job.outcome_of_json j with
                | Error e -> failwith ("bench dist: bad outcome: " ^ e)
                | Ok o -> outcomes.(i) <- Some o)));
        loop ()
      end
    in
    Fun.protect ~finally:(fun () -> Service.Transport_socket.stop socket) loop
  in
  Gc.full_major ();
  let t0 = Timed.Clock.gettimeofday () in
  let clients = List.init dist_clients (fun _ -> Thread.create client ()) in
  List.iter Thread.join clients;
  let wall = Timed.Clock.gettimeofday () -. t0 in
  let stats =
    match
      Service.Transport_socket.call socket ~timeout:30.0 ~src:"bench"
        ~dst:router_addr {|{"op":"stats"}|}
    with
    | Ok s ->
        Option.value ~default:Service.Json.Null
          (Result.to_option (Service.Json.parse s))
    | Error _ -> Service.Json.Null
  in
  ignore
    (Service.Transport_socket.call socket ~timeout:30.0 ~src:"bench"
       ~dst:router_addr {|{"op":"quit"}|});
  List.iter Domain.join domains;
  Service.Transport_socket.stop socket;
  List.iteri
    (fun i _ -> try Sys.remove (journal_path i) with Sys_error _ -> ())
    shard_addrs;
  let outcomes =
    Array.to_list outcomes
    |> List.map (function
         | Some o -> o
         | None -> failwith "bench dist: request never answered")
  in
  (outcomes, wall, stats)

let dist_section ~json_path () =
  hr "DIST: duplicate-heavy load over 1/2/4 socket shards behind a router";
  let num_distinct, requests = service_manifest () in
  let n = List.length requests in
  let cores = Domain.recommended_domain_count () in
  (* reference verdicts from the plain in-process runner; order-free
     comparison because the client pool races *)
  let reference_outcomes =
    let scheduler =
      Service.Scheduler.create ~workers:1
        (Service.Runner.with_cache Service.Runner.default_config)
    in
    List.iter (fun r -> ignore (Service.Scheduler.submit scheduler r)) requests;
    Service.Scheduler.run_all scheduler
  in
  let verdicts (outcomes : Service.Job.outcome list) =
    List.sort compare
      (List.map
         (fun (o : Service.Job.outcome) ->
           (o.Service.Job.id, Service.Job.verdict_tag o.Service.Job.verdict))
         outcomes)
  in
  let reference = verdicts reference_outcomes in
  Fmt.pr "manifest: %d jobs over %d distinct models, %d client threads@." n
    num_distinct dist_clients;
  Fmt.pr "cores available: %d@." cores;
  Fmt.pr "%-8s %8s %12s %s@." "shards" "wall (s)" "models/sec" "verdicts";
  let rows =
    List.map
      (fun count ->
        let outcomes, wall, stats = dist_run ~shards:count requests in
        let agree = verdicts outcomes = reference in
        Fmt.pr "%-8d %8.3f %12.1f %s@." count wall
          (float_of_int n /. max wall 1e-9)
          (if agree then "agree" else "MISMATCH");
        (count, wall, stats, agree))
      [ 1; 2; 4 ]
  in
  let agree_all = List.for_all (fun (_, _, _, a) -> a) rows in
  let speedup =
    match rows with
    | (_, w1, _, _) :: _ -> (
        match List.rev rows with (_, w4, _, _) :: _ -> w1 /. max w4 1e-9 | [] -> 0.)
    | [] -> 0.
  in
  let gate_enforced = cores >= 4 in
  let gate_ok = (not gate_enforced) || speedup >= 1.2 in
  Fmt.pr "speedup shards4 vs shards1: %.2fx (%s)@." speedup
    (if not gate_enforced then "gate skipped: fewer than 4 cores"
     else if gate_ok then "OK"
     else "FAIL");
  let open Service.Json in
  record_gate json_path ~benchmark:"distributed service shard scaling"
    ~ok:(agree_all && gate_ok)
    [
      ( "note",
        String
          "duplicate-heavy manifest through a socket router onto 1/2/4 \
           shards, each shard a separate domain with its own verdict \
           cache and journal, driven over loopback unix sockets by a \
           small client thread pool" );
      ("jobs", Int n);
      ("distinct_models", Int num_distinct);
      ("clients", Int dist_clients);
      ( "runs",
        List
          (List.map
             (fun (count, wall, stats, agree) ->
               Obj
                 [
                   ("shards", Int count);
                   ("wall_s", Float wall);
                   ( "models_per_sec",
                     Float (float_of_int n /. max wall 1e-9) );
                   ("merged_stats", stats);
                   ("verdicts_agree", Bool agree);
                 ])
             rows) );
      ("speedup_shards4_vs_shards1", Float speedup);
      ( "gate",
        String
          (if not gate_enforced then "skipped_insufficient_cores"
           else if gate_ok then "enforced_ok"
           else "enforced_fail") );
    ]

(* {1 Obs: instrumentation overhead gate (the [make bench-obs] target)}

   The observability layer must be effectively free when nobody is
   looking: counters/histograms are always on (sharded atomics), spans
   cost one atomic load while tracing is inactive.  This gate explores
   [e6_unsched 6] exhaustively (31537 states) with the registry muted
   ([Obs.set_enabled false]), with metrics enabled, and with span tracing
   on top, and fails if either instrumented row is more than 5% slower
   than the muted one.  A sample is as many checks as take at least
   [min_sample_s], sized from a timed warm check, so millisecond noise
   cannot reach 5% and a real regression can fail the gate.  Each round
   samples every row once, back to back; the estimate is the median over
   rounds of the paired ratio instrumented / muted, which a slow spell on
   a shared host moves less than it moves the rows' separate minima.
   The round count is a multiple of 3, so every row order occurs equally
   often; doc/PERFORMANCE.md ("Sizing the overhead gate") records the
   runs that chose it.  Run shape is read back from the registry itself
   — the same counters `--stats` and the serve 'metrics' op render. *)

let time_run f =
  (* settle GC debt from previous runs so single-shot timings don't
     charge one run with another's garbage *)
  Gc.full_major ();
  let t0 = Timed.Clock.gettimeofday () in
  let r = f () in
  (r, Timed.Clock.gettimeofday () -. t0)

let obs_counter name =
  match Obs.find name with
  | Some { Obs.value = Obs.Counter_value n; _ } -> n
  | _ -> 0

let obs_gauge name =
  match Obs.find name with
  | Some { Obs.value = Obs.Gauge_value v; _ } -> v
  | _ -> 0.

let median xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let obs_section ~json_path () =
  hr "OBS: instrumentation overhead (muted vs metrics vs metrics+tracing)";
  let tr =
    Translate.Pipeline.translate
      (Aadl.Instantiate.of_string (Gen.e6_unsched 6))
  in
  let config =
    {
      Versa.Lts.default_config with
      max_states = Some 2_000_000;
      stop_at_deadlock = false;
    }
  in
  let check () =
    ignore
      (Versa.Lts.build ~config ~edges:false tr.Translate.Pipeline.defs
         tr.Translate.Pipeline.system)
  in
  (* the first check warms the code paths and the heap; the second,
     warm, sizes the samples *)
  check ();
  let warm_s = snd (time_run check) in
  let min_sample_s = 0.8 in
  let rounds = 30 in
  (* aim a quarter above the floor: later checks can run faster than
     the one that sized them *)
  let checks_per_sample =
    max 1 (int_of_float (Float.ceil (1.25 *. min_sample_s /. warm_s)))
  in
  let sample () =
    snd
      (time_run (fun () ->
           for _ = 1 to checks_per_sample do
             check ()
           done))
  in
  let rows =
    [|
      (fun () ->
        Obs.set_enabled false;
        let t = sample () in
        Obs.set_enabled true;
        t);
      sample;
      (* metrics AND span tracing on — the tracer buffers events in
         memory, and buffering a full exploration must also stay inside
         the same envelope *)
      (fun () ->
        Obs.Trace.start ();
        let t = sample () in
        Obs.Trace.stop ();
        t);
    |]
  in
  let states_before = obs_counter "versa_explore_states_total" in
  (* each round runs every row once, starting one row later than the
     round before, so neither a slow host nor a row's place in the
     round favours one row *)
  let walls =
    List.init rounds (fun r ->
        let w = Array.make 3 0. in
        for i = 0 to 2 do
          let row = (r + i) mod 3 in
          w.(row) <- rows.(row) ()
        done;
        w)
  in
  let states_per_run =
    (obs_counter "versa_explore_states_total" - states_before)
    / (2 * rounds * checks_per_sample)
  in
  let row_median i = median (List.map (fun w -> w.(i)) walls) in
  let ratios i = List.map (fun w -> w.(i) /. w.(0)) walls in
  let overhead_of i = median (ratios i) -. 1. in
  let wall_off = row_median 0 and wall_on = row_median 1 in
  let wall_trace = row_median 2 in
  let min_wall =
    List.fold_left (fun m w -> Array.fold_left Float.min m w) infinity walls
  in
  let overhead = overhead_of 1 and overhead_trace = overhead_of 2 in
  let ok_metrics = overhead <= 0.05 in
  let ok_trace = overhead_trace <= 0.05 in
  let ok = ok_metrics && ok_trace in
  Fmt.pr "model: e6_unsched 6, %d states per exhaustive check (from registry)@."
    states_per_run;
  Fmt.pr "sample: %d exhaustive checks (warm check %.3fs; shortest sample \
          %.3fs, floor %.1fs)@."
    checks_per_sample warm_s min_wall min_sample_s;
  Fmt.pr "metrics on:    median of %d  %.3fs@." rounds wall_on;
  Fmt.pr "metrics muted: median of %d  %.3fs@." rounds wall_off;
  Fmt.pr "tracing on:    median of %d  %.3fs@." rounds wall_trace;
  Fmt.pr "overhead (median paired ratio): metrics %+.1f%%, tracing %+.1f%% \
          (gate: <= 5%%) — %s@."
    (100. *. overhead)
    (100. *. overhead_trace)
    (if ok then "OK" else "FAIL");
  Fmt.pr "registry after the instrumented runs: %d explorations, last at \
          %.0f states/sec, peak frontier %.0f@."
    (obs_counter "versa_explore_runs_total")
    (obs_gauge "versa_explore_states_per_sec")
    (obs_gauge "versa_explore_peak_frontier");
  let open Service.Json in
  let row name wall overhead ratios ok =
    Obj
      [
        ("row", String name);
        ("wall_s", Float wall);
        ("overhead_fraction", Float overhead);
        ("paired_ratios", List (List.map (fun r -> Float r) ratios));
        ("ok", Bool ok);
      ]
  in
  record_gate json_path ~benchmark:"observability overhead gate" ~ok
    [
      ( "note",
        String
          "exhaustive on-the-fly check of e6_unsched 6: metrics registry \
           muted vs enabled vs enabled-with-span-tracing; samples sized \
           from a warm check to last at least min_sample_s; rounds \
           alternate the rows; each instrumented row gated by the median \
           over rounds of its paired ratio to the muted row, against the \
           relative tolerance alone; wall times are per-row medians" );
      ("model", String "e6_unsched 6");
      ("rounds", Int rounds);
      ("warm_check_s", Float warm_s);
      ("min_sample_s", Float min_sample_s);
      ("checks_per_sample", Int checks_per_sample);
      ("shortest_sample_s", Float min_wall);
      ("states_per_run", Int states_per_run);
      ("wall_on_s", Float wall_on);
      ("wall_off_s", Float wall_off);
      ("wall_trace_s", Float wall_trace);
      ("overhead_fraction", Float overhead);
      ("tolerance_fraction", Float 0.05);
      ( "rows",
        List
          [
            row "metrics" wall_on overhead (ratios 1) ok_metrics;
            row "metrics+tracing" wall_trace overhead_trace (ratios 2) ok_trace;
          ] );
    ]

(* {1 Reduction: the orbit (symmetry) reduction gate (the
   [make bench-reduction] target)}

   Exhaustively explores each model with the orbit reduction off and on
   and records raw vs reduced visited-state counts, the compression
   factor and verdict agreement in BENCH_reduction.json.
   Gates (exit 1 on violation):
   - reduced <= raw and identical verdicts on every row;
   - strict reduction (reduced < raw) on the generated replicated EDF
     families, where every thread is identical up to renaming;
   - under a small shared state budget the 12-thread family completes
     with the reduction on while exceeding the budget with it off.

   e6_seven_threads rides along with an exact ratio-1.0 expectation: its
   threads have pairwise distinct periods (4 + 2i), so no two are
   interchangeable and there is nothing to collapse — the row documents
   that the reduction is inert (identical space, not merely "no worse")
   on asymmetric models.

   The "canonicalization" rows record what the reduction itself costs on
   the 32- and 64-thread families at utilization 0.9: canonicalizations
   (orbit hits + misses), total canonicalization time, microseconds per
   canonicalization and the exploration's slot nodes (its distinct slot
   terms).  They are reduced-only (the raw spaces exhaust memory) and
   carry no gate: the slot-node growth they show is deterministic, and
   test_symmetry bounds it. *)

type red_sample = {
  red_states : int;
  red_wall : float;
  red_verdict : string;
  red_truncated : bool;
  red_canons : int;  (** orbit hits + misses *)
  red_canon_s : float;
  red_slot_nodes : int;
}

let reduction_run ?(max_states = 2_000_000) ~symmetry text =
  let root = Aadl.Instantiate.of_string text in
  let tr = Translate.Pipeline.translate root in
  let spec =
    if symmetry then tr.Translate.Pipeline.symmetry else Acsr.Symmetry.empty
  in
  Gc.full_major ();
  let r =
    Versa.Explorer.check_deadlock ~engine:Versa.Explorer.On_the_fly ~max_states
      ~stop_at_deadlock:false ~symmetry:spec tr.Translate.Pipeline.defs
      tr.Translate.Pipeline.system
  in
  let stats = Versa.Explorer.stats r in
  {
    red_states = Versa.Explorer.num_states r;
    red_wall = r.Versa.Explorer.elapsed;
    red_verdict =
      (match r.Versa.Explorer.verdict with
      | Versa.Explorer.Deadlock_free -> "schedulable"
      | Versa.Explorer.Deadlock _ -> "not schedulable"
      | Versa.Explorer.Inconclusive _ -> "inconclusive");
    red_truncated = Versa.Lts.truncated r.Versa.Explorer.lts;
    red_canons = stats.Versa.Lts.orbit_hits + stats.Versa.Lts.orbit_misses;
    red_canon_s = stats.Versa.Lts.canon_s;
    red_slot_nodes = stats.Versa.Lts.slot_nodes;
  }

let reduction_section ~json_path () =
  hr "REDUCTION: orbit (symmetry) reduction, raw vs reduced state spaces";
  let rows =
    [
      (* distinct periods 4+2i: no interchangeable threads, reduction
         must be exactly inert *)
      ("e6_seven_threads", Gen.e6_model 7, `Inert);
      ( "family_8_u080",
        Gen.replicated_family ~threads:8 ~utilization:0.8 (),
        `Strict );
      ( "family_8_u130",
        Gen.replicated_family ~threads:8 ~utilization:1.3 (),
        `Strict );
    ]
  in
  let failures = ref 0 in
  Fmt.pr "%-18s %9s %9s %12s %-16s %s@." "model" "raw" "reduced" "compression"
    "verdict" "gate";
  let measured =
    List.map
      (fun (name, text, expect) ->
        let raw = reduction_run ~symmetry:false text in
        let red = reduction_run ~symmetry:true text in
        let compression =
          float_of_int raw.red_states /. float_of_int (max red.red_states 1)
        in
        let agree = String.equal raw.red_verdict red.red_verdict in
        let ok =
          agree
          && red.red_states <= raw.red_states
          &&
          match expect with
          | `Inert -> red.red_states = raw.red_states
          | `Strict -> red.red_states < raw.red_states
        in
        if not ok then incr failures;
        Fmt.pr "%-18s %9d %9d %11.1fx %-16s %s@." name raw.red_states
          red.red_states compression red.red_verdict
          (if ok then "OK" else "FAIL");
        (name, raw, red, compression, agree, ok))
      rows
  in
  (* the budget demonstration: a shared state budget the reduced space
     fits in comfortably and the raw space cannot *)
  let demo_name = "family_12_u096" in
  let demo_budget = 2_000 in
  let demo_text = Gen.replicated_family ~threads:12 ~utilization:0.96 () in
  let demo_raw = reduction_run ~max_states:demo_budget ~symmetry:false demo_text in
  let demo_red = reduction_run ~max_states:demo_budget ~symmetry:true demo_text in
  let demo_ok =
    (not demo_red.red_truncated)
    && demo_raw.red_truncated
    && String.equal demo_red.red_verdict "schedulable"
  in
  if not demo_ok then incr failures;
  Fmt.pr
    "%s under a %d-state budget: reduced %d states (%s) vs raw %s — %s@."
    demo_name demo_budget demo_red.red_states demo_red.red_verdict
    (if demo_raw.red_truncated then
       Fmt.str "truncated at %d states" demo_raw.red_states
     else Fmt.str "%d states (completed)" demo_raw.red_states)
    (if demo_ok then "OK" else "FAIL");
  let canon_rows =
    List.map
      (fun threads ->
        let name = Fmt.str "family_%d_u090" threads in
        let red =
          reduction_run ~symmetry:true
            (Gen.replicated_family ~threads ~utilization:0.9 ())
        in
        let us_per_canon =
          red.red_canon_s *. 1e6 /. float_of_int (max red.red_canons 1)
        in
        Fmt.pr
          "%s reduced: %d states, %d canonicalizations in %.3fs (%.1f us \
           each), %d slot nodes@."
          name red.red_states red.red_canons red.red_canon_s us_per_canon
          red.red_slot_nodes;
        (name, red, us_per_canon))
      [ 32; 64 ]
  in
  let open Service.Json in
  record_gate json_path ~benchmark:"orbit (symmetry) reduction gate"
    ~ok:(!failures = 0)
    [
      ( "note",
        String
          "exhaustive on-the-fly exploration with orbit reduction off \
           (raw) vs on (reduced); families are replicated unit-cet EDF \
           threads from Gen.replicated_family; e6_seven_threads has \
           pairwise distinct periods, so the reduction is inert there \
           by design; canonicalization rows are reduced-only (their raw \
           spaces exhaust memory) and ungated" );
      ( "models",
        List
          (List.map
             (fun (name, raw, red, compression, agree, row_ok) ->
               Obj
                 [
                   ("model", String name);
                   ("raw_states", Int raw.red_states);
                   ("reduced_states", Int red.red_states);
                   ("compression", Float compression);
                   ("raw_wall_s", Float raw.red_wall);
                   ("reduced_wall_s", Float red.red_wall);
                   ("raw_verdict", String raw.red_verdict);
                   ("reduced_verdict", String red.red_verdict);
                   ("verdicts_agree", Bool agree);
                   ("ok", Bool row_ok);
                 ])
             measured) );
      ( "budget_demo",
        Obj
          [
            ("model", String demo_name);
            ("max_states", Int demo_budget);
            ("reduced_states", Int demo_red.red_states);
            ("reduced_completed", Bool (not demo_red.red_truncated));
            ("reduced_verdict", String demo_red.red_verdict);
            ("raw_states", Int demo_raw.red_states);
            ("raw_truncated", Bool demo_raw.red_truncated);
            ("ok", Bool demo_ok);
          ] );
      ( "canonicalization",
        List
          (List.map
             (fun (name, red, us_per_canon) ->
               Obj
                 [
                   ("model", String name);
                   ("reduced_states", Int red.red_states);
                   ("canonicalizations", Int red.red_canons);
                   ("canon_s", Float red.red_canon_s);
                   ("us_per_canon", Float us_per_canon);
                   ("slot_nodes", Int red.red_slot_nodes);
                   ("reduced_wall_s", Float red.red_wall);
                   ("reduced_verdict", String red.red_verdict);
                 ])
             canon_rows) );
    ]

(* {1 Gen: print a parametric replicated family to stdout}

   [gen --threads N --utilization U] emits the textual AADL model of
   {!Gen.replicated_family}: N indistinguishable unit-cet EDF threads at
   total utilization ~U.  The fixture behind the orbit-reduction bench,
   also handy for ad-hoc CLI experiments:
   [bench/main.exe gen --threads 8 --utilization 0.8 > family.aadl]. *)

let gen_family rest =
  let threads = ref 8 and utilization = ref 0.8 in
  let usage () =
    Fmt.epr "usage: gen [--threads N] [--utilization U]@.";
    exit 2
  in
  let rec parse = function
    | [] -> ()
    | "--threads" :: v :: tl -> (
        match int_of_string_opt v with
        | Some n when n >= 1 ->
            threads := n;
            parse tl
        | _ -> usage ())
    | "--utilization" :: v :: tl -> (
        match float_of_string_opt v with
        | Some u when u > 0.0 ->
            utilization := u;
            parse tl
        | _ -> usage ())
    | _ -> usage ()
  in
  parse rest;
  print_string
    (Gen.replicated_family ~threads:!threads ~utilization:!utilization ())

let gates =
  [
    ("obs", obs_section);
    ("reduction", reduction_section);
    ("dist", dist_section);
  ]

let () =
  match Array.to_list Sys.argv with
  | [ _ ] ->
      exp_f1 ();
      exp_f2_f3 ();
      exp_f5 ();
      exp_e1 ();
      exp_e2 ();
      exp_e3 ();
      exp_e4 ();
      exp_e5 ();
      exp_e6 ();
      exp_e7 ();
      exp_e8 ();
      exp_e9 ();
      exp_e10 ();
      bechamel_section ();
      Fmt.pr "@.done.@."
  | _ :: "gen" :: rest -> gen_family rest
  | [ _; gate ] when List.mem_assoc gate gates ->
      (List.assoc gate gates) ~json_path:(Fmt.str "BENCH_%s.json" gate) ()
  | [ _; gate; json_path ] when List.mem_assoc gate gates ->
      (List.assoc gate gates) ~json_path ()
  | _ ->
      Fmt.epr
        "usage: main.exe [obs|reduction|dist [JSON]] | [gen [--threads N] \
         [--utilization U]]@.";
      exit 2
