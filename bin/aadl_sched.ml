(* aadl_sched: schedulability analysis of AADL models via translation to
   ACSR and state-space exploration, plus classical baselines.

   Subcommands:
     check      legality diagnostics (translation preconditions)
     info       instance tree, semantic connections, task table
     translate  dump the generated ACSR model
     analyze    schedulability analysis (exploration + baselines)
     simulate   deterministic Cheddar-style simulation
     latency    end-to-end latency check with an observer process *)

open Cmdliner

(* Models are loaded from textual AADL or, for files ending in .xml, from
   the XML instance interchange format. *)
let load_root file root_name =
  Obs.Span.with_ ~name:"load" ~attrs:[ ("file", Filename.basename file) ]
  @@ fun () ->
  if Filename.check_suffix file ".xml" then
    Obs.Span.with_ ~name:"parse" (fun () -> Aadl.Instance_xml.read_file file)
  else
    let model =
      Obs.Span.with_ ~name:"parse" (fun () -> Aadl.Parser.parse_file file)
    in
    Obs.Span.with_ ~name:"instantiate" (fun () ->
        Aadl.Instantiate.instantiate ?root:root_name model)

(* {1 Common options} *)

let file_arg =
  Arg.(
    required
    & pos 0 (some non_dir_file) None
    & info [] ~docv:"FILE" ~doc:"Textual AADL model file.")

let root_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "root" ] ~docv:"IMPL"
        ~doc:
          "Root system implementation to instantiate (e.g. $(i,sys.impl)). \
           Defaults to the unique top-level system implementation.")

(* An int or float argument restricted to the values that mean a budget;
   anything else is a usage error rather than a silently disabled one. *)
let budget_conv base ~ok ~what =
  let parse s =
    match Arg.conv_parser base s with
    | Ok v when ok v -> Ok v
    | Ok _ -> Error (`Msg (Fmt.str "%s must be %s" s what))
    | Error _ as e -> e
  in
  Arg.conv (parse, Arg.conv_printer base)

(* A duration in microseconds: one whose nanosecond count overflows is a
   usage error. *)
let microseconds =
  budget_conv Arg.int
    ~ok:(fun us -> Aadl.Time.fits us Aadl.Time.Us)
    ~what:"within the nanosecond time range"

let quantum_arg =
  Arg.(
    value
    & opt (some microseconds) None
    & info [ "quantum" ] ~docv:"US"
        ~doc:
          "Scheduling quantum in microseconds.  Defaults to the gcd of \
           every time value in the model.")

let protocol_conv =
  let parse s =
    match String.lowercase_ascii s with
    | "rm" | "rate_monotonic" -> Ok Aadl.Props.Rate_monotonic
    | "dm" | "deadline_monotonic" -> Ok Aadl.Props.Deadline_monotonic
    | "hpf" | "fixed" -> Ok Aadl.Props.Highest_priority_first
    | "edf" -> Ok Aadl.Props.Edf
    | "llf" -> Ok Aadl.Props.Llf
    | "hier" | "hierarchical" -> Ok Aadl.Props.Hierarchical
    | other -> Error (`Msg (Fmt.str "unknown protocol %S" other))
  in
  let print ppf p = Aadl.Props.pp_scheduling_protocol ppf p in
  Arg.conv (parse, print)

let protocol_arg =
  Arg.(
    value
    & opt (some protocol_conv) None
    & info [ "protocol"; "p" ] ~docv:"PROTO"
        ~doc:
          "Override the Scheduling_Protocol of every processor: one of \
           $(b,rm), $(b,dm), $(b,hpf), $(b,edf), $(b,llf), $(b,hier).")

(* State budgets, worker counts, cache capacities. *)
let positive_int = budget_conv Arg.int ~ok:(fun n -> n >= 1) ~what:"at least 1"

let max_states_arg =
  Arg.(
    value
    & opt positive_int 2_000_000
    & info [ "max-states" ] ~docv:"N"
        ~doc:"State budget for the exploration.")

(* [analyze --jobs] remains only because perfbench passes [--jobs 1];
   exploration is sequential, so any other value is a usage error. *)
let analyze_jobs_arg =
  Term.(
    const ignore
    $ Arg.(
        value
        & opt
            (budget_conv int ~ok:(( = ) 1) ~what:"1: exploration is sequential")
            1
        & info [ "jobs"; "j" ] ~docv:"1"
            ~doc:
              "Accepted for compatibility; only 1.  Exploration is \
               sequential."))

let timeout_arg =
  Arg.(
    value
    & opt
        (some
           (budget_conv float
              ~ok:(fun s -> s >= 0.)
              ~what:"a non-negative number of seconds"))
        None
    & info [ "timeout" ] ~docv:"SECS"
        ~doc:
          "Wall-clock budget for the exploration, in seconds.  Past it \
           the verdict is inconclusive (never a hang); the $(b,batch) and \
           $(b,serve) subcommands degrade such jobs to analytic bounds.")

let stats_arg =
  Arg.(
    value & flag
    & info [ "stats" ]
        ~doc:
          "Print the metrics registry after the run: exploration telemetry \
           (states/sec, dedup hits, peak frontier, early-exit depth), \
           translation-cache counters and service counters, one metric per \
           line.")

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Record structured spans for the whole run and write them to \
           $(docv) as Chrome trace_event JSON (load it in \
           $(i,chrome://tracing) or $(i,https://ui.perfetto.dev)).")

(* Bracket a run with the deterministic simulated clock: every
   timestamp — exploration deadlines, wall_s fields, trace epochs —
   reads virtual time, and each observation advances it by 1 ms, so a
   --timeout budget expires after a fixed number of clock reads
   regardless of host speed.  The same model always truncates at the
   same state, making timeout behavior reproducible (and testable in a
   cram session). *)
let with_virtual_clock virtual_time f =
  if virtual_time then
    let sim = Timed.Sim.create ~auto_advance:1e-3 () in
    Timed.Sim.with_clock sim f
  else f ()

let virtual_time_arg =
  Arg.(
    value & flag
    & info [ "virtual-time" ]
        ~doc:
          "Run under the deterministic simulated clock instead of the \
           wall clock.  Clock observations advance virtual time by 1 ms \
           each, so $(b,--timeout) budgets expire after a fixed number \
           of observations: timeout-dependent behavior (truncation \
           points, degraded verdicts) reproduces bit-identically on any \
           host, in wall-clock milliseconds.")

(* Bracket a whole subcommand with trace collection.  The file is written
   even when the run raises (the exception then continues to
   [handle_errors]), so failing runs still leave a trace to inspect. *)
let with_trace trace f =
  match trace with
  | None -> f ()
  | Some path ->
      Obs.Trace.start ();
      Fun.protect
        ~finally:(fun () ->
          Obs.Trace.stop ();
          Obs.Trace.write path;
          Fmt.epr "trace written to %s@." path)
        f

(* JSON-lines structured logs: every line carries the ambient-clock
   timestamp, the process's trace node name, and — inside a span — the
   trace/span correlation ids. *)
let log_json_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "log-json" ] ~docv:"FILE"
        ~doc:
          "Emit JSON-lines structured logs to $(docv) ($(b,-) for \
           stderr).  Every line carries a timestamp, the process's node \
           name and, when produced inside a span, the trace/span \
           correlation ids — grep a trace_id here to follow one request \
           through the logs of every process.")

let with_log_json log_json f =
  match log_json with
  | None -> f ()
  | Some path ->
      let oc = if path = "-" then stderr else open_out path in
      Obs.Log.set_output (Some oc);
      Fun.protect
        ~finally:(fun () ->
          Obs.Log.set_output None;
          if path <> "-" then close_out_noerr oc)
        f

let metrics_listen_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics-listen" ] ~docv:"ADDR"
        ~doc:
          "Serve this process's metrics registry over HTTP at \
           $(b,unix:PATH) or $(b,tcp:HOST:PORT): $(b,GET /metrics) \
           answers the Prometheus text exposition, $(b,GET /health) the \
           same JSON object as the $(b,health) op.")

(* The --stats rendering: the metrics registry is the single source of
   truth, so every layer's counters appear here, one per line, sorted by
   name (same names as the Prometheus exposition and the serve 'metrics'
   op). *)
let print_registry () =
  Obs.sample_gc ();
  Fmt.pr "@.== metrics ==@.";
  List.iter
    (fun s ->
      match s.Obs.value with
      | Obs.Counter_value n -> Fmt.pr "%s %d@." s.Obs.name n
      | Obs.Gauge_value v -> Fmt.pr "%s %g@." s.Obs.name v
      | Obs.Histogram_value { sum; count; _ } ->
          Fmt.pr "%s count=%d sum=%g@." s.Obs.name count sum)
    (Obs.snapshot ())

let symmetry_conv =
  let parse s =
    match String.lowercase_ascii s with
    | "on" -> Ok true
    | "off" -> Ok false
    | other -> Error (`Msg (Fmt.str "unknown symmetry mode %S" other))
  in
  let print ppf on = Fmt.string ppf (if on then "on" else "off") in
  Arg.conv (parse, print)

let symmetry_arg =
  Arg.(
    value
    & opt symmetry_conv true
    & info [ "symmetry" ] ~docv:"on|off"
        ~doc:
          "Orbit reduction: explore one representative per permutation \
           orbit of interchangeable (identical up to renaming) threads.  \
           Default $(b,on); automatically inert when the model has no \
           interchangeable threads.  Verdicts and failing scenarios are \
           identical either way; visited-state counts shrink.")

let translation_options quantum protocol =
  {
    Translate.Pipeline.default_options with
    quantum = Option.map (fun us -> Aadl.Time.make us Aadl.Time.Us) quantum;
    force_protocol = protocol;
  }

(* Every rejected model surfaces as one located diagnostic, in the same
   text the service puts in a failed outcome's reason; exit code 2. *)
let handle_errors file f =
  try f () with
  | Aadl.Diag.Error d ->
      Fmt.epr "%s@." (Aadl.Diag.to_string ~file d);
      exit 2
  | Sys_error msg ->
      Fmt.epr "%s@." msg;
      exit 2

(* {1 check} *)

let run_check file root_name =
  handle_errors file @@ fun () ->
  let root = load_root file root_name in
  let diags = Aadl.Check.run (Aadl.Binding.resolve root) in
  Fmt.pr "%a@." (Aadl.Check.pp_report ~file) diags;
  if Aadl.Check.is_ok diags then 0 else 1

let check_cmd =
  Cmd.v
    (Cmd.info "check" ~doc:"Check the translation preconditions of a model.")
    Term.(const run_check $ file_arg $ root_arg)

(* {1 info} *)

let run_info file root_name quantum export_xml =
  handle_errors file @@ fun () ->
  let root = load_root file root_name in
  (match export_xml with
  | Some path ->
      Aadl.Instance_xml.write_file path root;
      Fmt.pr "instance model written to %s@." path
  | None -> ());
  Fmt.pr "== instance tree ==@.%a@.@." Aadl.Instance.pp root;
  let deployment = Aadl.Binding.resolve root in
  let sconns = deployment.Aadl.Binding.sconns in
  Fmt.pr "== semantic connections (%d) ==@." (List.length sconns);
  List.iter (fun sc -> Fmt.pr "  %a@." Aadl.Semconn.pp sc) sconns;
  let q =
    match quantum with
    | Some us -> Aadl.Time.make us Aadl.Time.Us
    | None -> Translate.Workload.suggest_quantum root
  in
  (match Translate.Workload.of_binding ~quantum:q deployment with
  | wl ->
      Fmt.pr "@.== task table ==@.%a@." Translate.Workload.pp wl;
      List.iter
        (fun ((proc : Aadl.Instance.t), tasks) ->
          Fmt.pr "processor %a: U = %.3f@." Aadl.Instance.pp_path
            proc.Aadl.Instance.path
            (Translate.Workload.utilization tasks))
        wl.Translate.Workload.by_processor
  | exception Aadl.Diag.Error d ->
      Fmt.pr "@.(task table unavailable: %s)@." (Aadl.Diag.to_string d));
  0

let export_xml_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "export-xml" ] ~docv:"FILE"
        ~doc:
          "Also write the instance model in the XML interchange format \
           (re-loadable by every subcommand).")

let info_cmd =
  Cmd.v
    (Cmd.info "info"
       ~doc:"Show the instance tree, semantic connections and task table.")
    Term.(const run_info $ file_arg $ root_arg $ quantum_arg $ export_xml_arg)

(* {1 translate} *)

let run_translate file root_name quantum protocol output =
  handle_errors file @@ fun () ->
  let root = load_root file root_name in
  let options = translation_options quantum protocol in
  let tr = Translate.Pipeline.translate ~options root in
  (* emitted in the concrete ACSR syntax, so the output can be re-analyzed
     with the 'acsr' subcommand or edited by hand *)
  let text =
    Acsr.Syntax.to_string ~system:tr.Translate.Pipeline.system
      tr.Translate.Pipeline.defs
  in
  (match output with
  | Some path ->
      let oc = open_out path in
      Fun.protect
        ~finally:(fun () -> close_out_noerr oc)
        (fun () ->
          output_string oc (Fmt.str "-- %a@." Translate.Pipeline.pp_summary tr);
          output_string oc text;
          output_string oc "\n");
      Fmt.pr "ACSR model written to %s@." path
  | None ->
      Fmt.pr "-- %a@.@." Translate.Pipeline.pp_summary tr;
      Fmt.pr "%s@." text);
  0

let output_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "o"; "output" ] ~docv:"FILE"
        ~doc:"Write the ACSR model to a file instead of stdout.")

let translate_cmd =
  Cmd.v
    (Cmd.info "translate"
       ~doc:
         "Emit the generated ACSR model in the concrete syntax accepted by \
          the $(b,acsr) subcommand.")
    Term.(
      const run_translate $ file_arg $ root_arg $ quantum_arg $ protocol_arg
      $ output_arg)

(* {1 analyze} *)

let run_analyze file root_name quantum protocol max_states () timeout
    stats trace all baselines symmetry virtual_time =
  handle_errors file @@ fun () ->
  with_virtual_clock virtual_time @@ fun () ->
  with_trace trace @@ fun () ->
  let root = load_root file root_name in
  let options =
    {
      Analysis.Schedulability.translation_options =
        translation_options quantum protocol;
      max_states;
      all_violations = all;
      deadline = Option.map (fun s -> Timed.Clock.gettimeofday () +. s) timeout;
      poll = None;
      symmetry;
    }
  in
  let result = Analysis.Schedulability.analyze ~options root in
  Fmt.pr "%a@." Analysis.Schedulability.pp result;
  if stats then print_registry ();
  if baselines then begin
    Fmt.pr "@.== baselines ==@.";
    let wl = result.Analysis.Schedulability.translation.Translate.Pipeline.workload in
    List.iter
      (fun ((proc : Aadl.Instance.t), tasks) ->
        let proto =
          match protocol with
          | Some p -> Some p
          | None -> Aadl.Props.scheduling_protocol proc.Aadl.Instance.props
        in
        Fmt.pr "processor %a:@." Aadl.Instance.pp_path proc.Aadl.Instance.path;
        (match proto with
        | Some proto ->
            Fmt.pr "  %a@." Analysis.Rta.pp (Analysis.Rta.analyze ~protocol:proto tasks);
            (match Analysis.Simulator.simulate ~protocol:proto tasks with
            | sim -> Fmt.pr "  simulation: %a@." Analysis.Simulator.pp sim
            | exception Analysis.Simulator.Not_simulable msg ->
                Fmt.pr "  simulation: n/a (%s)@." msg)
        | None -> ());
        Fmt.pr "  RM bound: %a@." Analysis.Utilization.pp
          (Analysis.Utilization.rate_monotonic tasks);
        Fmt.pr "  %a@." Analysis.Edf_demand.pp (Analysis.Edf_demand.analyze tasks))
      wl.Translate.Workload.by_processor
  end;
  if Analysis.Schedulability.is_schedulable result then 0 else 1

let all_arg =
  Arg.(
    value & flag
    & info [ "all" ]
        ~doc:"Explore exhaustively and report every violation state.")

let baselines_arg =
  Arg.(
    value & flag
    & info [ "baselines" ]
        ~doc:"Also run RTA, simulation, utilization and demand baselines.")

let analyze_cmd =
  Cmd.v
    (Cmd.info "analyze"
       ~doc:
         "Schedulability analysis by ACSR translation and deadlock \
          detection.")
    Term.(
      const run_analyze $ file_arg $ root_arg $ quantum_arg $ protocol_arg
      $ max_states_arg $ analyze_jobs_arg $ timeout_arg $ stats_arg
      $ trace_arg $ all_arg $ baselines_arg $ symmetry_arg $ virtual_time_arg)

(* {1 simulate} *)

let run_simulate file root_name quantum protocol horizon =
  handle_errors file @@ fun () ->
  let root = load_root file root_name in
  let q =
    match quantum with
    | Some us -> Aadl.Time.make us Aadl.Time.Us
    | None -> Translate.Workload.suggest_quantum root
  in
  let wl = Translate.Workload.extract ~quantum:q root in
  let code = ref 0 in
  List.iter
    (fun ((proc : Aadl.Instance.t), tasks) ->
      let proto =
        match protocol with
        | Some p -> p
        | None -> (
            match Aadl.Props.scheduling_protocol proc.Aadl.Instance.props with
            | Some p -> p
            | None -> Aadl.Props.Rate_monotonic)
      in
      Fmt.pr "== processor %a (%a) ==@." Aadl.Instance.pp_path
        proc.Aadl.Instance.path Aadl.Props.pp_scheduling_protocol proto;
      match Analysis.Simulator.simulate ?horizon ~protocol:proto tasks with
      | sim ->
          Fmt.pr "%a@." Analysis.Simulator.pp sim;
          if not sim.Analysis.Simulator.schedulable then code := 1
      | exception Analysis.Simulator.Not_simulable msg ->
          Fmt.pr "not simulable: %s@." msg)
    wl.Translate.Workload.by_processor;
  !code

let horizon_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "horizon" ] ~docv:"QUANTA"
        ~doc:"Simulation horizon (default: the hyperperiod).")

let simulate_cmd =
  Cmd.v
    (Cmd.info "simulate" ~doc:"Deterministic scheduling simulation.")
    Term.(
      const run_simulate $ file_arg $ root_arg $ quantum_arg $ protocol_arg
      $ horizon_arg)

(* {1 latency} *)

let path_conv =
  let parse s = Ok (String.split_on_char '.' s) in
  Arg.conv (parse, Aadl.Instance.pp_path)

let run_latency file root_name quantum protocol trace from_thread to_thread
    bound_us =
  handle_errors file @@ fun () ->
  with_trace trace @@ fun () ->
  let root = load_root file root_name in
  let options =
    {
      Analysis.Latency.translation_options = translation_options quantum protocol;
      max_states = 2_000_000;
    }
  in
  let result =
    Analysis.Latency.check ~options ~from_thread ~to_thread
      ~bound:(Aadl.Time.make bound_us Aadl.Time.Us)
      root
  in
  Fmt.pr "%a@." Analysis.Latency.pp result;
  match result.Analysis.Latency.verdict with
  | Analysis.Latency.Latency_met -> 0
  | _ -> 1

let from_arg =
  Arg.(
    required
    & opt (some path_conv) None
    & info [ "from" ] ~docv:"THREAD"
        ~doc:"Flow source thread (dotted instance path).")

let to_arg =
  Arg.(
    required
    & opt (some path_conv) None
    & info [ "to" ] ~docv:"THREAD"
        ~doc:"Flow destination thread (dotted instance path).")

let bound_arg =
  Arg.(
    required
    & opt (some microseconds) None
    & info [ "bound" ] ~docv:"US" ~doc:"Latency bound in microseconds.")

let latency_cmd =
  Cmd.v
    (Cmd.info "latency"
       ~doc:"Check an end-to-end latency bound with an observer process.")
    Term.(
      const run_latency $ file_arg $ root_arg $ quantum_arg $ protocol_arg
      $ trace_arg $ from_arg $ to_arg $ bound_arg)

(* {1 sensitivity} *)

let parse_sweep_range s =
  match String.split_on_char ':' s with
  | [ lo; hi ] -> (
      match (int_of_string_opt lo, int_of_string_opt hi) with
      | Some lo, Some hi when lo >= 1 && hi >= lo ->
          Ok (List.init (hi - lo + 1) (fun i -> lo + i))
      | _ -> Error (`Msg "expected LO:HI with 1 <= LO <= HI"))
  | _ -> Error (`Msg "expected LO:HI, e.g. 1:8")

let run_sensitivity file root_name quantum protocol thread sweep stats trace =
  handle_errors file @@ fun () ->
  with_trace trace @@ fun () ->
  let root = load_root file root_name in
  let options =
    {
      Analysis.Sensitivity.schedulability =
        {
          Analysis.Schedulability.default_options with
          translation_options = translation_options quantum protocol;
        };
      max_cmax = None;
    }
  in
  let breakdown thread =
    let b = Analysis.Sensitivity.breakdown ~options ~thread root in
    Fmt.pr "%a@." Analysis.Sensitivity.pp b;
    Fmt.pr "  %a@." Analysis.Sensitivity.pp_reuse b
  in
  (match (sweep, thread) with
  | Some cets, Some thread ->
      List.iter
        (fun p -> Fmt.pr "%a@." Analysis.Sensitivity.pp_point p)
        (Analysis.Sensitivity.sweep ~options ~thread ~cets root)
  | Some _, None ->
      Fmt.epr "--sweep requires --thread@.";
      exit 2
  | None, Some thread -> breakdown thread
  | None, None ->
      (* all threads *)
      let q =
        match quantum with
        | Some us -> Aadl.Time.make us Aadl.Time.Us
        | None -> Translate.Workload.suggest_quantum root
      in
      let wl = Translate.Workload.extract ~quantum:q root in
      List.iter
        (fun (t : Translate.Workload.task) ->
          breakdown t.Translate.Workload.path)
        wl.Translate.Workload.tasks);
  if stats then print_registry ();
  0

let thread_arg =
  Arg.(
    value
    & opt (some path_conv) None
    & info [ "thread" ] ~docv:"THREAD"
        ~doc:
          "Thread to analyze (dotted instance path); default: every \
           thread in turn.")

let sweep_arg =
  let print ppf _ = Fmt.string ppf "LO:HI" in
  let sweep_conv = Arg.conv (parse_sweep_range, print) in
  Arg.(
    value
    & opt (some sweep_conv) None
    & info [ "sweep" ] ~docv:"LO:HI"
        ~doc:
          "Instead of the binary-search breakdown, probe every cet in the \
           inclusive quanta range and print one verdict per point with its \
           fragment reuse counters.  Requires $(b,--thread).")

let sensitivity_cmd =
  Cmd.v
    (Cmd.info "sensitivity"
       ~doc:
         "Breakdown execution times: how much each thread's cet can grow \
          before the system becomes unschedulable.")
    Term.(
      const run_sensitivity $ file_arg $ root_arg $ quantum_arg
      $ protocol_arg $ thread_arg $ sweep_arg $ stats_arg
      $ trace_arg)

(* {1 report} *)

let run_report file root_name quantum protocol max_states with_responses
    output =
  handle_errors file @@ fun () ->
  let root = load_root file root_name in
  let options =
    {
      Analysis.Report.schedulability =
        {
          Analysis.Schedulability.translation_options =
            translation_options quantum protocol;
          max_states;
          all_violations = false;
          deadline = None;
          poll = None;
          symmetry = true;
        };
      with_responses;
      title = Some (Filename.basename file);
    }
  in
  (match output with
  | Some path ->
      Analysis.Report.write_file ~options path root;
      Fmt.pr "report written to %s@." path
  | None -> Fmt.pr "%s@." (Analysis.Report.generate ~options root));
  0

let with_responses_arg =
  Arg.(
    value & flag
    & info [ "responses" ]
        ~doc:
          "Also compute observed worst-case response times (one binary \
           search of explorations per thread).")

let report_output_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "o"; "output" ] ~docv:"FILE"
        ~doc:"Write the markdown report to a file instead of stdout.")

let report_cmd =
  Cmd.v
    (Cmd.info "report"
       ~doc:"Produce a self-contained markdown analysis report.")
    Term.(
      const run_report $ file_arg $ root_arg $ quantum_arg $ protocol_arg
      $ max_states_arg $ with_responses_arg $ report_output_arg)

(* {1 acsr: analyze a textual ACSR model directly (VERSA-style)} *)

let run_acsr file entry dot unprioritized quotient max_states stats trace =
  handle_errors file @@ fun () ->
  with_trace trace @@ fun () ->
  let contents =
    let ic = open_in_bin file in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  match Acsr.Syntax.parse_string contents with
  | exception Acsr.Syntax.Parse_error (msg, line) ->
      Fmt.epr "parse error (line %d): %s@." line msg;
      2
  | defs, system ->
      let root =
        match (entry, system) with
        | Some name, _ -> Acsr.Proc.call name []
        | None, Some p -> p
        | None, None ->
            Fmt.epr
              "no 'system = ...;' entry in %s; name a process with --entry@."
              file;
            exit 2
      in
      let semantics =
        if unprioritized then Versa.Lts.Unprioritized else Versa.Lts.Prioritized
      in
      let config =
        {
          Versa.Lts.default_config with
          max_states = Some max_states;
          stop_at_deadlock = false;
        }
      in
      let lts = Versa.Lts.build ~config ~semantics defs root in
      Fmt.pr "%a@." Versa.Lts.pp_summary lts;
      if stats then print_registry ();
      (match Versa.Explorer.deadlock_verdict lts with
      | Versa.Explorer.Deadlock_free -> Fmt.pr "deadlock-free@."
      | Versa.Explorer.Deadlock { state; trace } ->
          Fmt.pr "@[<v>deadlock at state %d:@,%a@]@." state Versa.Trace.pp
            trace
      | Versa.Explorer.Inconclusive why -> Fmt.pr "inconclusive: %s@." why);
      if quotient then begin
        let q = Versa.Bisim.quotient lts in
        Fmt.pr "bisimulation quotient: %a@." Versa.Bisim.pp_quotient q
      end;
      (match dot with
      | Some path ->
          Versa.Dot.write_file ~show_terms:(Versa.Lts.num_states lts <= 40)
            path lts;
          Fmt.pr "LTS written to %s@." path
      | None -> ());
      if Versa.Lts.deadlocks lts = [] then 0 else 1

let entry_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "entry" ] ~docv:"NAME"
        ~doc:"Process definition to use as the root (default: the \
              $(b,system =) entry of the file).")

let dot_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "dot" ] ~docv:"FILE" ~doc:"Write the explored LTS as Graphviz.")

let unprioritized_arg =
  Arg.(
    value & flag
    & info [ "unprioritized" ]
        ~doc:"Explore the unprioritized transition relation.")

let quotient_arg =
  Arg.(
    value & flag
    & info [ "quotient" ]
        ~doc:"Also compute the strong-bisimulation quotient.")

let acsr_cmd =
  Cmd.v
    (Cmd.info "acsr"
       ~doc:
         "Explore a textual ACSR model directly (the VERSA work-flow): \
          deadlock detection, diagnostic traces, DOT export.")
    Term.(
      const run_acsr $ file_arg $ entry_arg $ dot_arg $ unprioritized_arg
      $ quotient_arg $ max_states_arg $ stats_arg $ trace_arg)

(* {1 batch / serve: the analysis service layer} *)

let service_config no_cache cache_size =
  let config = Service.Runner.default_config in
  if no_cache then config
  else Service.Runner.with_cache ~capacity:cache_size config

let no_cache_arg =
  Arg.(
    value & flag
    & info [ "no-cache" ] ~doc:"Disable the content-addressed verdict cache.")

let cache_size_arg =
  Arg.(
    value & opt positive_int 256
    & info [ "cache-size" ] ~docv:"N"
        ~doc:"Capacity of the verdict cache (LRU eviction).")

let workers_arg =
  Arg.(
    value & opt positive_int 1
    & info [ "jobs"; "j" ] ~docv:"N"
        ~doc:
          "Analysis jobs run concurrently, each on its own domain.  \
           Output order is always manifest order.")

(* The batch summary that lands on stderr: one JSON object, so driving
   scripts can parse counters without scraping the human rendering (which
   is now opt-in via --stats). *)
let batch_summary_json (config : Service.Runner.config)
    (outcomes : Service.Job.outcome list) ~elapsed =
  let open Service in
  let count tag =
    List.length
      (List.filter
         (fun (o : Job.outcome) -> Job.verdict_tag o.verdict = tag)
         outcomes)
  in
  let cache_json =
    match config.Runner.cache with
    | None -> Json.Null
    | Some cache ->
        let c = Lru.counters cache in
        Json.Obj
          [
            ("hits", Json.Int c.Lru.hits);
            ("misses", Json.Int c.Lru.misses);
            ("evictions", Json.Int c.Lru.evictions);
            ("size", Json.Int c.Lru.size);
            ("capacity", Json.Int c.Lru.capacity);
          ]
  in
  let misses_json =
    match config.Runner.cache with
    | None -> Json.Null
    | Some _ ->
        let a = Runner.attribution_counters config in
        Json.Obj
          [
            ("novel", Json.Int a.Runner.novel);
            ("options_only", Json.Int a.Runner.options_only);
            ( "changed_components",
              Json.Obj
                (List.map
                   (fun (id, n) -> (id, Json.Int n))
                   a.Runner.changed_components) );
          ]
  in
  Json.Obj
    [
      ("jobs", Json.Int (List.length outcomes));
      ( "verdicts",
        Json.Obj
          (List.map
             (fun tag -> (tag, Json.Int (count tag)))
             [
               "schedulable"; "not_schedulable"; "bounded"; "unknown";
               "cancelled"; "error";
             ]) );
      ("wall_s", Json.Float elapsed);
      ("cache", cache_json);
      ("misses", misses_json);
    ]

(* batch --connect: forward every manifest entry to a live service (a
   shard, a router, or a plain serve --listen) and print the replies in
   manifest order.  Analysis happens remotely, so the local summary has
   no cache section — ask the service with {"op":"stats"}. *)
let run_batch_connect addr requests stats =
  Obs.Trace.set_node "client";
  let socket = Service.Transport_socket.create () in
  let t0 = Timed.Clock.gettimeofday () in
  let call_one (r : Service.Job.request) =
    (* Inside the span, the ambient context is this request's root, so
       the forwarded line carries it and the service's child spans
       transitively parent here. *)
    let json = Service.Job.request_to_json r in
    let json =
      if Obs.Trace.active () then
        Service.Protocol.set_trace json (Obs.Context.current ())
      else json
    in
    let line = Service.Json.to_string json in
    Obs.Log.emit ~fields:[ ("id", r.id); ("dst", addr) ] "client.request";
    Service.Transport_socket.call socket ~src:"batch" ~dst:addr line
  in
  let outcomes =
    List.map
      (fun (r : Service.Job.request) ->
        match
          Obs.Span.with_ ~name:"client.request" ~attrs:[ ("id", r.id) ]
            (fun () -> call_one r)
        with
        | Error e ->
            {
              Service.Job.id = r.id;
              verdict =
                Service.Job.Failed
                  (Printf.sprintf "service %s: %s" addr
                     (Service.Transport.error_message e));
              states = 0;
              cached = false;
              degraded = false;
              wall_s = 0.;
            }
        | Ok reply -> (
            match
              Result.bind (Service.Json.parse reply)
                Service.Job.outcome_of_json
            with
            | Ok o -> o
            | Error msg ->
                {
                  Service.Job.id = r.id;
                  verdict =
                    Service.Job.Failed
                      (Printf.sprintf "service %s: bad reply: %s" addr msg);
                  states = 0;
                  cached = false;
                  degraded = false;
                  wall_s = 0.;
                }))
      requests
  in
  let elapsed = Timed.Clock.gettimeofday () -. t0 in
  Service.Transport_socket.stop socket;
  List.iter
    (fun o ->
      print_endline (Service.Json.to_string (Service.Job.outcome_to_json o)))
    outcomes;
  Fmt.epr "%s@."
    (Service.Json.to_string
       (batch_summary_json Service.Runner.default_config outcomes ~elapsed));
  if stats then begin
    let count tag =
      List.length
        (List.filter
           (fun (o : Service.Job.outcome) ->
             Service.Job.verdict_tag o.verdict = tag)
           outcomes)
    in
    Fmt.epr
      "batch: %d jobs (%d schedulable, %d not schedulable, %d bounded, %d \
       unknown, %d cancelled, %d errors) in %.2fs via %s@."
      (List.length outcomes) (count "schedulable") (count "not_schedulable")
      (count "bounded") (count "unknown") (count "cancelled") (count "error")
      elapsed addr
  end;
  if
    List.exists
      (fun (o : Service.Job.outcome) ->
        match o.verdict with Service.Job.Failed _ -> true | _ -> false)
      outcomes
  then 1
  else 0

let run_batch manifest workers no_cache cache_size timeout stats trace
    connect log_json =
  with_log_json log_json @@ fun () ->
  with_trace trace @@ fun () ->
  let contents =
    try
      let ic = open_in_bin manifest in
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () -> really_input_string ic (in_channel_length ic))
    with Sys_error msg ->
      Fmt.epr "%s@." msg;
      exit 2
  in
  match Service.Job.parse_manifest contents with
  | Error msg ->
      Fmt.epr "manifest error: %s@." msg;
      2
  | Ok requests ->
      (* relative model paths are relative to the manifest, not the cwd *)
      let dir = Filename.dirname manifest in
      let requests =
        List.map
          (fun (r : Service.Job.request) ->
            let r =
              match r.source with
              | Service.Job.File p when Filename.is_relative p ->
                  { r with source = Service.Job.File (Filename.concat dir p) }
              | _ -> r
            in
            match r.timeout_s with
            | None -> { r with timeout_s = timeout }
            | Some _ -> r)
          requests
      in
      match connect with
      | Some addr -> run_batch_connect addr requests stats
      | None ->
      let config = service_config no_cache cache_size in
      let scheduler = Service.Scheduler.create ~workers config in
      List.iter
        (fun r -> ignore (Service.Scheduler.submit scheduler r))
        requests;
      let t0 = Timed.Clock.gettimeofday () in
      let outcomes = Service.Scheduler.run_all scheduler in
      let elapsed = Timed.Clock.gettimeofday () -. t0 in
      List.iter
        (fun o ->
          print_endline (Service.Json.to_string (Service.Job.outcome_to_json o)))
        outcomes;
      Fmt.epr "%s@."
        (Service.Json.to_string (batch_summary_json config outcomes ~elapsed));
      if stats then begin
        let count tag =
          List.length
            (List.filter
               (fun (o : Service.Job.outcome) ->
                 Service.Job.verdict_tag o.verdict = tag)
               outcomes)
        in
        Fmt.epr
          "batch: %d jobs (%d schedulable, %d not schedulable, %d bounded, \
           %d unknown, %d cancelled, %d errors) in %.2fs@."
          (List.length outcomes) (count "schedulable")
          (count "not_schedulable") (count "bounded") (count "unknown")
          (count "cancelled") (count "error") elapsed;
        match config.Service.Runner.cache with
        | Some cache ->
            Fmt.epr "cache: %a@." Service.Lru.pp_counters
              (Service.Lru.counters cache);
            Fmt.epr "misses: %a@." Service.Runner.pp_attribution
              (Service.Runner.attribution_counters config)
        | None -> ()
      end;
      if
        List.exists
          (fun (o : Service.Job.outcome) ->
            match o.verdict with Service.Job.Failed _ -> true | _ -> false)
          outcomes
      then 1
      else 0

let manifest_arg =
  Arg.(
    required
    & pos 0 (some non_dir_file) None
    & info [] ~docv:"MANIFEST"
        ~doc:
          "JSON-lines manifest: one request object per line ($(b,id) plus \
           $(b,file) or inline $(b,model); optional $(b,root), \
           $(b,protocol), $(b,quantum_us), $(b,max_states), $(b,timeout_s), \
           $(b,priority)).  Blank and $(b,#) lines are skipped; relative \
           paths resolve against the manifest's directory.")

let connect_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "connect" ] ~docv:"ADDR"
        ~doc:
          "Send the manifest to a live service at $(b,unix:PATH) or \
           $(b,tcp:HOST:PORT) (a $(b,serve --listen) endpoint, a \
           $(b,shard), or a router) instead of analyzing locally.  \
           Replies print in manifest order; local analysis flags are \
           ignored.")

let batch_cmd =
  Cmd.v
    (Cmd.info "batch"
       ~doc:
         "Analyze a manifest of models: jobs run concurrently in priority \
          order through the verdict cache, results stream to stdout as \
          JSON lines in manifest order, a one-object JSON summary goes to \
          stderr ($(b,--stats) adds the human rendering).  \
          Budget-exhausted jobs degrade to analytic bounds.  With \
          $(b,--connect) the jobs run on a live service instead.")
    Term.(
      const run_batch $ manifest_arg $ workers_arg $ no_cache_arg
      $ cache_size_arg $ timeout_arg $ stats_arg $ trace_arg $ connect_arg
      $ log_json_arg)

(* {2 distributed mode: socket endpoints} *)

let listen_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "listen" ] ~docv:"ADDR"
        ~doc:
          "Serve on a socket instead of stdio: $(b,unix:PATH) or \
           $(b,tcp:HOST:PORT).  The wire protocol is the same JSON-lines \
           conversation as stdio.")

let route_to_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "route-to" ] ~docv:"ADDRS"
        ~doc:
          "Run as a router over the comma-separated shard addresses: each \
           analysis request is forwarded to the shard that owns its cache \
           key (stable content-addressed hashing), with retries and ring \
           failover; $(b,{\"op\": \"stats\"}) merges every shard's \
           counters, $(b,{\"op\": \"route\"}) answers the owner without \
           running anything.")

let journal_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "journal" ] ~docv:"PATH"
        ~doc:
          "Persist every stored verdict to an append-only CRC-checked \
           journal and pre-warm the cache from it on startup, so a \
           restarted endpoint keeps answering repeats from cache.")

let shard_name_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "name" ] ~docv:"NAME"
        ~doc:
          "Shard name used in per-shard metrics (default: derived from \
           the listen address).")

(* Park the process until the endpoint has answered a quit, then tear
   the sockets down (a short grace period lets the quit reply flush). *)
let serve_until_quit socket stopping =
  let rec poll () =
    if stopping () then begin
      Thread.delay 0.2;
      Service.Transport_socket.stop socket
    end
    else begin
      Thread.delay 0.05;
      poll ()
    end
  in
  poll ();
  Service.Transport_socket.wait socket

let stdio_handler_loop handler stopping =
  let rec loop () =
    match input_line stdin with
    | exception End_of_file -> ()
    | line when String.trim line = "" -> loop ()
    | line ->
        print_string (handler line);
        print_newline ();
        flush stdout;
        if stopping () then () else loop ()
  in
  loop ()

let split_addrs s =
  String.split_on_char ',' s |> List.map String.trim
  |> List.filter (fun a -> a <> "")

(* Bind the --metrics-listen scrape endpoint on [socket], fatal on a bad
   or unbindable address (a silent scrape endpoint would be worse than
   none). *)
let start_scrape socket metrics_listen ~health =
  match metrics_listen with
  | None -> ()
  | Some addr -> (
      try Service.Scrape.start socket ~addr ~health with
      | Invalid_argument msg ->
          Fmt.epr "metrics-listen: %s@." msg;
          exit 2
      | Unix.Unix_error (e, _, _) ->
          Fmt.epr "metrics-listen: %s: %s@." addr (Unix.error_message e);
          exit 2)

let run_serve no_cache cache_size trace listen route_to journal
    metrics_listen log_json =
  with_log_json log_json @@ fun () ->
  with_trace trace @@ fun () ->
  match route_to with
  | Some addrs -> (
      (* Router mode: front the listed shard endpoints.  The router
         keeps no cache of its own — the shards do the caching. *)
      match split_addrs addrs with
      | [] ->
          Fmt.epr "serve: --route-to needs at least one address@.";
          2
      | shards -> (
          Obs.Trace.set_node "router";
          let socket = Service.Transport_socket.create () in
          let transport = Service.Transport_socket.make socket in
          let router =
            Service.Router.create ?name:listen ~shards transport
          in
          let stopping () = Service.Router.stopping router in
          start_scrape socket metrics_listen ~health:(fun () ->
              Service.Json.to_string (Service.Router.health_json router));
          match listen with
          | None ->
              stdio_handler_loop (Service.Router.handler router) stopping;
              Service.Transport_socket.stop socket;
              0
          | Some _ ->
              (* The router's endpoint name is the listen address. *)
              (try Service.Router.register router transport
               with Invalid_argument msg ->
                 Fmt.epr "serve: %s@." msg;
                 exit 2);
              serve_until_quit socket stopping;
              0))
  | None -> (
      Obs.Trace.set_node "serve";
      match listen with
      | None when journal <> None -> (
          (* stdio conversation, but with the shard stack so verdicts
             persist across sessions *)
          match
            Service.Shard.create ?journal ~capacity:cache_size ~name:"serve"
              Service.Runner.default_config
          with
          | Error msg ->
              Fmt.epr "serve: %s@." msg;
              2
          | Ok shard ->
              let scrape_socket = Service.Transport_socket.create () in
              start_scrape scrape_socket metrics_listen ~health:(fun () ->
                  Service.Shard.health shard);
              stdio_handler_loop (Service.Shard.handler shard) (fun () ->
                  Service.Shard.stopping shard);
              Service.Transport_socket.stop scrape_socket;
              Service.Shard.close shard;
              0)
      | None ->
          let config = service_config no_cache cache_size in
          (* The scrape health view shares [config] — and so the live
             cache — with the serving loop's own protocol instance. *)
          let health_protocol = Service.Protocol.create ~name:"serve" config in
          let scrape_socket = Service.Transport_socket.create () in
          start_scrape scrape_socket metrics_listen ~health:(fun () ->
              Service.Json.to_string
                (Service.Protocol.health_json health_protocol));
          Service.Server.serve ~config stdin stdout;
          Service.Transport_socket.stop scrape_socket;
          0
      | Some addr -> (
          (* Single-shard socket service.  A shard always caches (the
             journal replays into the cache); --no-cache is a stdio-only
             knob. *)
          match
            Service.Shard.create ?journal ~capacity:cache_size ~name:addr
              Service.Runner.default_config
          with
          | Error msg ->
              Fmt.epr "serve: %s@." msg;
              2
          | Ok shard ->
              (match Service.Shard.recovery shard with
              | Some r when r.Service.Journal.replayed <> [] ->
                  Fmt.epr "journal: replayed %d verdicts%s@."
                    (List.length r.Service.Journal.replayed)
                    (if r.Service.Journal.dropped_bytes > 0 then
                       Printf.sprintf " (dropped %d damaged bytes)"
                         r.Service.Journal.dropped_bytes
                     else "")
              | _ -> ());
              let socket = Service.Transport_socket.create () in
              (try
                 Service.Transport_socket.serve socket addr
                   (Service.Shard.handler shard)
               with
              | Invalid_argument msg ->
                  Fmt.epr "serve: %s@." msg;
                  exit 2
              | Unix.Unix_error (e, _, _) ->
                  Fmt.epr "serve: %s: %s@." addr (Unix.error_message e);
                  exit 2);
              start_scrape socket metrics_listen ~health:(fun () ->
                  Service.Shard.health shard);
              serve_until_quit socket (fun () ->
                  Service.Shard.stopping shard);
              Service.Shard.close shard;
              0))

let serve_cmd =
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Long-lived analysis service: read one JSON request per line on \
          stdin, answer one JSON outcome per line on stdout (same schema \
          as $(b,batch)).  $(b,{\"op\": \"stats\"}) reports verdict-cache \
          counters; $(b,{\"op\": \"metrics\"}) the full metrics registry \
          (JSON plus a Prometheus text exposition); $(b,{\"op\": \"quit\"}) \
          ends the session.  With $(b,--listen) the same conversation is \
          served on a socket; with $(b,--route-to) this process routes \
          requests across shard endpoints instead of analyzing locally.  \
          $(b,--metrics-listen) additionally serves the process metrics \
          over HTTP for scraping.")
    Term.(
      const run_serve $ no_cache_arg $ cache_size_arg $ trace_arg
      $ listen_arg $ route_to_arg $ journal_arg
      $ metrics_listen_arg $ log_json_arg)

let run_shard listen journal shard_name cache_size trace metrics_listen
    log_json =
  with_log_json log_json @@ fun () ->
  with_trace trace @@ fun () ->
  let name = Option.value ~default:listen shard_name in
  (* Node names end up in trace-context headers, which are split on
     '/', so slug the address ("unix:/tmp/x.sock" and the like). *)
  Obs.Trace.set_node (Service.Protocol.metric_slug name);
  match
    Service.Shard.create ?journal ~capacity:cache_size ~name
      Service.Runner.default_config
  with
  | Error msg ->
      Fmt.epr "shard: %s@." msg;
      2
  | Ok shard ->
      (match Service.Shard.recovery shard with
      | Some r ->
          Fmt.epr "journal: replayed %d verdicts, %d bytes dropped%s@."
            (List.length r.Service.Journal.replayed)
            r.Service.Journal.dropped_bytes
            (if r.Service.Journal.corrupt then " (CRC mismatch)" else "")
      | None -> ());
      let socket = Service.Transport_socket.create () in
      (try
         Service.Transport_socket.serve socket listen
           (Service.Shard.handler shard)
       with
      | Invalid_argument msg ->
          Fmt.epr "shard: %s@." msg;
          exit 2
      | Unix.Unix_error (e, _, _) ->
          Fmt.epr "shard: %s: %s@." listen (Unix.error_message e);
          exit 2);
      start_scrape socket metrics_listen ~health:(fun () ->
          Service.Shard.health shard);
      serve_until_quit socket (fun () -> Service.Shard.stopping shard);
      Service.Shard.close shard;
      0

let shard_cmd =
  Cmd.v
    (Cmd.info "shard"
       ~doc:
         "Run one owner shard: the full analysis service (runner, \
          scheduler, verdict cache) behind a socket endpoint, with an \
          optional persistent verdict journal.  Usually fronted by \
          $(b,serve --route-to), which sends each shard the slice of the \
          key space it owns; a shard is also a complete standalone \
          service ($(b,batch --connect) can target it directly).")
    Term.(
      const run_shard
      $ Arg.(
          required
          & opt (some string) None
          & info [ "listen" ] ~docv:"ADDR"
              ~doc:"Socket address to serve: unix:PATH or tcp:HOST:PORT.")
      $ journal_arg $ shard_name_arg $ cache_size_arg $ trace_arg $ metrics_listen_arg $ log_json_arg)

(* {1 cluster-stats} *)

(* Pull the {"op": "cluster-stats"} view from a live endpoint (router or
   single shard — the reply shape is the same) and render it as a table:
   one row per shard, then the router's own forwarding counters. *)
let run_cluster_stats addr with_metrics raw =
  let socket = Service.Transport_socket.create () in
  let request =
    Service.Json.to_string
      (Service.Json.Obj
         ([ ("op", Service.Json.String "cluster-stats") ]
         @
         if with_metrics then
           [ ("with_metrics", Service.Json.Bool true) ]
         else []))
  in
  let reply =
    Service.Transport_socket.call socket ~src:"cluster-stats" ~dst:addr
      request
  in
  Service.Transport_socket.stop socket;
  match reply with
  | Error e ->
      Fmt.epr "cluster-stats: %s: %s@." addr
        (Service.Transport.error_message e);
      2
  | Ok line when raw ->
      print_endline line;
      0
  | Ok line -> (
      match Service.Json.parse line with
      | Error msg ->
          Fmt.epr "cluster-stats: bad reply: %s@." msg;
          2
      | Ok json ->
          let open Service.Json in
          let int_of j = Option.value ~default:0 (Option.bind j to_int) in
          let float_of j =
            Option.value ~default:0. (Option.bind j to_float)
          in
          let str_of j =
            Option.value ~default:"-" (Option.bind j to_str)
          in
          let reachable = int_of (member "reachable" json) in
          let shard_count = int_of (member "shard_count" json) in
          Fmt.pr "cluster: %d/%d shards reachable@." reachable shard_count;
          let shards =
            match member "shards" json with Some (Obj kvs) -> kvs | _ -> []
          in
          Fmt.pr "%-28s %5s %7s %9s %7s %12s %9s@." "SHARD" "UP" "QUEUE"
            "HIT%" "CACHE" "JOURNAL(B)" "UPTIME";
          List.iter
            (fun (name, entry) ->
              let up =
                Option.value ~default:false
                  (Option.bind (member "reachable" entry) to_bool)
              in
              if not up then
                Fmt.pr "%-28s %5s %7s %9s %7s %12s %9s  %s@." name "down"
                  "-" "-" "-" "-" "-"
                  (str_of (member "error" entry))
              else
                let h =
                  Option.value ~default:(Obj []) (member "health" entry)
                in
                let cache =
                  Option.value ~default:(Obj []) (member "cache" h)
                in
                let journal_bytes =
                  match member "journal" h with
                  | Some j -> string_of_int (int_of (member "bytes" j))
                  | None -> "-"
                in
                Fmt.pr "%-28s %5s %7.0f %8.1f%% %7d %12s %8.1fs@." name "up"
                  (float_of (member "queue_depth" h))
                  (100. *. float_of (member "hit_ratio" cache))
                  (int_of (member "size" cache))
                  journal_bytes
                  (float_of (member "uptime_s" h)))
            shards;
          (match member "router" json with
          | Some r ->
              Fmt.pr "router %s: %d requests, %d retries, %d failovers@."
                (str_of (member "endpoint" r))
                (int_of (member "requests" r))
                (int_of (member "retries" r))
                (int_of (member "failovers" r))
          | None -> ());
          if reachable < shard_count then 1 else 0)

let cluster_stats_cmd =
  Cmd.v
    (Cmd.info "cluster-stats"
       ~doc:
         "Aggregated cluster health: ask a live endpoint (a $(b,serve \
          --route-to) router, or any single shard) for $(b,{\"op\": \
          \"cluster-stats\"}) and render the merged per-shard view — \
          reachability, queue depth, verdict-cache hit ratio, journal \
          size, uptime — plus the router's forwarding counters.  Exits 1 \
          when some shards are unreachable.")
    Term.(
      const run_cluster_stats
      $ Arg.(
          required
          & opt (some string) None
          & info [ "connect" ] ~docv:"ADDR"
              ~doc:
                "Endpoint to query: $(b,unix:PATH) or $(b,tcp:HOST:PORT).")
      $ Arg.(
          value & flag
          & info [ "metrics" ]
              ~doc:
                "Also collect each shard's full metrics registry (only \
                 visible with $(b,--json)).")
      $ Arg.(
          value & flag
          & info [ "json" ] ~doc:"Print the raw JSON reply, not the table."))

(* {1 trace-merge} *)

let run_trace_merge out inputs =
  match Obs.Trace_merge.merge_files ~out inputs with
  | nproc, nevents ->
      Fmt.epr "trace-merge: %d processes, %d events -> %s@." nproc nevents
        out;
      0
  | exception Obs.Trace_merge.Parse_error msg ->
      Fmt.epr "trace-merge: %s@." msg;
      2
  | exception Sys_error msg ->
      Fmt.epr "trace-merge: %s@." msg;
      2

let trace_merge_cmd =
  Cmd.v
    (Cmd.info "trace-merge"
       ~doc:
         "Merge per-process $(b,--trace) files (client, router, shards) \
          into one Chrome/Perfetto trace: one named process track per \
          input, timestamps aligned on the recorded wall-clock epochs, \
          spans linked across processes by their trace/span ids.")
    Term.(
      const run_trace_merge
      $ Arg.(
          value
          & opt string "trace-merged.json"
          & info [ "o"; "output" ] ~docv:"OUT"
              ~doc:"Merged trace output file.")
      $ Arg.(
          non_empty
          & pos_all file []
          & info [] ~docv:"TRACE" ~doc:"Per-process trace JSON files."))

(* {1 main} *)

let main =
  Cmd.group
    (Cmd.info "aadl_sched" ~version:Version.version
       ~doc:
         "Schedulability analysis of AADL models by translation to the \
          real-time process algebra ACSR (Sokolsky, Lee, Clarke; IPDPS \
          2006).")
    [
      check_cmd;
      info_cmd;
      translate_cmd;
      analyze_cmd;
      simulate_cmd;
      latency_cmd;
      acsr_cmd;
      report_cmd;
      sensitivity_cmd;
      batch_cmd;
      serve_cmd;
      shard_cmd;
      cluster_stats_cmd;
      trace_merge_cmd;
    ]

let () = exit (Cmd.eval' main)
