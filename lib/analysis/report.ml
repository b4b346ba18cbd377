(* A self-contained markdown report of a full analysis: model inventory,
   per-processor utilization, the exploration verdict with its failing
   scenario, the classical baselines, and (optionally) observed response
   times.  This is the batch-friendly face of the OSATE-plugin work-flow
   the paper describes: one command, one artifact. *)

type options = {
  schedulability : Schedulability.options;
  with_responses : bool;
      (** also compute observed worst-case response times (one binary
          search of explorations per thread) *)
  title : string option;
}

let default_options =
  {
    schedulability = Schedulability.default_options;
    with_responses = false;
    title = None;
  }

let pf = Fmt.pf

let section ppf title = pf ppf "@.## %s@.@." title

let model_summary ppf (root : Aadl.Instance.t) =
  section ppf "Model";
  let count f = List.length (f root) in
  pf ppf "| component | count |@.|---|---|@.";
  pf ppf "| threads | %d |@." (count Aadl.Instance.threads);
  pf ppf "| processors | %d |@." (count Aadl.Instance.processors);
  pf ppf "| buses | %d |@." (count Aadl.Instance.buses);
  pf ppf "| devices | %d |@." (count Aadl.Instance.devices);
  pf ppf "| shared data | %d |@." (count Aadl.Instance.data_components);
  let sconns = Aadl.Semconn.resolve root in
  pf ppf "| semantic connections | %d |@." (List.length sconns);
  if Aadl.Instance.is_modal root then
    pf ppf "| modes | %d |@." (List.length root.Aadl.Instance.modes)

let task_table ppf (wl : Translate.Workload.t) =
  section ppf "Threads";
  pf ppf
    "| thread | dispatch | period | cet | deadline | processor |@.|---|---|---|---|---|---|@.";
  List.iter
    (fun (t : Translate.Workload.task) ->
      pf ppf "| %a | %a | %a | %s | %d | %a |@." Aadl.Instance.pp_path
        t.Translate.Workload.path Aadl.Props.pp_dispatch_protocol
        t.Translate.Workload.dispatch
        Fmt.(option ~none:(any "-") int)
        t.Translate.Workload.period
        (if t.Translate.Workload.cmin = t.Translate.Workload.cmax then
           string_of_int t.Translate.Workload.cmax
         else
           Printf.sprintf "[%d,%d]" t.Translate.Workload.cmin
             t.Translate.Workload.cmax)
        t.Translate.Workload.deadline Aadl.Instance.pp_path
        t.Translate.Workload.processor)
    wl.Translate.Workload.tasks;
  pf ppf "@.(durations in quanta of %a)@." Aadl.Time.pp
    wl.Translate.Workload.quantum

let processors ppf (wl : Translate.Workload.t) =
  section ppf "Processors";
  pf ppf "| processor | threads | U | RM bound | EDF demand |@.|---|---|---|---|---|@.";
  List.iter
    (fun ((proc : Aadl.Instance.t), tasks) ->
      let u = Translate.Workload.utilization tasks in
      let rm = Utilization.rate_monotonic tasks in
      let dem = Edf_demand.analyze tasks in
      pf ppf "| %a | %d | %.3f | %a | %s |@." Aadl.Instance.pp_path
        proc.Aadl.Instance.path (List.length tasks) u
        Utilization.pp_verdict rm.Utilization.verdict
        (if not dem.Edf_demand.applicable then "n/a"
         else if dem.Edf_demand.schedulable then "schedulable"
         else "overloaded"))
    wl.Translate.Workload.by_processor

let verdict ppf (result : Schedulability.t) =
  section ppf "Schedulability (ACSR exploration)";
  pf ppf "translation: %a@.@." Translate.Pipeline.pp_summary
    result.Schedulability.translation;
  pf ppf "state space: %a in %.3fs@.@." Versa.Lts.pp_summary
    result.Schedulability.exploration.Versa.Explorer.lts
    result.Schedulability.exploration.Versa.Explorer.elapsed;
  match result.Schedulability.verdict with
  | Schedulability.Schedulable ->
      pf ppf "**Verdict: schedulable** — every deadline is met on every path.@."
  | Schedulability.Not_schedulable { scenario; _ } ->
      pf ppf "**Verdict: NOT schedulable** — violation at t=%d.@.@."
        scenario.Raise_trace.violation_time;
      pf ppf "Failing scenario:@.@.```@.%a@.```@." Raise_trace.pp scenario
  | Schedulability.Inconclusive why ->
      pf ppf "**Verdict: inconclusive** — %s.@." why

let baselines ppf protocol_of (wl : Translate.Workload.t) =
  section ppf "Classical baselines";
  List.iter
    (fun ((proc : Aadl.Instance.t), tasks) ->
      pf ppf "### %a@.@." Aadl.Instance.pp_path proc.Aadl.Instance.path;
      match protocol_of proc with
      | None -> pf ppf "(no scheduling protocol)@."
      | Some protocol -> (
          pf ppf "```@.%a@.```@.@." Rta.pp (Rta.analyze ~protocol tasks);
          match Simulator.simulate ~protocol tasks with
          | sim -> pf ppf "```@.simulation: %a@.```@." Simulator.pp sim
          | exception Simulator.Not_simulable why ->
              pf ppf "simulation: n/a (%s)@." why))
    wl.Translate.Workload.by_processor

let responses ppf ~options (root : Aadl.Instance.t)
    (wl : Translate.Workload.t) =
  section ppf "Observed worst-case response times";
  pf ppf "| thread | observed | deadline |@.|---|---|---|@.";
  List.iter
    (fun (t : Translate.Workload.task) ->
      match
        Response.worst_response ~options:options.schedulability
          ~thread:t.Translate.Workload.path root
      with
      | r ->
          pf ppf "| %a | %a | %d |@." Aadl.Instance.pp_path
            t.Translate.Workload.path
            Fmt.(option ~none:(any "misses deadline") int)
            r.Response.response t.Translate.Workload.deadline
      | exception Aadl.Diag.Error d ->
          pf ppf "| %a | error: %s | %d |@." Aadl.Instance.pp_path
            t.Translate.Workload.path d.message t.Translate.Workload.deadline)
    wl.Translate.Workload.tasks

let generate ?(options = default_options) (root : Aadl.Instance.t) : string =
  let buf = Buffer.create 4096 in
  let ppf = Fmt.with_buffer buf in
  let result =
    Schedulability.analyze ~options:options.schedulability root
  in
  let wl =
    result.Schedulability.translation.Translate.Pipeline.workload
  in
  pf ppf "# %s@."
    (Option.value options.title ~default:"Schedulability analysis report");
  model_summary ppf root;
  task_table ppf wl;
  processors ppf wl;
  verdict ppf result;
  let protocol_of (proc : Aadl.Instance.t) =
    match
      options.schedulability.Schedulability.translation_options
        .Translate.Pipeline.force_protocol
    with
    | Some p -> Some p
    | None -> Aadl.Props.scheduling_protocol proc.Aadl.Instance.props
  in
  baselines ppf protocol_of wl;
  if options.with_responses then responses ppf ~options root wl;
  Fmt.flush ppf ();
  Buffer.contents buf

let write_file ?options path root =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc (generate ?options root))
