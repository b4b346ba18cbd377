(* End-to-end latency analysis via observer processes (paper, Section 5).

   An observer is "triggered by an input event and, just like a dispatcher
   process, deadlocks if the output event is not observed by the flow
   deadline".  We realize the trigger and target as probe events injected
   into the translated model: the dispatch of the flow's first thread and
   the completion of its last thread.  The observer is composed in
   parallel and the probe labels are restricted, forcing it to see every
   occurrence.

   The observer is non-pipelined: while a flow instance is being tracked,
   further triggers are absorbed without starting a new measurement (the
   paper notes pipelined flows need dynamically spawned observers). *)

open Acsr

type verdict =
  | Latency_met
  | Latency_violated of { scenario : Raise_trace.t; trace : Versa.Trace.t }
  | Latency_inconclusive of string

type t = {
  verdict : verdict;
  bound : int;  (** quanta *)
  exploration : Versa.Explorer.result;
}

let observer_name = "Obs_flow"
let observer_wait = "Obs_flow_wait"

(* Obs       = start?.Wait(0) + end?.Obs + {}:Obs
   Wait(k)   = end?.Obs + start?.Wait(k) + [k < L] {}:Wait(k+1)
   At k = L with the end event unavailable the observer refuses to let
   time pass: a deadlock, reported as the latency violation. *)
let observer_defs ~start_l ~end_l ~bound =
  let var_k = Expr.Var "k" in
  let idle_to k = Proc.act Action.idle k in
  let main_body =
    Proc.choice_list
      [
        Proc.receive start_l (Proc.call observer_wait [ Expr.Int 0 ]);
        Proc.receive end_l (Proc.call observer_name []);
        idle_to (Proc.call observer_name []);
      ]
  in
  let wait_body =
    Proc.choice_list
      [
        Proc.receive end_l (Proc.call observer_name []);
        Proc.receive start_l (Proc.call observer_wait [ var_k ]);
        Proc.if_
          Guard.(lt var_k (Expr.Int bound))
          (idle_to (Proc.call observer_wait [ Expr.Add (var_k, Expr.Int 1) ]));
      ]
  in
  [ (observer_name, [], main_body); (observer_wait, [ "k" ], wait_body) ]

type options = {
  translation_options : Translate.Pipeline.options;
  max_states : int;
  jobs : int;  (** domains for parallel exploration *)
}

let default_options =
  {
    translation_options = Translate.Pipeline.default_options;
    max_states = 2_000_000;
    jobs = 1;
  }

exception Error of string

let check ?(options = default_options) ~(from_thread : string list)
    ~(to_thread : string list) ~(bound : Aadl.Time.t)
    (root : Aadl.Instance.t) : t =
  let start_l = Label.make "flow_start" in
  let end_l = Label.make "flow_end" in
  let probes =
    [
      {
        Translate.Pipeline.probe_thread = from_thread;
        probe_point = Translate.Pipeline.Dispatched;
        probe_label = start_l;
      };
      {
        Translate.Pipeline.probe_thread = to_thread;
        probe_point = Translate.Pipeline.Completed;
        probe_label = end_l;
      };
    ]
  in
  let t_options =
    { options.translation_options with Translate.Pipeline.probes }
  in
  let tr = Translate.Pipeline.translate ~options:t_options root in
  let quantum = tr.Translate.Pipeline.workload.Translate.Workload.quantum in
  let bound_q = Aadl.Time.to_quanta_floor ~quantum bound in
  if bound_q <= 0 then
    raise (Error "latency bound is smaller than the scheduling quantum");
  (* verify the probes were actually attached *)
  (match
     ( Translate.Workload.find_task tr.Translate.Pipeline.workload from_thread,
       Translate.Workload.find_task tr.Translate.Pipeline.workload to_thread )
   with
  | Some _, Some _ -> ()
  | None, _ ->
      raise
        (Error
           (Fmt.str "no thread %a in the model" Aadl.Instance.pp_path
              from_thread))
  | _, None ->
      raise
        (Error
           (Fmt.str "no thread %a in the model" Aadl.Instance.pp_path
              to_thread)));
  let defs =
    List.fold_left
      (fun env (name, formals, body) -> Defs.add env ~name ~formals body)
      tr.Translate.Pipeline.defs
      (observer_defs ~start_l ~end_l ~bound:bound_q)
  in
  let system =
    Proc.restrict
      (Label.Set.of_list [ start_l; end_l ])
      (Proc.par tr.Translate.Pipeline.system (Proc.call observer_name []))
  in
  (* The observer question is plain reachability of the deadlocked
     observer state: no caller walks the graph afterwards
     ([Response.worst_response] bisects over verdicts only), so no
     successor rows are kept. *)
  let exploration =
    Versa.Explorer.check_deadlock ~max_states:options.max_states
      ~jobs:options.jobs defs system
  in
  let verdict =
    match exploration.Versa.Explorer.verdict with
    | Versa.Explorer.Deadlock_free -> Latency_met
    | Versa.Explorer.Deadlock { trace; _ } ->
        Latency_violated
          {
            scenario =
              Raise_trace.raise_trace
                ~registry:tr.Translate.Pipeline.registry trace;
            trace;
          }
    | Versa.Explorer.Inconclusive reason -> Latency_inconclusive reason
  in
  { verdict; bound = bound_q; exploration }

let pp_verdict ppf = function
  | Latency_met -> Fmt.string ppf "latency bound met on every path"
  | Latency_violated { scenario; _ } ->
      Fmt.pf ppf "@[<v>latency VIOLATED; scenario:@,%a@]" Raise_trace.pp
        scenario
  | Latency_inconclusive reason -> Fmt.pf ppf "inconclusive: %s" reason

let pp ppf t =
  Fmt.pf ppf "@[<v>bound=%d quanta: %a@]" t.bound pp_verdict t.verdict
