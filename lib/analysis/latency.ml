(* End-to-end latency analysis via observer processes (paper, Section 5).

   The observer is one more unit of the translation
   ([Translate.Fragment], "The latency observer"): the translated model
   with the observer is deadlock-free iff every flow instance completes
   within the bound and every thread meets its deadline.  So a latency
   check is a schedulability analysis of that composition, and the
   observer's slot in the deadlock state tells which of the two failed:
   waiting at the bound, the observer is the one refusing time. *)

type verdict =
  | Latency_met
  | Latency_violated of { scenario : Raise_trace.t; trace : Versa.Trace.t }
  | Deadline_missed of { scenario : Raise_trace.t; trace : Versa.Trace.t }
  | Latency_inconclusive of string

type t = {
  verdict : verdict;
  bound : int;  (** quanta *)
  analysis : Schedulability.t;
}

let observer_expired (analysis : Schedulability.t) ~bound =
  let exploration = analysis.Schedulability.exploration in
  match exploration.Versa.Explorer.verdict with
  | Versa.Explorer.Deadlock { state; _ } ->
      Translate.Fragment.observer_waited
        (Versa.Lts.term exploration.Versa.Explorer.lts state)
      = Some bound
  | Versa.Explorer.Deadlock_free | Versa.Explorer.Inconclusive _ -> false

let check ?(options = Schedulability.default_options) ~(from_thread : string list)
    ~(to_thread : string list) ~(bound : Aadl.Time.t)
    (root : Aadl.Instance.t) : t =
  let observer = Some { Translate.Pipeline.from_thread; to_thread; bound } in
  let options =
    {
      options with
      Schedulability.translation_options =
        { options.Schedulability.translation_options with observer };
    }
  in
  let analysis = Schedulability.analyze ~options root in
  let quantum =
    analysis.Schedulability.translation.Translate.Pipeline.workload
      .Translate.Workload.quantum
  in
  let bound = Aadl.Time.to_quanta_floor ~quantum bound in
  let verdict =
    match analysis.Schedulability.verdict with
    | Schedulability.Schedulable -> Latency_met
    | Schedulability.Not_schedulable { scenario; trace } ->
        if observer_expired analysis ~bound then
          Latency_violated { scenario; trace }
        else Deadline_missed { scenario; trace }
    | Schedulability.Inconclusive reason -> Latency_inconclusive reason
  in
  { verdict; bound; analysis }

let pp_verdict ppf = function
  | Latency_met -> Fmt.string ppf "latency bound met on every path"
  | Latency_violated { scenario; _ } ->
      Fmt.pf ppf "@[<v>latency VIOLATED; scenario:@,%a@]" Raise_trace.pp
        scenario
  | Deadline_missed { scenario; _ } ->
      Fmt.pf ppf
        "@[<v>deadline MISSED at t=%d, before the latency bound; \
         scenario:@,%a@]"
        scenario.Raise_trace.violation_time Raise_trace.pp scenario
  | Latency_inconclusive reason -> Fmt.pf ppf "inconclusive: %s" reason

let pp ppf t =
  Fmt.pf ppf "@[<v>bound=%d quanta: %a@]" t.bound pp_verdict t.verdict
