(* The top-level schedulability analysis of AADL models: translate to
   ACSR, explore the prioritized state space, and report the verdict,
   raising failing scenarios back to AADL terms (paper, Section 5:
   "the resulting ACSR model is deadlock-free if and only if every task
   meets its deadline"). *)

type verdict =
  | Schedulable
  | Not_schedulable of {
      scenario : Raise_trace.t;
      trace : Versa.Trace.t;
    }
  | Inconclusive of string

type t = {
  translation : Translate.Pipeline.t;
  exploration : Versa.Explorer.result;
  verdict : verdict;
}

type options = {
  translation_options : Translate.Pipeline.options;
  max_states : int;
  all_violations : bool;
      (** explore exhaustively instead of stopping at the first deadlock *)
  jobs : int;  (** domains for parallel successor computation *)
  deadline : float option;
      (** absolute wall-clock budget for the exploration
          ({!Versa.Lts.build_config}); past it the verdict is
          [Inconclusive] and callers may degrade to analytic passes
          ({!Fallback}) *)
  poll : (unit -> bool) option;
      (** cooperative cancellation hook threaded into the exploration *)
  symmetry : bool;
      (** orbit reduction: canonicalize states up to permutation of
          interchangeable thread units before the visited-set lookup
          (default [true]).  Auto-off when the translation found no
          interchangeable units ([Pipeline.symmetry] is empty), so it
          never costs anything on asymmetric models.  Verdicts and
          scenario lengths are identical either way; only visited-state
          counts shrink. *)
}

let default_options =
  {
    translation_options = Translate.Pipeline.default_options;
    max_states = 2_000_000;
    all_violations = false;
    jobs = 1;
    deadline = None;
    poll = None;
    symmetry = true;
  }

let analyze_translation ~options (tr : Translate.Pipeline.t) : t =
  let symmetry =
    if options.symmetry then tr.Translate.Pipeline.symmetry
    else Acsr.Symmetry.empty
  in
  let exploration =
    Versa.Explorer.check_deadlock ~max_states:options.max_states
      ~stop_at_deadlock:(not options.all_violations)
      ~jobs:options.jobs ?deadline:options.deadline ?poll:options.poll
      ~symmetry tr.Translate.Pipeline.defs tr.Translate.Pipeline.system
  in
  let verdict =
    match exploration.Versa.Explorer.verdict with
    | Versa.Explorer.Deadlock_free -> Schedulable
    | Versa.Explorer.Deadlock { trace; _ } ->
        Not_schedulable
          {
            scenario =
              Raise_trace.raise_trace
                ~registry:tr.Translate.Pipeline.registry trace;
            trace;
          }
    | Versa.Explorer.Inconclusive reason -> Inconclusive reason
  in
  { translation = tr; exploration; verdict }

let analyze ?(options = default_options) (root : Aadl.Instance.t) : t =
  let tr =
    Translate.Pipeline.translate ~options:options.translation_options root
  in
  analyze_translation ~options tr

let is_schedulable t =
  match t.verdict with
  | Schedulable -> true
  | Not_schedulable _ | Inconclusive _ -> false

(* All deadline-violation scenarios of an exhaustive exploration, one per
   deadlock state.  The exploration retains enough to rebuild every
   shortest counterexample path. *)
let all_scenarios t =
  List.map
    (fun state ->
      Raise_trace.raise_trace ~registry:t.translation.Translate.Pipeline.registry
        (Versa.Trace.to_deadlock t.exploration.Versa.Explorer.lts state))
    (Versa.Explorer.deadlocks t.exploration)

let pp_verdict ppf = function
  | Schedulable -> Fmt.string ppf "schedulable: all deadlines are met"
  | Not_schedulable { scenario; _ } ->
      Fmt.pf ppf
        "@[<v>NOT schedulable: timing violation at t=%d; failing \
         scenario:@,%a@]"
        scenario.Raise_trace.violation_time Raise_trace.pp scenario
  | Inconclusive reason -> Fmt.pf ppf "inconclusive: %s" reason

let pp ppf t =
  Fmt.pf ppf "@[<v>%a@,state space: %a (%.3fs)@,%a@]"
    Translate.Pipeline.pp_summary t.translation Versa.Lts.pp_summary
    t.exploration.Versa.Explorer.lts t.exploration.Versa.Explorer.elapsed
    pp_verdict t.verdict
