(** Top-level schedulability analysis: translate, explore, report (paper,
    Section 5). *)

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
  deadline : float option;
      (** absolute wall-clock budget (ambient [Timed.Clock] scale,
          default none): past it the exploration truncates and the verdict is
          [Inconclusive "wall-clock budget expired …"] — the hook the
          service layer's graceful degradation builds on *)
  poll : (unit -> bool) option;
      (** cooperative cancellation hook, checked before every
          expansion of the exploration (default none) *)
  symmetry : bool;
      (** orbit reduction (default [true]): explore one representative
          per permutation orbit of interchangeable thread units
          ({!Translate.Pipeline.t.symmetry}).  Auto-off when the model
          has no interchangeable units.  Verdicts, scenario contents and
          lengths are unaffected; visited-state counts shrink — see the
          symmetry section of {!Versa.Lts}. *)
}

val default_options : options

val analyze : ?options:options -> Aadl.Instance.t -> t
(** Translate and explore.  The model is schedulable iff the prioritized
    state space of the translation is deadlock-free. *)

val analyze_translation : options:options -> Translate.Pipeline.t -> t
(** Analyze an existing translation (e.g. with forced protocol). *)

val is_schedulable : t -> bool

val all_scenarios : t -> Raise_trace.t list
(** Every violation of an exhaustive ([all_violations]) exploration. *)

val pp_verdict : verdict Fmt.t
val pp : t Fmt.t
