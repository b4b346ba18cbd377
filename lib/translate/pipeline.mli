(** AADL-to-ACSR translation (paper, Algorithm 1), as plan -> realize ->
    compose over the fragment IR ({!Fragment}). *)

open Acsr

type t = {
  workload : Workload.t;
  defs : Defs.t;
  system : Proc.t;
  registry : Naming.registry;
  restricted : Label.Set.t;
  assignments : (string list * Sched_policy.assignment list) list;
  fragments : Fragment.t list;
      (** the realized translation units, in composition order *)
  fragments_reused : int;
      (** how many of them came out of the {!Fragment_cache} *)
  symmetry : Symmetry.spec;
      (** orbit classes of interchangeable thread units over the
          composition's parallel slots, for {!Versa.Lts}'s symmetry
          reduction: thread fragments whose inputs are identical up to
          their own identity (equal [sym_digest]s, then verified by
          structural equality under a positional renaming of generated
          names) are interchangeable.  {!Acsr.Symmetry.empty} when no two
          units qualify — e.g. under Rate/Deadline-Monotonic assignment,
          where tie-broken static priorities distinguish otherwise
          identical threads. *)
  num_thread_processes : int;
  num_dispatchers : int;
  num_queues : int;
  num_stimuli : int;
}

type observer = Fragment.observer = {
  from_thread : string list;
  to_thread : string list;
  bound : Aadl.Time.t;
}

type options = Fragment.options = {
  quantum : Aadl.Time.t option;
      (** scheduling quantum; default {!Workload.suggest_quantum} *)
  force_protocol : Aadl.Props.scheduling_protocol option;
      (** override every processor's Scheduling_Protocol (for policy
          comparisons) *)
  observer : observer option;
      (** a latency observer composed as one more unit, under the same
          restriction as the others (default none) *)
}

val default_options : options

val plan : ?options:options -> Aadl.Instance.t -> Fragment.plan
(** Check the model and derive its fragment specs without generating any
    ACSR; cheap enough to run per request (the service layer keys its
    verdict cache on the plan's digests).
    @raise Aadl.Diag.Error when the model violates the translation preconditions. *)

val of_plan : ?cache:Fragment_cache.t -> Fragment.plan -> t
(** Realize every spec — reusing digest-identical fragments from [cache]
    when given — and compose the closed system.  The composition is
    independent of cache hits: reused fragments are physically equal to
    what regeneration would have produced. *)

val translate : ?options:options -> ?cache:Fragment_cache.t -> Aadl.Instance.t -> t
(** [of_plan ?cache (plan ~options root)].  The result's [system] is the
    closed parallel composition of thread skeletons, dispatchers, queues
    and stimuli, restricted over all generated labels: it is deadlock-free
    iff the model meets all its deadlines.
    @raise Aadl.Diag.Error when the model violates the translation preconditions. *)

val pp_summary : t Fmt.t
