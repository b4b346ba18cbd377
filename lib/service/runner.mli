(** Execution of a single analysis job: load, plan, cache lookup,
    exploration under budget, graceful degradation, cache fill.

    The runner is the sequential heart of the service layer — the
    {!Scheduler} calls it from worker domains, the [batch] and [serve]
    CLI subcommands call it through the scheduler.  Every failure mode
    is folded into the outcome ([Failed]/[Cancelled]/degraded verdicts);
    [run] never raises and never hangs past the job's wall-clock
    budget.

    Caching is two-layered and plan-based.  The translation {e plan}
    ({!Translate.Pipeline.plan}) is built once per job; its fragment
    digests form the Merkle verdict-cache key ({!Key.of_plan}), and on a
    miss the same plan is realized through a shared
    {!Translate.Fragment_cache} so translation units unchanged since any
    earlier job are reused by physical identity.  Misses are {e
    attributed}: each missed key is diffed against the previous key of
    the same structure digest, counting the changed fragment ids — a
    batch's miss profile names the components that kept changing. *)

type attribution
(** Mutable, mutex-protected miss-attribution state, shared by every
    worker using the same config. *)

type attribution_counters = {
  novel : int;  (** misses with no predecessor of the same structure *)
  options_only : int;
      (** misses where every fragment matched — only analysis options
          differed *)
  changed_components : (string * int) list;
      (** fragment id -> number of misses it contributed to; sorted by
          count (descending), then id *)
}

type config = {
  cache : Job.outcome Lru.t option;
      (** shared verdict cache; [None] disables caching *)
  fragments : Translate.Fragment_cache.t option;
      (** shared translation-fragment cache; [None] re-generates every
          fragment per job *)
  attribution : attribution option;
      (** miss-attribution state; [None] disables attribution *)
  on_store : (string -> Job.outcome -> unit) option;
      (** called with [(merkle key, outcome)] right after an outcome is
          stored in the cache — the hook the {!Journal} persists
          through.  Runs on the worker that computed the job, inside
          nothing but the job itself (the cache lease is already
          released), so it may do I/O. *)
}

val default_config : config
(** No caches, no attribution. *)

val with_cache : ?capacity:int -> config -> config
(** [default: 256] — attach a fresh verdict cache, a fresh fragment
    cache, and fresh miss-attribution state.  The attribution remembers
    at most [capacity] structures and counts at most [capacity]
    fragment ids, dropping the entries written longest ago. *)

val attribute : config -> Key.t -> unit
(** Attribute a verdict-cache miss of [key] against the last key of its
    structure, as {!run} does on every miss; nothing without
    attribution. *)

val attribution_sizes : config -> int * int
(** Entries the miss-attribution state holds: structures remembered,
    fragment ids counted; [(0, 0)] without attribution. *)

val attribution_counters : config -> attribution_counters
(** Snapshot of the config's miss-attribution counters; all zero/empty
    when attribution is disabled. *)

val pp_attribution : attribution_counters Fmt.t
(** ["N novel, N options-only; changed: id (n), ..."]. *)

val load : Job.request -> Aadl.Instance.t
(** Load and instantiate the request's model — inline text, [.aadl]
    file, or instance [.xml] — without running anything.  Raises the
    load/parse errors that {!run} folds into [Failed] outcomes; the
    {!Router} uses this to compute routing keys. *)

val run : ?cancel:(unit -> bool) -> config -> Job.request -> Job.outcome
(** Run one job to completion:

    + load and instantiate the model, then build the translation plan
      ([Failed] on any load or translation error);
    + look the plan's Merkle {!Key} up in the cache — a hit returns the
      stored outcome (verdict {e and} raised scenario) with
      [cached = true], skipping exploration entirely; lookups are
      single-flight ({!Lru.find_or_lease}), so concurrent duplicates
      wait for the first computation and then hit, at any worker count;
      misses are attributed to the fragments that changed;
    + realize the plan through the shared fragment cache and explore
      with the request's state budget, wall-clock budget (deadline
      [now + timeout_s]) and [cancel] polled before every expansion;
    + on a truncated exploration, degrade: [Cancelled] if [cancel]
      fired, otherwise the {!Fallback} analytic ladder produces a
      qualified [Bounded] or [Unknown] verdict ([degraded = true]);
    + store every exact or degraded outcome back in the cache
      ([Cancelled]/[Failed] outcomes are not cached).

    [File] paths are used as given; resolve them against a manifest
    directory before calling if needed. *)
