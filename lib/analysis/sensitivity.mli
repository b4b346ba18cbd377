(** Sensitivity analysis: the breakdown execution time of a thread — the
    largest cet that keeps the whole system schedulable — found by binary
    search over exploration verdicts.

    Probes are incremental: all points of a search or sweep share one
    {!Translate.Fragment_cache}, so each point re-generates only the
    perturbed thread's fragment and reuses every other translation unit
    (reported by the per-point and aggregate reuse counters). *)

type point = {
  cet : int;
  schedulable : bool;
  fragments_reused : int;
  fragments_rebuilt : int;
}

type t = {
  thread : string list;
  original_cmax : int;
  breakdown_cmax : int option;
  slack : int option;
  probes : int;
  fragments_reused : int;
  fragments_rebuilt : int;
}

type options = {
  schedulability : Schedulability.options;
  max_cmax : int option;
}

val default_options : options

val with_cet :
  quantum:Aadl.Time.t ->
  thread:string list ->
  cet:int ->
  Aadl.Instance.t ->
  Aadl.Instance.t
(** A copy of the instance tree with the thread's
    [Compute_Execution_Time] overridden to [cet] quanta. *)

val sweep :
  ?options:options ->
  thread:string list ->
  cets:int list ->
  Aadl.Instance.t ->
  point list
(** One verdict per requested cet, in order, re-translating only what
    each perturbation touched.
    @raise Aadl.Diag.Error when a probe is inconclusive (a state or time
    budget ran out before the verdict was known). *)

val breakdown :
  ?options:options -> thread:string list -> Aadl.Instance.t -> t
(** The largest cet that keeps the system schedulable, by binary search.
    @raise Aadl.Diag.Error when a probe is inconclusive. *)

val pp : t Fmt.t

val pp_reuse : t Fmt.t
(** ["N probes: N fragments rebuilt, N reused"]. *)

val pp_point : point Fmt.t
