(** The content-hashed intermediate representation of the translation.

    One fragment per translation unit of the paper's Algorithm 1 — a
    thread's skeleton + dispatcher, a connection's queue process, a
    device stimulus, the mode manager, or a latency observer (Section
    5) — carrying its ACSR
    definitions, initial processes, the labels to restrict at the system
    level, the name-registry entries mapping its generated names back to
    AADL, and a stable digest of exactly the instance slice and derived
    parameters it was computed from.

    [plan] derives the fragment {e specs} (ids, digests, and generation
    thunks) without generating any ACSR; {!Pipeline.of_plan} then
    realizes them — through a {!Fragment_cache} when incremental reuse
    is wanted — and composes the system.  Digest-equal specs generate
    structurally equal fragments. *)

open Acsr

(** {1 Translation options} (re-exported by [Pipeline]) *)

type observer = {
  from_thread : string list;
  to_thread : string list;
  bound : Aadl.Time.t;
}
(** A latency observer (paper, Section 5): measure from each dispatch of
    [from_thread] to the next completion of [to_thread], and deadlock
    when [bound] (floored to quanta) passes first. *)

type options = {
  quantum : Aadl.Time.t option;
  force_protocol : Aadl.Props.scheduling_protocol option;
  observer : observer option;
}

val default_options : options

(** {1 Fragments} *)

type kind = Thread_unit | Queue | Stimulus | Modal_manager | Observer

type t = {
  kind : kind;
  id : string;  (** stable unit identity, e.g. ["thread:proc.t1"] *)
  digest : string;
      (** MD5 hex over every input the generation read; equal digests
          mean interchangeable fragments *)
  sym_digest : string;
      (** the digest with the unit's own identity (its resolved path)
          masked out: thread fragments with equal symmetry digests are
          candidates for orbit merging ([Pipeline] verifies the claim
          structurally before building a {!Acsr.Symmetry.spec}) *)
  cacheable : bool;
      (** the mode manager is regenerated each plan and never cached *)
  defs : (string * string list * Proc.t) list;
  initials : Proc.t list;
  restricted : Label.t list;
  entries : (string * Naming.meaning) list;
}

type spec
(** A planned-but-not-yet-generated fragment: id + digest + thunk. *)

type plan = {
  root : Aadl.Instance.t;
  workload : Workload.t;
  assignments : (string list * Sched_policy.assignment list) list;
  specs : spec list;  (** in composition order *)
}

val plan : ?options:options -> Aadl.Instance.t -> plan
(** Check the model and derive one spec per translation unit, claiming
    collision-proofed names ({!Naming.scope}) in deterministic model
    order.  With an [observer], the thread units of its endpoints fire
    the probes [flow_start] (after the dispatch of [from_thread]) and
    [flow_end] (after the completion of [to_thread]), and one
    [Observer] unit comes last: its initial process is [Obs_flow], and
    it asks the composition to restrict both probe labels.  Without
    one, no unit fires a probe.
    @raise Aadl.Diag.Error when the model is untranslatable, an
    observer endpoint is not a thread of the model, or its bound is
    below one quantum. *)

val spec_id : spec -> string
val spec_digest : spec -> string

val spec_cacheable : spec -> bool
(** Whether a {!Fragment_cache} may reuse this spec's realization across
    translations; [false] for whole-model constructs (the modal
    manager), which are regenerated per plan. *)

val realize : spec -> t
(** Generate the fragment's ACSR terms.  @raise Aadl.Diag.Error on generation
    failures (e.g. an event-driven thread without incoming
    connections). *)

val digests : plan -> (string * string) list
(** [(id, digest)] per spec, sorted by id — the leaves of the service
    layer's Merkle cache key. *)

val observer_waited : Proc.t -> int option
(** The wait counter of the observer in a state term of a composition
    with one: [Some k] while it times a flow instance that started [k]
    quanta ago, [None] while it is idle or when there is no observer.
    A deadlock with [Some bound] is the observer's own: the bound passed
    before the flow completed.  Any other deadlock is a missed
    deadline. *)
