(** The content-hashed intermediate representation of the translation.

    One fragment per translation unit of the paper's Algorithm 1 — a
    thread's skeleton + dispatcher, a connection's queue process, a
    device stimulus, or the mode manager — carrying its ACSR
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

type probe_point = Dispatched | Completed

type probe = {
  probe_thread : string list;
  probe_point : probe_point;
  probe_label : Label.t;
}

type options = {
  quantum : Aadl.Time.t option;
  force_protocol : Aadl.Props.scheduling_protocol option;
  probes : probe list;
}

val default_options : options
val probes_for : options -> string list -> probe_point -> Label.t list

(** {1 Fragments} *)

type kind = Thread_unit | Queue | Stimulus | Modal_manager

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
    order.  @raise Aadl.Diag.Error when the model is untranslatable. *)

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
