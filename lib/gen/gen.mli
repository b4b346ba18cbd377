(** Reference AADL models and synthetic workload generation.

    The fixtures reconstruct the systems discussed in the paper (the
    Fig. 1 cruise control, event-driven chains, shared data, modes,
    hierarchical groups) and drive the test suites, examples and the
    benchmark harness. *)

(** {1 Synthetic periodic task sets} *)

type periodic_spec = {
  name : string;
  period_ms : int;
  cet_min_ms : int;
  cet_max_ms : int;
  deadline_ms : int;
}

val periodic_system :
  ?protocol:Aadl.Props.scheduling_protocol -> periodic_spec list -> string
(** A single-processor textual AADL model with the given periodic
    threads, all bound and fully attributed. *)

val simple_spec :
  name:string ->
  period_ms:int ->
  cet_ms:int ->
  ?deadline_ms:int ->
  unit ->
  periodic_spec
(** A deterministic-cet spec; deadline defaults to the period. *)

val replicated_family :
  ?protocol:Aadl.Props.scheduling_protocol ->
  threads:int ->
  utilization:float ->
  unit ->
  string
(** A family of [threads] indistinguishable unit-cet periodic threads at
    total utilization ~[utilization]: one shared period
    [round(threads/utilization)] (clamped to >= 2), deadline = period.
    Under the default [Edf] protocol the threads are identical up to
    renaming, so the translation's symmetry detection groups all of them
    into one orbit class — the parametric fixture behind the orbit
    reduction bench and tests.  [utilization > 1.0] produces an
    unschedulable family. *)

val e6_model : int -> string
(** The E6 scaling family: [n] unit-cet RM threads with periods 4, 6,
    8, ... ms, schedulable. *)

val e6_unsched : int -> string
(** {!e6_model} with t1's execution time widened to [1,3] ms:
    unschedulable at a shallow depth, while the best-case branches keep
    generating states. *)

val uunifast : state:Random.State.t -> n:int -> u:float -> float list
(** UUniFast (Bini & Buttazzo): unbiased utilization splits summing to
    [u]. *)

val random_specs : seed:int -> n:int -> u:float -> periodic_spec list
(** A random periodic task set of total utilization [u], deterministic in
    [seed]; periods from a small palette to bound hyperperiods. *)

(** {1 Reference task sets} *)

val light_set : periodic_spec list
(** U ~ 0.58: schedulable under every policy. *)

val crossover_set : periodic_spec list
(** U ~ 0.971 (above the Liu&Layland bound, below 1): RM misses, EDF and
    LLF schedule it. *)

val overloaded_set : periodic_spec list
(** U = 1.25: infeasible under every policy. *)

(** {1 Whole-system fixtures} *)

val cruise_control : ?overload:bool -> unit -> string
(** The paper's Fig. 1 system: two processors, a bus, the HCI and
    CruiseControlLaws subsystems with six threads and bus-mapped data
    connections.  [overload] inflates Cruise1's execution time to produce
    the non-schedulable variant. *)

val event_driven : ?queue_size:int -> ?overflow:string -> unit -> string
(** A periodic producer feeding a sporadic handler through a bounded
    queue, plus a device-driven aperiodic logger (dispatchers 6b/6c,
    queues, stimuli). *)

val shared_data_system : ?t2_cet_ms:int -> ?protocol:string -> unit -> string
(** Two threads on different processors sharing a data component through
    access connections: their executions serialize on the whole-quantum
    data resource. *)

val modal_system : ?degraded_cet_ms:int -> unit -> string
(** A two-mode system (extension): a controller's alarm switches between
    a nominal and a degraded worker whose combined utilization exceeds 1. *)

val hierarchical_system :
  ?critical_rank:int -> ?besteffort_rank:int -> unit -> string
(** Two process groups under HIERARCHICAL_PROTOCOL (extension): a
    rate-monotonic critical group and an EDF best-effort group, ranked by
    the Priority properties. *)

val avionics : unit -> string
(** The larger reference system: 8 threads across 3 processors (RM, EDF,
    RM) and a shared bus with sensing-to-actuation and guidance-to-mission
    flows. *)

val instance_of_string : ?root:string -> string -> Aadl.Instance.t
(** Parse and instantiate a fixture in one step. *)

(** The ACSR processes of the paper's Figures 2 and 3. *)
module Paper_figs : sig
  val cpu : Acsr.Resource.t
  val bus : Acsr.Resource.t
  val done_l : Acsr.Label.t
  val interrupt : Acsr.Label.t
  val exc : Acsr.Label.t
  val exception_handled : Acsr.Label.t
  val interrupt_handled : Acsr.Label.t
  val fig2a_defs : Acsr.Defs.t
  val fig2a_initial : Acsr.Proc.t
  val fig2b_defs : Acsr.Defs.t
  val fig2b_initial : Acsr.Proc.t
  val fig3_defs : Acsr.Defs.t
  val fig3_system : Acsr.Proc.t

  val label_reachable : Versa.Lts.t -> Acsr.Label.t -> bool
  (** Does any state of the LTS offer a step on this label? *)
end
