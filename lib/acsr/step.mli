(** Transition labels of instantiated ACSR processes and the preemption
    relation inducing the prioritized transition relation. *)

type t =
  | Action of Action.ground
  | Event of Label.t * Event.dir * int
  | Tau of Label.t option * int

val is_timed : t -> bool
(** True for timed actions (exactly the steps that advance global time). *)

val equal : t -> t -> bool
val compare : t -> t -> int
(** The order of [Stdlib.compare] on steps, by sign, without its
    generic walk. *)

val preempts : t -> t -> bool
(** [preempts b a]: step [b] preempts step [a] per the ACSR preemption
    relation.  Irreflexive and transitive. *)

val prioritize : (t * 'a) list -> (t * 'a) list
(** Remove the steps preempted by another enabled step, yielding the
    prioritized transition set of a state. *)

val pp : t Fmt.t
