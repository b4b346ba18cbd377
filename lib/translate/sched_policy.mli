(** Scheduling policies as priority assignment rules (paper, Section 5). *)

open Acsr

type assignment = { task : Workload.task; cpu_priority : Expr.t }

val rate_monotonic : Workload.task list -> assignment list
(** Shorter period, higher (static) priority; unperioded tasks lowest. *)

val deadline_monotonic : Workload.task list -> assignment list

val highest_priority_first : Workload.task list -> assignment list
(** Static priorities from the AADL [Priority] property. *)

val edf : Workload.task list -> assignment list
(** Dynamic priorities [dmax - (d_i - t) + 1] over the Compute-process
    parameter [t]. *)

val llf : Workload.task list -> assignment list
(** Least laxity first: [dmax - ((d_i - t) - (cmax_i - e)) + 1]. *)

val assign :
  Aadl.Props.scheduling_protocol -> Workload.task list -> assignment list
(** @raise Aadl.Diag.Error for [Hierarchical]: use {!hierarchical}. *)

type group = {
  group_name : string list;
  group_rank : int;
  local_protocol : Aadl.Props.scheduling_protocol;
  members : Workload.task list;
}

val local_bound :
  Aadl.Props.scheduling_protocol -> Workload.task list -> int

val hierarchical : group list -> assignment list
(** Two-level scheduling by priority bands: fixed priority across groups,
    the group's local policy within (extension; paper Section 7). *)

val find : assignment list -> Workload.task -> Expr.t
(** @raise Aadl.Diag.Error when the task has no assignment. *)

val pp_assignment : assignment Fmt.t
