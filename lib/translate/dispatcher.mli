(** Thread dispatchers (paper, Figure 6): dispatch the skeleton, track
    deadlines, block on violations. *)

open Acsr

type t = { defs : (string * string list * Proc.t) list; initial : Proc.t }

type modal_gate = {
  activate : Label.t;
  deactivate : Label.t;
  initially_active : bool;
}

val generate :
  ?scope:Naming.scope ->
  ?modal:modal_gate ->
  dispatch_probes:Label.t list ->
  registry:Naming.registry ->
  task:Workload.task ->
  dispatch:Label.t ->
  done_:Label.t ->
  unit ->
  t
(** Generate the dispatcher for the task's dispatch protocol.  Periodic:
    Fig. 6a; aperiodic: Fig. 6b; sporadic: Fig. 6c (minimum separation =
    Period); background: immediate dispatch, no deadline.
    @raise Aadl.Diag.Error for event-driven threads without incoming connections
    or periodic/sporadic threads without a period. *)
