(** Executions extracted from an LTS, presented as timelines. *)

open Acsr

type entry = { step : Step.t; state : Lts.state_id }
(** One transition of the execution: the step taken and the state it
    reached. *)

type t = { entries : entry list }
(** An execution starting at the initial state (id 0).  Traces carry the
    path only — not the LTS it came from. *)

val of_path : (Step.t * Lts.state_id) list -> t
(** Wrap a path (as returned by {!Lts.path_to}) as a trace. *)

val to_deadlock : Lts.t -> Lts.state_id -> t
(** Shortest trace from the initial state to the given state. *)

val steps : t -> Step.t list
(** The steps of the trace, in order. *)

val length : t -> int
(** Number of steps (timed and instantaneous). *)

val final_state : t -> Lts.state_id
(** The state the trace ends in; the initial state if it is empty. *)

val duration : t -> int
(** Number of time quanta elapsed along the trace. *)

type quantum = { at_time : int; instant : Step.t list; tick : Step.t option }

val quanta : t -> quantum list
(** The trace grouped by time quantum: the instantaneous steps occurring at
    [at_time], then the timed action advancing the clock ([None] if the
    trace ends within the quantum). *)

val pp : t Fmt.t
(** Timeline rendering, one line per quantum. *)

val pp_raw : t Fmt.t
(** One step per line, ungrouped. *)
