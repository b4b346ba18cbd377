(** VERSA-style deadlock detection over the prioritized transition system.

    This is the bridge between the process-algebraic substrate and the
    schedulability question of the paper: a missed deadline manifests as a
    deadlocked state, so "is the model schedulable?" becomes "is the
    prioritized LTS deadlock-free?" (Section 5).  The exploration is
    {!Lts.build}; the result carries its {!Lts.t}. *)

open Acsr

type engine =
  | Full  (** keep every successor row ([Lts.build ~edges:true]) *)
  | On_the_fly
      (** keep only the per-state term, parent and step
          ([~edges:false]); counts, deadlocks and traces are the same *)

type verdict =
  | Deadlock_free
      (** exhaustive exploration found no deadlock: every timing
          constraint of the model is met *)
  | Deadlock of { state : Lts.state_id; trace : Trace.t }
      (** a reachable state with no outgoing prioritized transition; the
          trace is the BFS-shortest failing scenario *)
  | Inconclusive of string
      (** exploration was truncated before finding a deadlock *)

type result = { lts : Lts.t; verdict : verdict; elapsed : float }

val check_deadlock :
  ?engine:engine ->
  ?max_states:int ->
  ?stop_at_deadlock:bool ->
  ?jobs:int ->
  ?deadline:float ->
  ?poll:(unit -> bool) ->
  ?symmetry:Symmetry.spec ->
  Defs.t ->
  Proc.t ->
  result
(** Explore the prioritized state space of a closed term and report the
    first deadlock found (with its shortest trace) or deadlock-freedom.
    [engine] defaults to [On_the_fly]; [Full] additionally keeps the
    successor rows for callers that walk the graph.  [stop_at_deadlock]
    (default [true]) stops at the first deadlock; with [false] the space
    is explored exhaustively (up to [max_states], default 2M).

    [jobs] (default 1) is the number of domains computing successor
    rows, forwarded to {!Lts.build}; it changes throughput only —
    verdicts, deadlock ids and traces are bit-identical at any [jobs]
    (the determinism contract in {!Lts}).

    [deadline] is an absolute bound on the ambient {!Timed.Clock}
    scale: past it the exploration truncates and the verdict is
    [Inconclusive "wall-clock budget expired …"], never a hang.  [poll]
    is a cooperative cancellation hook checked between merge steps
    ({!Lts.build_config}).

    [symmetry] (default {!Acsr.Symmetry.empty}) enables orbit reduction
    — see the {!Lts} preamble.  Verdicts and trace lengths are
    unchanged; traces are de-canonicalized before being returned, so
    failing scenarios name the real model's threads. *)

val deadlock_verdict : Lts.t -> verdict
(** Derive the verdict from an already-explored LTS. *)

val is_deadlock_free : result -> bool

(** {1 Shorthands for [Lts] accessors on [result.lts]} *)

val num_states : result -> int
val num_transitions : result -> int
val deadlocks : result -> Lts.state_id list
val stats : result -> Lts.stats

val pp_verdict : verdict Fmt.t
