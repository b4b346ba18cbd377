(** Labeled transition systems of ACSR terms, explored breadth-first.

    States are closed process terms interned in BFS discovery order (the
    initial state is always id 0); this is the substrate on which
    schedulability analysis performs VERSA-style deadlock detection
    (paper, Section 5).  The root is split once into its frame
    ({!Acsr.Frame}: the restriction and the [Par] spine), and each state
    is kept as its vector of slot nodes ({!Acsr.Node}: one per distinct
    slot term of the exploration, carrying the term's compiled step
    set), so successor computation reads node fields, and state
    interning and successor deduplication cost O(1) per slot and never
    rebuild the spine.  A state's term is materialized only when asked
    for ({!term}).

    There is one exploration loop, {!build}.  Per state it keeps the
    slot vector, as its slots' node ids, its hash and the BFS parent,
    in chunks of 32-bit cells that the collector neither promotes nor
    scans and a growing store never copies — enough for counts,
    deadlocks and every
    shortest counterexample path.  The step that arrives at a state is
    not kept: {!path_to} recomputes it.  Successor rows are kept only with
    [~edges:true] (the default), for callers that walk the graph
    afterwards (DOT export, bisimulation); a plain schedulability query
    passes [~edges:false] and retains nothing per transition.  With
    [stop_at_deadlock] the loop stops at the first deadlock, so an
    unschedulable model is decided in time proportional to the distance
    to the first deadline miss.

    The exploration runs on the calling domain.  Ids, parents, depths,
    successor rows, deadlock ids, verdicts and shortest traces are
    determined by the term, the configuration and the symmetry spec
    alone.

    {2 Symmetry (orbit) reduction}

    With a non-trivial [?symmetry] spec ({!Acsr.Symmetry}, built by
    [Translate.Pipeline] from interchangeable thread units), every
    successor is canonicalized up to permutation of interchangeable
    parallel components {e before} the visited-set lookup, so the
    exploration visits one representative per orbit.  Verdicts
    (deadlock-freedom), counterexample lengths and BFS depths are
    preserved exactly — canonicalization is an automorphism of the
    transition system — while visited-state counts shrink by up to the
    product of the orbit class factorials.  Canonicalization is part of
    computing a successor row.  The store keeps every
    member's slots in its class representative's names, so the members
    of a class share slot nodes and each local state is compiled once
    per class; the kernel still emits real labels, and {!term} renames
    a state back into its real terms.  {!path_to}
    de-canonicalizes the recomputed steps (composing the
    permutation witnesses along the path), so diagnostic traces name the
    real system's threads; state ids in the returned path index the
    canonical store.  Note that a reduced run's state {e numbering}
    differs from an unreduced run's — equivalence is of verdicts and
    trace lengths, not ids (asserted by the symmetry test suite). *)

open Acsr

type semantics = Prioritized | Unprioritized

type state_id = int
(** Dense state identifiers, assigned in BFS discovery order. *)

type t

(** {1 Exploration telemetry}

    Collected during the build at negligible cost; surfaced by the
    [--stats] CLI flag and perfbench's per-layer ledger. *)

type stats = {
  wall_s : float;  (** total build time, seconds *)
  expand_s : float;
      (** successor computation, canonicalization included.  Measured
          only when an {!Obs.Trace} is active as the build starts, on
          the real clock ({!Timed.Clock.real}) whatever the ambient one,
          so that a trace never moves a virtual deadline: every eighth
          expansion is timed and the sum scaled to all of them, so
          tracing costs a quarter of a clock read per state.  0
          untraced, which spares an untraced run any clock read per
          state but the [deadline] check *)
  merge_s : float;
      (** interning and BFS bookkeeping: the build's real-clock time
          minus [expand_s] (at least 0), under the same condition; 0
          untraced *)
  num_states : int;
  num_transitions : int;
  num_deadlocks : int;
  peak_frontier : int;  (** max states discovered but not yet expanded *)
  depth_levels : int;
      (** deepest {e expanded} BFS level + 1; the unexpanded frontier of a
          truncated run does not count *)
  intern_hits : int;  (** successor interns that found an existing state *)
  intern_misses : int;  (** interns that discovered a new state *)
  hashcons_nodes : int;
      (** size of the exploration's own hash-cons table after the build
          ({!Acsr.Hproc.size}): independent of earlier explorations *)
  slot_nodes : int;
      (** size of the exploration's node table ({!Acsr.Node}): the
          distinct slot terms it met, counted once per class under
          symmetry reduction, where member slots are kept in their
          representative's names *)
  store_bytes : int;
      (** bytes of the state store's buffers: the chunks in use of the
          visited set's arena and hashes and of the parent ids, the
          probe table, plus, with [~edges:true], the successor rows (the
          rows array, a header word per row and four words per
          transition) *)
  early_exit_depth : int option;
      (** BFS depth of the first deadlock when [stop_at_deadlock] fired:
          the distance to the first deadline miss, which bounds the work
          of an early-exit run *)
  deadline_expired : bool;
      (** the wall-clock budget ([build_config.deadline]) stopped the
          exploration; [truncated] is then also true and the absence of
          deadlocks is inconclusive *)
  orbit_hits : int;
      (** successors the symmetry reduction folded onto a different
          orbit representative — the per-successor win of the reduction;
          0 when symmetry is off or the model has no interchangeable
          components *)
  orbit_misses : int;
      (** successors that were already orbit-canonical *)
  canon_s : float;
      (** time spent canonicalizing successor rows, on the real clock
          ({!Timed.Clock.real}), so that it reads no ambient clock per
          state *)
  plan_hits : int;
      (** expansions built from a plan the successor kernel memoized
          for an earlier state with the same slot codes
          ({!Acsr.Semantics.successors}) *)
  plan_misses : int;
      (** expansions whose plan the kernel selected and memoized *)
  plan_bytes : int;
      (** bytes of the kernel's plan buffers and memo table at their
          allocated lengths *)
}

val stats : t -> stats

(** {1 Accessors} *)

val num_states : t -> int

val num_transitions : t -> int
(** Cached at build time: O(1). *)

val initial : t -> state_id
(** Always state 0. *)

val term : t -> state_id -> Proc.t
(** The process term of a state, materialized from its slot vector, in
    real names also under orbit reduction. *)

val has_edges : t -> bool
(** Whether successor rows were kept ([build ~edges]). *)

val successors : t -> state_id -> (Step.t * state_id) array
(** Outgoing transitions, in the canonical successor order (sorted by
    step, then structurally by target term); empty for an unexpanded
    frontier state.
    @raise Invalid_argument when explored with [~edges:false]. *)

val depth : t -> state_id -> int
(** BFS depth: the length of the shortest path from the initial state,
    walked up the parent pointers. *)

val truncated : t -> bool
(** True when exploration stopped early (state budget exhausted or
    [stop_at_deadlock] fired); absence of deadlocks is then inconclusive. *)

val is_deadlock : t -> state_id -> bool
(** The state was expanded and has no outgoing transition.
    @raise Invalid_argument when explored with [~edges:false]. *)

val deadlocks : t -> state_id list
(** Deadlocks among the visited states, in discovery order.  Complete
    exactly when [not (truncated lts)].  Cached at build time: O(1). *)

val path_to : t -> state_id -> (Step.t * state_id) list
(** BFS-shortest path from the initial state, as (step, reached state).
    The states come from the parent pointers.  Each step is recomputed
    by re-expanding the state's parent with the build's cache (and
    views): it is the step of the first entry of the parent's row, in
    row order, whose successor (canonicalized, under symmetry) is the
    state — the entry whose intern discovered it.  So a path costs one
    expansion per step, and is the same with and without edges. *)

(** {1 Building} *)

type build_config = {
  max_states : int option;  (** stop after discovering this many states *)
  stop_at_deadlock : bool;
      (** stop expanding as soon as one deadlock has been discovered *)
  deadline : float option;
      (** wall-clock budget as an absolute time on the ambient
          {!Timed.Clock} scale — the time-domain twin of [max_states].
          When it passes, the exploration stops before the next expansion
          and reports [truncated] with [stats.deadline_expired]; the
          explored prefix (states, parents, traces) remains valid.
          Under the real clock a deadline makes the {e amount explored}
          timing-dependent, so results under an expiring deadline are
          not reproducible run-to-run — the service layer qualifies
          such verdicts accordingly.  Under a {!Timed.Sim} clock with
          [auto_advance] the expiry point is deterministic, which is
          how the timeout test suite runs second-scale budgets in
          wall-clock milliseconds. *)
  poll : (unit -> bool) option;
      (** cooperative stop hook, called before every expansion.
          Returning [true] truncates the
          run exactly like an exhausted budget; the service layer points
          this at a job's cancellation flag.  Must be cheap and
          side-effect-free. *)
}

val default_config : build_config
(** 2M states, explore exhaustively, no wall-clock deadline, no poll
    hook. *)

val build :
  ?config:build_config ->
  ?semantics:semantics ->
  ?symmetry:Symmetry.spec ->
  ?edges:bool ->
  Defs.t ->
  Proc.t ->
  t
(** Explore the state space of a closed term breadth-first.  [semantics]
    defaults to [Prioritized].

    [edges] (default [true]) keeps every expanded state's successor row
    for {!successors}; with [false] the store holds only the per-state
    slot vector, hash and parent.  Everything else — ids, counts, deadlocks,
    paths and every non-timing {!stats} field except [store_bytes] — is
    the same either way.  The run is traced as an [lts.build] span with
    edges and an [lts.check] span without.

    [symmetry] (default {!Acsr.Symmetry.empty}, i.e. off) enables orbit
    reduction — see the module preamble.  The spec must describe the
    explored term: its slot layout and renamings come from the same
    translation that produced [defs] and the root.

    An exception raised while expanding a state propagates from
    [build] when the loop reaches that state; a run that stops before
    it returns normally. *)

val pp_summary : t Fmt.t
(** One-line summary: state/transition counts, [[early exit]] when
    [stop_at_deadlock] stopped the run or [[truncated]] when a budget
    did, the semantics, and an [on-the-fly] marker when explored without
    edges. *)
