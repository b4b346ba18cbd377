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
    slot vector, the BFS parent and the arriving step in flat
    arrays — enough for counts, deadlocks and every shortest
    counterexample path.  Successor rows are kept only with
    [~edges:true] (the default), for callers that walk the graph
    afterwards (DOT export, bisimulation); a plain schedulability query
    passes [~edges:false] and retains nothing per transition.  With
    [stop_at_deadlock] the loop stops at the first deadlock, so an
    unschedulable model is decided in time proportional to the distance
    to the first deadline miss.

    {2 Parallel exploration and the determinism contract}

    With [?jobs > 1], once at least [parallel_cutover] states are
    queued, the builder computes the successor rows of the next queued
    states (a fixed-size chunk) in one {!Pool.run} batch, on [jobs - 1]
    worker domains plus the calling domain.  The sequential merge loop
    then consumes those rows in queue order, exactly as if it had
    computed them itself.

    Results are therefore {e bit-identical} to a sequential run — same
    state ids, parents, depths, successor rows, deadlock ids, verdicts,
    shortest traces and orbit tallies, and the same exception should
    successor computation raise.  Every order-sensitive decision —
    interning, parent assignment, budget/deadline/early-exit checks —
    happens in that one merge loop, in queue order; successor
    computation is deterministic, so it does not matter which domain
    ran it.  Parallelism can only affect throughput, never results
    (asserted by the test suite's jobs-equivalence properties).

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
    computing a successor row, on whichever domain computes it, so
    reduction composes with [jobs] and the bit-identity contract above
    is unchanged for any fixed [symmetry] spec.  The store keeps every
    member's slots in its class representative's names, so the members
    of a class share slot nodes and each local state is compiled once
    per class; the kernel still emits real labels, and {!term} renames
    a state back into its real terms.  {!path_to}
    de-canonicalizes the stored steps (composing the
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
  jobs : int;  (** parallelism the LTS was built with *)
  wall_s : float;  (** total build time, seconds *)
  expand_s : float;  (** successor computation (the parallel phase) *)
  merge_s : float;  (** interning and BFS bookkeeping (sequential phase) *)
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
      (** estimated bytes retained by the state store: the slot vectors,
          the flat parent/step arrays and the visited set, plus the
          successor rows with [~edges:true] *)
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
          components.  Counted over the rows the exploration consumed,
          so it is the same at every [jobs] *)
  orbit_misses : int;
      (** successors that were already orbit-canonical *)
  canon_s : float;
      (** time spent canonicalizing the consumed rows (summed across
          domains) *)
}

val stats : t -> stats

val states_per_sec : stats -> float
(** [num_states / wall_s]; the throughput figure tracked across PRs. *)

val dedup_hit_rate : stats -> float
(** Fraction of successor interns that deduplicated into an existing
    state, in [0,1].  High values mean the state graph re-converges often
    (typical of periodic workloads). *)

val bytes_per_state : stats -> float
(** [store_bytes / num_states]. *)

val pp_stats : stats Fmt.t

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

val semantics_of : t -> semantics

val is_deadlock : t -> state_id -> bool
(** The state was expanded and has no outgoing transition.
    @raise Invalid_argument when explored with [~edges:false]. *)

val deadlocks : t -> state_id list
(** Deadlocks among the visited states, in discovery order.  Complete
    exactly when [not (truncated lts)].  Cached at build time: O(1). *)

val path_to : t -> state_id -> (Step.t * state_id) list
(** BFS-shortest path from the initial state, as (step, reached state). *)

(** {1 Building} *)

type build_config = {
  max_states : int option;  (** stop after discovering this many states *)
  stop_at_deadlock : bool;
      (** stop expanding as soon as one deadlock has been discovered *)
  parallel_cutover : int;
      (** number of queued states below which the run stays sequential
          even when [jobs > 1]; the worker pool is created on the first
          batch.  Small state spaces never pay the domain spawn and
          cross-domain GC cost this way, and a run that never reaches
          the cutover is exactly the sequential build. *)
  deadline : float option;
      (** wall-clock budget as an absolute time on the ambient
          {!Timed.Clock} scale — the time-domain twin of [max_states].
          When it passes, the exploration stops at the next merge step
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
      (** cooperative stop hook, called before every merge step (never
          from worker domains).  Returning [true] truncates the
          run exactly like an exhausted budget; the service layer points
          this at a job's cancellation flag.  Must be cheap and
          side-effect-free. *)
}

val default_config : build_config
(** 2M states, explore exhaustively, cutover at 512 queued states, no
    wall-clock deadline, no poll hook. *)

val build :
  ?config:build_config ->
  ?semantics:semantics ->
  ?jobs:int ->
  ?symmetry:Symmetry.spec ->
  ?edges:bool ->
  Defs.t ->
  Proc.t ->
  t
(** Explore the state space of a closed term breadth-first.  [semantics]
    defaults to [Prioritized].

    [edges] (default [true]) keeps every expanded state's successor row
    for {!successors}; with [false] the store holds only the per-state
    slot vector, parent and step.  Everything else — ids, counts, deadlocks,
    paths and every non-timing {!stats} field except [store_bytes] — is
    the same either way.  The run is traced as an [lts.build] span with
    edges and an [lts.check] span without.

    [symmetry] (default {!Acsr.Symmetry.empty}, i.e. off) enables orbit
    reduction — see the module preamble.  The spec must describe the
    explored term: its slot layout and renamings come from the same
    translation that produced [defs] and the root.

    [jobs] (default 1) is the number of domains that compute successor
    rows: [jobs - 1] pool workers plus the calling domain, which also
    runs the sequential merge.  The pool is only created once
    [config.parallel_cutover] states are queued.  Parallelism only
    affects throughput, never results — see the determinism contract in
    the module preamble.  An exception raised while computing a row is
    kept with that row and re-raised (with its backtrace) when the merge
    reaches the state, exactly where a sequential run raises; a run that
    stops before reaching the state returns normally. *)

val pp_summary : t Fmt.t
(** One-line summary: state/transition counts, [[early exit]] when
    [stop_at_deadlock] stopped the run or [[truncated]] when a budget
    did, the semantics, and an [on-the-fly] marker when explored without
    edges. *)
