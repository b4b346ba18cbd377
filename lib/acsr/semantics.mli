(** Operational semantics of closed ACSR terms. *)

exception Not_closed of string
(** Raised when a term still contains free parameters. *)

exception Unguarded_recursion of string
(** Raised when unfolding definitions never reaches an action or event
    prefix (e.g. [X = X]). *)

val steps : Defs.t -> Proc.t -> (Step.t * Proc.t) list
(** The unprioritized transition relation: every step the term can take,
    deduplicated. *)

val prioritized : Defs.t -> Proc.t -> (Step.t * Proc.t) list
(** The prioritized transition relation: {!steps} minus the steps preempted
    by another enabled step.  Schedulability analysis explores this
    relation. *)

val is_deadlocked : Defs.t -> Proc.t -> bool
(** No step at all is enabled.  In translated AADL models this denotes a
    timing violation (paper, Section 5). *)

val is_time_stopped : Defs.t -> Proc.t -> bool
(** No prioritized step advances time. *)

(** {1 Hash-consed engine}

    A second implementation of the transition relation over hash-consed
    terms ({!Hproc.t}), used by the state-space explorer: successor
    deduplication and state-table interning become O(1) per slot
    comparison.  Produces, term for term and in the same canonical
    order, the hash-consed image of what {!steps}/{!prioritized}
    return — the test suite checks the two engines against each other
    by property.

    The engine has one kernel, {!successors}, over a state taken as a
    vector of slot nodes ({!Node}) against a fixed {!Frame}.  Each
    node's step set is computed once, when the kernel first meets the
    node, and compiled into event offers with label ids, internal steps
    and timed actions, each edge caching its target node once resolved.
    Per state, the kernel reads those fields: it composes the slots'
    steps as labels, applies restriction and preemption to the labels,
    and builds only the surviving successors, each as a copy of the
    vector with the moving slots patched.  The frame's restriction and
    [Par] spine are never rebuilt or interned.  A [Par] nested inside a
    slot is composed by the same kernel, without those two filters.
    {!h_steps} and {!h_prioritized} split a root into its frame, run the
    kernel and materialize the successors. *)

type cache
(** The state of one exploration's engine: a {!Node.table} — one node
    per slot term, holding its compiled step set — and the memo of
    definition unfolding, keyed by (name, argument values).  Sound only
    for a fixed [Defs.t]: create one cache per exploration.  Safe to
    share between domains: node creation and unfolding are
    mutex-guarded, and compiled sets and edge targets are written
    idempotently. *)

val make_cache : unit -> cache

val nodes : cache -> Node.table
(** The cache's node table: split a root against it ({!Frame.split}) to
    get the slot vector {!successors} takes. *)

val successors :
  cache:cache ->
  prioritize:bool ->
  Defs.t ->
  Frame.t ->
  Node.t array ->
  (Step.t * Node.t array) list
(** [successors ~cache ~prioritize defs frame slots]: the transition
    relation (prioritized when [prioritize]) of the state [slots] of
    [frame], as fresh successor vectors of the same frame, made of nodes
    of [nodes cache].  Rows are deduplicated and sorted by step, then
    slot by slot with {!Hproc.compare_structural} — over one frame, the
    order of the materialized terms. *)

val h_steps : ?cache:cache -> Defs.t -> Hproc.t -> (Step.t * Hproc.t) list
(** Unprioritized transition relation over hash-consed terms: the root's
    frame through {!successors}, materialized.  Without [?cache], a fresh
    cache is used for this call only. *)

val h_prioritized :
  ?cache:cache -> Defs.t -> Hproc.t -> (Step.t * Hproc.t) list
(** Prioritized transition relation over hash-consed terms. *)
