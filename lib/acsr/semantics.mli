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
    node, and compiled into event offers, internal steps and timed
    actions, each edge caching its target node once resolved, and into
    one int array of label ids, directions, priorities and resource
    ids ({!Node.steps}).  The kernel works in two parts.  {e Selection}
    scans those arrays and keeps its candidates as integers: it pairs
    complementary offers through a bucket per real label id, combines
    timed steps on resource masks, applies restriction and preemption
    to the integers — between timed combinations, on the part that
    differs between them — and writes the survivors as a {e plan}: per
    row, a step id and the slots and edge indices it moves, sorted by
    step, in int32 buffers the collector does not scan.  {e Building}
    turns a plan and the state's nodes into rows, each a copy of the
    vector with the moving slots patched, every target read off the
    state's own edge.  The frame's restriction and [Par] spine are
    never rebuilt or interned.  A [Par] nested inside a slot is
    composed by the same two parts, without those two filters.
    {!h_steps} and {!h_prioritized} split a root into its frame, run the
    kernel and materialize the successors. *)

type cache
(** The state of one exploration's engine: its intern table, a
    {!Node.table} over it — one node per slot term, holding its
    compiled step set — the memo of definition unfolding, keyed by
    (name, argument values), and the kernel's per-state scratch: the
    offer buckets, candidates and timed combinations, in int arrays
    reused from state to state, and the plans {!successors} keeps.
    Sound only for a fixed [Defs.t]:
    create one cache per exploration, and expand with it on one domain
    at a time, as the explorer does: the scratch is not shared. *)

val make_cache : unit -> cache

val terms : cache -> Hproc.table
(** The intern table every term given to the cache must come from. *)

val nodes : cache -> Node.table
(** The cache's node table: split a root against it ({!Frame.split}) to
    get the slot vector {!successors} takes. *)

(** {2 Views}

    A slot may hold its term renamed into another name space: under an
    orbit reduction ({!Symmetry}) every member of a class keeps its
    slots in the class representative's names, so the members share
    nodes and each local state is compiled once per class.  The kernel
    reads such a slot through a {e view} that renames its labels back:
    it matches complementary offers and reads the frame's restriction on
    real label ids, and gives every step it emits its real label.  The
    slot's successors stay in the stored names.  Timed actions are read
    as they are: resources are never renamed.  An unreduced run goes
    through the same loop, with no views. *)

type view

val plain : view
(** The view of a slot that holds its real term. *)

val view :
  Hproc.table ->
  labels:(Label.t * Label.t) list ->
  compare:(Hproc.t -> Hproc.t -> int) ->
  view
(** [view terms ~labels ~compare], for a frame over [terms]: [labels]
    pairs each renamed stored label
    with its real label (other labels are read as they are, and the
    view holds only the listed ones); the
    renaming must be its own inverse, as the swap of two name spaces
    is, so every pair also appears reversed.  [compare a b] orders two
    stored terms as their real terms compare under
    {!Hproc.compare_structural}.
    @raise Invalid_argument when the renaming is not its own inverse. *)

type views
(** The views of a frame's slots. *)

val no_views : views
(** Every slot holds its real term. *)

val slot_views : view array -> views
(** Slot [i] is read through entry [i], {!plain} past the array's end. *)

val successors :
  cache:cache ->
  prioritize:bool ->
  views:views ->
  Defs.t ->
  Frame.t ->
  Node.t array ->
  (Step.t * Node.t array) list
(** [successors ~cache ~prioritize ~views defs frame slots]: the
    transition relation (prioritized when [prioritize]) of the state
    [slots] of [frame], read through [views], as fresh successor vectors
    of the same frame, made of nodes of [nodes cache].  Steps carry real
    labels.  Rows are deduplicated and sorted by step, then slot by slot
    in the views' order — over one frame, the order of the materialized
    real terms.

    {b Plans and memo.}  Applied to [frame], [successors] returns a
    function that memoizes the plans it selects in [cache], keyed by
    the vector of the slots' code ids ({!Node.steps}[.code_id]): a
    state whose key was met before is built from the kept plan, without
    selecting again.  Selection reads of a state only each slot's code
    and its index (through [views]); the frame's restriction, [views]
    and [prioritize] are fixed per memo; and equal codes give equal
    steps, since label and resource ids name labels and resources one
    to one within the cache's intern table.  Targets are read off the
    state's own edges.  So the rows, their order and everything an
    exploration derives from them are those an unmemoized kernel gives.
    The cache keeps one memo, for the last frame, views and
    [prioritize] given: apply [successors] once per exploration, as
    the explorer does, and expand with the function it returns. *)

type plan_stats = {
  plan_hits : int;  (** states built from a kept plan *)
  plan_misses : int;  (** states whose plan was selected and kept *)
  plan_bytes : int;  (** bytes of the plan buffers, key table included *)
}

val plan_stats : cache -> plan_stats
(** The memo's tallies so far; zeros, and the plan buffer's bytes,
    before {!successors} is applied. *)

val h_steps : cache:cache -> Defs.t -> Hproc.t -> (Step.t * Hproc.t) list
(** Unprioritized transition relation over hash-consed terms of
    [terms cache]: the root's frame through {!successors}, materialized. *)

val h_prioritized :
  cache:cache -> Defs.t -> Hproc.t -> (Step.t * Hproc.t) list
(** Prioritized transition relation over terms of [terms cache]. *)
