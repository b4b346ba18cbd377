(** A persistent pool of worker domains.

    Two usage patterns, both built on the same worker loop and the same
    error contract:

    - {b Batches} ({!run}): data-parallel loops over an index range,
      indices claimed dynamically from a shared atomic counter.  Used by
      the service layer's batch scheduler.
    - {b Launches} ({!launch}/{!await}): one long-lived task per worker,
      each invoked with its own domain index.  Used by the work-stealing
      explorer ({!Lts.build}), where every worker runs a steal loop over
      the per-domain deques until the coordinator raises a stop flag.

    Workers live for the lifetime of the pool, so issuing a batch or a
    launch costs a condition-variable broadcast, not a domain spawn.
    Spawning is the cheap part of the cost of a pool; the recurring part
    is that every minor GC becomes a stop-the-world rendezvous across
    all domains, which is why the explorer only creates its pool once a
    frontier crosses [parallel_cutover]. *)

type t

exception Worker_error of { index : int; error : exn }
(** Raised by {!run} or {!await} when the task failed on worker domain
    [index] (0-based).  The index always names the domain that {e
    raised}, not the data it was processing — in particular, a worker
    that fails while stealing from a sibling's deque is reported under
    its own index, not the victim's.  A failure on the calling domain is
    re-raised unwrapped.  Each round with a worker-side failure also
    increments the [versa_pool_worker_failures_total] counter in
    {!Obs}. *)

val create : int -> t
(** [create w] spawns [w] worker domains (clamped below at 0 — a pool
    with 0 workers still works: every batch then runs on the caller and
    launches are no-ops). *)

val run : t -> int -> (int -> unit) -> unit
(** [run pool n f] evaluates [f i] for every [0 <= i < n], distributing
    indices dynamically over the workers and the calling domain, and
    returns when all are done.  [f] must be safe to call concurrently
    from several domains.  If any [f i] raises, the first exception is
    re-raised here after the batch drains (remaining indices are
    skipped) — wrapped in {!Worker_error} when it originated on a worker
    domain.  Batches must not be issued concurrently from several
    domains. *)

val launch : t -> (int -> unit) -> unit
(** [launch pool f] starts [f i] on every worker domain [i] (exactly one
    call per worker, under that worker's own index) and returns
    immediately; the calling domain does {e not} participate and is free
    to run its own loop concurrently — the explorer runs its sequential
    replay here.  The caller is responsible for making [f] terminate
    (typically via a shared stop flag) and must call {!await} before the
    next {!run}, {!launch} or {!shutdown}.  On a pool with 0 workers,
    [launch] is a no-op. *)

val await : t -> unit
(** Block until every worker has returned from the current {!launch} (or
    batch), then re-raise the first recorded failure, wrapped in
    {!Worker_error} with the index of the domain that raised.  Returns
    immediately on a pool with 0 workers or when no round is in
    flight. *)

val shutdown : t -> unit
(** Stop and join the workers.  The pool must be idle (after {!await}
    for a launch).  Teardown is exception-safe: every domain is joined
    even when one of the joins re-raises a worker's exception (the first
    exception wins), so a failing exploration can neither leak domains
    nor deadlock a subsequent run, and the attribution carried by
    {!Worker_error} survives teardown.  Idempotent. *)
