(** A persistent pool of worker domains for data-parallel batches.

    {!run} evaluates a function over an index range, indices claimed
    dynamically from a shared atomic counter by the workers and the
    calling domain alike.  The service layer's batch scheduler runs its
    jobs this way.

    Workers live for the lifetime of the pool, so issuing a batch costs
    a condition-variable broadcast, not a domain spawn.  Spawning is the
    cheap part of the cost of a pool; the recurring part is that every
    minor GC becomes a stop-the-world rendezvous across all domains. *)

type t

exception Worker_error of { index : int; error : exn }
(** Raised by {!run} when the task failed on worker domain [index]
    (0-based).  The index names the domain that {e raised}, not the
    batch index it was processing.  A failure on the calling domain is
    re-raised unwrapped.  Each batch with a worker-side failure also
    increments the [versa_pool_worker_failures_total] counter in
    {!Obs}. *)

val create : int -> t
(** [create w] spawns [w] worker domains (clamped below at 0 — a pool
    with 0 workers still works: every batch then runs on the caller). *)

val run : t -> int -> (int -> unit) -> unit
(** [run pool n f] evaluates [f i] for every [0 <= i < n], distributing
    indices dynamically over the workers and the calling domain, and
    returns when all are done.  [f] must be safe to call concurrently
    from several domains.  If any [f i] raises, the first exception is
    re-raised here after the batch drains (remaining indices are
    skipped) — wrapped in {!Worker_error} when it originated on a worker
    domain.  Batches must not be issued concurrently from several
    domains. *)

val shutdown : t -> unit
(** Stop and join the workers.  The pool must be idle.  Teardown is
    exception-safe: every domain is joined even when one of the joins
    re-raises a worker's exception (the first exception wins), so a
    failing run can neither leak domains nor deadlock a subsequent one,
    and the attribution carried by {!Worker_error} survives teardown.
    Idempotent. *)
