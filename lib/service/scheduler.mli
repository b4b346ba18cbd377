(** A priority job scheduler running many analyses concurrently.

    Jobs are submitted with a priority ({!Job.request.priority}) and
    drained by {!run_all}, which executes them over a {!Versa.Pool} of
    worker domains: higher-priority jobs start first, ties break by
    submission order.  Each job explores on the domain that runs it, so
    keep [workers] near the core count.

    Concurrent jobs share only the runner's verdict cache and miss
    attribution, each behind its own lock.  Everything below the
    runner has one owner: each job realizes its own translation, and
    each exploration owns its intern table, node table and state
    store.

    Cancellation is cooperative: {!cancel} flips a flag that is checked
    before the job starts and polled before every expansion of its
    exploration, so a running job stops at the next state and reports
    [Cancelled]. *)

type t

type handle
(** One submitted job; also the completion cell for its outcome. *)

val create : ?workers:int -> Runner.config -> t
(** [workers] (default 1) is the number of jobs run concurrently.
    [1] runs jobs inline on the calling domain, in priority order. *)

val submit : t -> Job.request -> handle
(** Enqueue a job.  Submissions and {!run_all} must come from the same
    domain (the runner fan-out is internal). *)

val cancel : handle -> unit
(** Request cancellation.  Already-completed jobs are unaffected;
    pending jobs complete immediately as [Cancelled]; a running job
    stops before its next expansion. *)

val outcome : handle -> Job.outcome option
(** [None] until the job has completed. *)

val run_all : t -> Job.outcome list
(** Drain every pending job and return their outcomes in {e submission}
    order (execution order is priority order).  Worker domains are
    created per drain and torn down before returning, exception-safely;
    a drain that used them ends with a full major collection. *)
