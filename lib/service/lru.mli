(** A size-bounded, thread-safe LRU map with hit/miss/eviction counters —
    the store behind the content-addressed verdict cache.

    Keys are the hex digests produced by {!Key}; values are whatever the
    caller caches (the service caches {!Job.outcome}s).  [find] bumps
    recency, so the entry evicted when the cache is full is always the
    least recently {e used}, not the least recently inserted.  All
    operations take an internal mutex: scheduler workers on several
    domains share one cache. *)

type 'a t

val create : capacity:int -> 'a t
(** [capacity] is clamped below at 1.  O(capacity) memory, O(1)
    find/add. *)

val capacity : 'a t -> int

val length : 'a t -> int
(** Entries currently held ([<= capacity]). *)

val find : 'a t -> string -> 'a option
(** Lookup; on a hit the entry becomes most-recently-used.  Counts one
    hit or one miss. *)

val add : 'a t -> string -> 'a -> unit
(** Insert as most-recently-used, replacing any entry under the same key
    (a replacement is not an eviction).  When the cache is over
    capacity, the least-recently-used entry is dropped and counted as an
    eviction. *)

(** {2 Single-flight leases}

    Concurrent workers asking for the same missing key should not all
    recompute it.  [find_or_lease] grants the computation to exactly one
    caller — the {e lease holder} — and blocks the others until the
    lease is released.  Every lease MUST be released, by {!fulfill}
    (store the value, waiters re-probe and hit) or {!abandon} (store
    nothing; the first waiter inherits a fresh lease and computes
    itself).  Counter semantics: taking a lease counts one miss, a
    waiter served by a fulfilled lease counts one hit — so hit/miss
    totals are the same whether duplicates arrive sequentially or
    concurrently. *)

val find_or_lease : 'a t -> string -> [ `Hit of 'a | `Lease ]
(** Like {!find}, but a miss takes the single-flight lease for [key]
    (returning [`Lease]) instead of returning nothing.  Blocks while
    another thread holds the lease. *)

val fulfill : 'a t -> string -> 'a -> unit
(** [add] + release the lease, waking all waiters. *)

val abandon : 'a t -> string -> unit
(** Release the lease without storing, waking all waiters. *)

type counters = {
  hits : int;
  misses : int;
  evictions : int;
  size : int;
  capacity : int;
}

val counters : 'a t -> counters

val pp_counters : counters Fmt.t
(** ["N hits, N misses, N evictions, size S/C"]. *)
