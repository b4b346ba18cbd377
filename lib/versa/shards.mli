(** Digest-range-sharded concurrent store keyed by hash-consed terms.

    The parallel explorer's shared visited set and successor-row record
    map: worker domains {e claim} frontier terms (exactly-once election
    of the domain that will expand each term) and later {e publish} the
    computed successor row; the sequential replay pass reads rows back
    with {!find}.

    {2 Sharding}

    There is no global lock.  The key space is split into
    [shard_count t] contiguous digest ranges; a term's digest — the
    memoized structural hash [Hproc.hash], folded to 30 bits — picks its
    owning shard via {!owner_digest}, a pure monotone range partition
    (digest [d] belongs to shard [d * count / 2^30]).  Because the
    digest is structural, a term maps to the same shard in every run and
    on every domain.  Two domains contend only when they simultaneously
    touch terms whose digests fall in the same range; with the default
    64 shards and single-digit domain counts the measured contention
    ratio ({!contention}) stays well below 1%.

    {2 Batched claims}

    {!claim_batch} inserts a whole per-shard group of candidate terms
    under one lock acquisition.  Workers group the successors of each
    expansion by owning shard and hand each group off in a single batch,
    so the lock-acquisition rate scales with expansions, not
    transitions.

    {2 Determinism}

    The store never decides state identity or order — it only
    deduplicates {e work}.  State ids are assigned by the explorer's
    sequential replay in BFS order ({!Lts.build}), so the racy
    interleaving of claims and publishes is invisible in results;
    see the determinism contract in {!Lts}. *)

open Acsr

type 'a t

val create : ?shards:int -> unit -> 'a t
(** [create ()] makes an empty store with [?shards] segments (default
    64, clamped to at least 1).  More shards reduce contention at the
    cost of per-shard table overhead; the default comfortably serves the
    pool sizes the explorer spawns. *)

val shard_count : 'a t -> int

val digest : Hproc.t -> int
(** The 30-bit structural digest used for shard selection: stable across
    runs and domains for structurally equal terms. *)

val owner_digest : 'a t -> int -> int
(** [owner_digest t d] is the shard owning digest [d]: the contiguous
    range partition [(d land (2^30-1)) * shard_count t / 2^30].
    Monotone in [d]; exposed (rather than private to {!owner}) so the
    range-boundary unit tests can pin the partition. *)

val owner : 'a t -> Hproc.t -> int
(** [owner t p = owner_digest t (digest p)]. *)

val try_claim : 'a t -> Hproc.t -> bool
(** Atomically claim a single term: [true] exactly once per term per
    store, electing the caller as the term's expander; [false] if some
    domain (possibly the caller) already claimed it. *)

val claim_batch : 'a t -> int -> Hproc.t list -> Hproc.t list
(** [claim_batch t idx terms] claims every not-yet-claimed term of
    [terms] under a single acquisition of shard [idx]'s lock and returns
    the freshly claimed ones (in input order, duplicates collapsed).
    Every term in [terms] must belong to shard [idx] ([owner t p =
    idx]); feeding a term to a foreign shard would break the
    exactly-once claim guarantee. *)

val publish : 'a t -> Hproc.t -> 'a -> unit
(** Record the value (successor row) for a claimed term.  Call once,
    from the domain that won the claim. *)

(** Result of {!find}: the term was never claimed, claimed but not yet
    published, or published with its value. *)
type 'a lookup = Absent | Claimed | Found of 'a

val find : 'a t -> Hproc.t -> 'a lookup

val contention : 'a t -> int * int
(** [(contended, acquired)] lock-acquisition tallies summed over all
    shards: [contended] counts acquisitions that found the lock held
    (i.e. had to block).  Feeds the [versa_shard_contention_total]
    counter and [versa_shard_contention_ratio] gauge. *)
