(** Chase–Lev work-stealing deque.

    The scheduling substrate of the parallel state-space explorer: each
    worker domain owns one deque of frontier terms, pushes the fresh
    successors it discovers onto its own deque, and — only when its own
    deque runs dry — steals from a sibling.  Owner operations touch no
    lock; a steal synchronizes on one compare-and-set, so the common case
    (every domain busy on its own subtree) has zero cross-domain
    coordination.

    Ownership discipline: {!push} and {!pop} must only ever be called by
    the single owner domain; {!steal} and {!length} may be called from
    any domain.  The deque never blocks and grows without bound (the
    circular buffer doubles when full; growth is safe against concurrent
    steals).

    Determinism note: the deque orders {e work}, never {e results}.  The
    explorer's replay pass ({!Lts.build}) assigns state ids in
    sequential BFS order regardless of which domain computed a row or in
    what order, so steal interleavings are invisible in the output —
    see the determinism contract in {!Lts}. *)

type 'a t

val create : ?capacity:int -> dummy:'a -> unit -> 'a t
(** [create ~dummy ()] is an empty deque.  [capacity] (default 256,
    rounded up to a power of two) only sets the initial buffer size; the
    deque grows as needed.  [dummy] fills unused cells and is never
    returned by {!pop}/{!steal}; any value of the element type works
    (the explorer uses [Hproc.nil]). *)

val push : 'a t -> 'a -> unit
(** Owner only: append at the bottom.  Amortized O(1); wait-free except
    when the buffer doubles. *)

val pop : 'a t -> 'a option
(** Owner only: take the most recently pushed element (LIFO), or [None]
    if the deque is empty.  When a single element remains, the owner
    races concurrent thieves for it with one CAS; losing the race
    returns [None]. *)

val steal : 'a t -> 'a option
(** Any domain: take the oldest element (FIFO), or [None] if the deque
    is empty {e or} the CAS on the top index lost against a concurrent
    steal/pop — thieves treat both the same and move to the next victim,
    so a [None] is not proof of emptiness. *)

val length : 'a t -> int
(** Approximate number of queued elements; racy by nature (any domain
    may call it) but exact when only the owner is active.  Used for the
    per-domain queue-depth histogram, not for control decisions. *)
