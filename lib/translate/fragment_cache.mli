(** A digest-addressed, thread-safe store of realized fragments:
    unchanged translation units are reused by physical identity across
    translations (sweep points, batch jobs), so they are not generated
    again.  The store never evicts: it grows with every distinct
    fragment a process realizes. *)

type t

val create : unit -> t

val find_or_realize : t -> Fragment.spec -> Fragment.t * bool
(** The cached fragment for the spec's digest, or the freshly realized
    one (stored for next time).  The boolean is [true] on reuse.
    Non-cacheable specs ({!Fragment.spec_cacheable}) bypass the store
    and always realize. *)

type counters = { hits : int; misses : int; size : int }

val counters : t -> counters
val clear : t -> unit
val pp_counters : counters Fmt.t
