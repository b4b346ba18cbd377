(** A digest-addressed store of realized fragments: unchanged
    translation units are reused by physical identity across
    translations (sweep points), so they are not generated again.  The
    store never evicts: it grows with every distinct fragment realized
    through it, so give it a bounded job (one sweep), not a process.
    Single-owner: use a cache on one domain only. *)

type t

val create : unit -> t

val find_or_realize : t -> Fragment.spec -> Fragment.t * bool
(** The cached fragment for the spec's digest, or the freshly realized
    one (stored for next time).  The boolean is [true] on reuse.
    Non-cacheable specs ({!Fragment.spec_cacheable}) bypass the store
    and always realize. *)
