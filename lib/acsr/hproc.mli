(** Hash-consed ACSR process terms.

    Every distinct term has a unique physical representative: nodes are
    interned bottom-up into a global, domain-safe table, and each node
    memoizes a full-depth structural hash.  The table is split into
    mutex-guarded shards.  The shard index and the bucket index within a
    shard come from disjoint bits of the hash: if they overlapped, every
    node in a shard would share the overlapping bucket bits, most buckets
    would stay empty and each intern would walk a chain of about a
    hundred nodes.  {!table_stats} exposes the spread.  {!equal} is pointer
    equality and {!hash} is a field read, so the explorer's state table,
    keyed on vectors of slot terms ({!Frame}), hashes and compares a
    state in O(slots) — this is what makes exhaustive state-space
    exploration scale (cf. the VERSA tool, paper Section 5).

    Constructors are raw: one-to-one with {!Proc.t}, with no
    simplification, so {!of_proc} and {!to_proc} round-trip exactly. *)

type t = private { id : int; hash : int; node : node }

and node =
  | Nil
  | Act of Action.t * t
  | Ev of Event.t * t
  | Choice of t * t
  | Par of t * t
  | Scope of scope
  | Restrict of Label.Set.t * t
  | Close of Resource.Set.t * t
  | If of Guard.t * t
  | Call of string * Expr.t list

and scope = {
  body : t;
  bound : Expr.t option;
  exc : (Label.t * t) option;
  timeout : t;
  interrupt : t option;
}

val id : t -> int
(** Unique per distinct term within a run.  Ids depend on interning order
    and are not deterministic across runs when several domains intern
    concurrently; use {!compare_structural} for canonical orderings. *)

val hash : t -> int
(** Memoized full-depth structural hash: O(1). *)

val node : t -> node

val equal : t -> t -> bool
(** Pointer equality — equivalent to structural equality of the underlying
    terms, in O(1). *)

val compare : t -> t -> int
(** Total order by {!id}; fast but not canonical across runs. *)

val compare_structural : t -> t -> int
(** Mirrors [Stdlib.compare] on the corresponding {!Proc.t} values exactly,
    short-circuiting on shared subterms.  Canonical across runs; this is
    the order successor rows are sorted in. *)

val compare_renamed :
  label:(Label.t -> Label.t) -> call:(string -> string) -> t -> t -> int
(** [compare_renamed ~label ~call a b] is {!compare_structural} of [a]
    and [b] with every label renamed by [label] and every called
    definition by [call], without building either image.  The renaming
    must be injective, so shared subterms still compare equal without a
    visit. *)

(** {1 Constructors} — raw (no simplification), interning. *)

val nil : t
val act : Action.t -> t -> t
val ev : Event.t -> t -> t
val choice : t -> t -> t
val par : t -> t -> t

val scope :
  body:t ->
  bound:Expr.t option ->
  exc:(Label.t * t) option ->
  timeout:t ->
  interrupt:t option ->
  t

val restrict : Label.Set.t -> t -> t
val close : Resource.Set.t -> t -> t
val if_ : Guard.t -> t -> t
val call : string -> Expr.t list -> t

(** {1 Conversions} *)

val of_proc : Proc.t -> t
(** Intern a plain term, bottom-up.  Structurally equal inputs return the
    same physical node. *)

val to_proc : t -> Proc.t
(** Rebuild the plain term; [to_proc (of_proc p) = p] structurally. *)

val table_size : unit -> int
(** Number of distinct nodes interned so far (the table is global and grows
    monotonically for the lifetime of the process). *)

type table_stats = {
  nodes : int;  (** interned nodes *)
  buckets : int;  (** buckets, summed over shards *)
  nonempty_buckets : int;  (** buckets holding at least one node *)
  max_chain : int;  (** longest bucket chain in any shard *)
}

val table_stats : unit -> table_stats
(** Shape of the intern table, summed over shards.  With a well-spread
    hash, [nonempty_buckets] is close to
    [buckets * (1 - exp (-nodes / buckets))] and [max_chain] stays small
    however large the table grows. *)

val pp : t Fmt.t
