(** Hash-consed ACSR process terms.

    Within an intern {!table}, every distinct term has a unique physical
    representative: nodes are interned bottom-up, and each node memoizes
    a full-depth structural hash.  {!equal} is pointer equality and
    {!hash} is a field read, so the explorer's state table, keyed on
    vectors of slot terms ({!Frame}), hashes and compares a state in
    O(slots) — this is what makes exhaustive state-space exploration
    scale (cf. the VERSA tool, paper Section 5).

    Each exploration creates one table and drops it with its results.
    Every constructor takes the table to intern in, which a term's
    children must come from too ({!nil} belongs to every table): terms
    of two tables are never equal.

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
(** Unique per distinct term of its table, in interning order, so
    deterministic per exploration.  Canonical orderings use
    {!compare_structural}, so that successor rows come out in the
    reference engine's order. *)

val hash : t -> int
(** Memoized full-depth structural hash: O(1). *)

val node : t -> node

val equal : t -> t -> bool
(** Pointer equality: for terms of one table, structural equality in
    O(1). *)

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

(** {1 Intern tables} *)

type table
(** One exploration's terms, and dense ids for its labels and
    resources.  Single-owner: use a table on one domain only. *)

val create : unit -> table

val label_id : table -> Label.t -> int
(** Dense per table, in order of first request. *)

val resource_id : table -> Resource.t -> int
(** Dense per table, in order of first request, numbered apart from the
    labels. *)

val size : table -> int
(** Distinct nodes interned, {!nil} included. *)

val stats : table -> Hashtbl.statistics
(** Shape of the table.  With a well-spread hash, the non-empty buckets
    number about [buckets * (1 - exp (-nodes / buckets))] and the
    longest chain stays small however large the table grows. *)

(** {1 Constructors} — raw (no simplification), interning in the given
    table. *)

val nil : t

val act : table -> Action.t -> t -> t
val ev : table -> Event.t -> t -> t
val choice : table -> t -> t -> t
val par : table -> t -> t -> t

val scope :
  table ->
  body:t ->
  bound:Expr.t option ->
  exc:(Label.t * t) option ->
  timeout:t ->
  interrupt:t option ->
  t

val restrict : table -> Label.Set.t -> t -> t
val close : table -> Resource.Set.t -> t -> t
val if_ : table -> Guard.t -> t -> t
val call : table -> string -> Expr.t list -> t

(** {1 Conversions} *)

val of_proc : table -> Proc.t -> t
(** Intern a plain term, bottom-up.  Structurally equal inputs return the
    same physical node of the table. *)

val to_proc : t -> Proc.t
(** Rebuild the plain term; [to_proc (of_proc p) = p] structurally. *)

