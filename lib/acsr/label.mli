(** Labels naming ACSR event channels. *)

type t

val make : string -> t
(** [make name] creates a label named [name].
    @raise Invalid_argument if [name] is empty. *)

val name : t -> string
val compare : t -> t -> int
val equal : t -> t -> bool
val pp : t Fmt.t

val id : t -> int
(** A small non-negative integer per distinct label, the same for the
    lifetime of the process: ids are dense, assigned in order of first
    use.  Domain-safe (mutex-guarded). *)

module Set : Set.S with type elt = t
module Map : Map.S with type key = t

val set_of_list : t list -> Set.t
(** Canonical set construction: two calls with the same element set yield
    structurally equal values, regardless of input order.  Use this (or
    {!canonical_set}) for sets embedded in process terms, which are
    compared structurally. *)

val canonical_set : Set.t -> Set.t

val pp_set : Set.t Fmt.t
