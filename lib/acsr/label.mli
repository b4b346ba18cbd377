(** Labels naming ACSR event channels.  A label is its name; an
    exploration that compares labels as small integers numbers them in
    its own intern table ({!Hproc.label_id}). *)

type t

val make : string -> t
(** [make name] creates a label named [name].
    @raise Invalid_argument if [name] is empty. *)

val name : t -> string
val compare : t -> t -> int
val equal : t -> t -> bool
val pp : t Fmt.t

module Set : Set.S with type elt = t
module Map : Map.S with type key = t

val set_of_list : t list -> Set.t
(** Canonical set construction: two calls with the same element set yield
    structurally equal values, regardless of input order.  Use this (or
    {!canonical_set}) for sets embedded in process terms, which are
    compared structurally. *)

val canonical_set : Set.t -> Set.t

val pp_set : Set.t Fmt.t
