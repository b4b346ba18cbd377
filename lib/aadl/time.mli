(** AADL time values, normalized to nanoseconds. *)

type unit_ = Ps | Ns | Us | Ms | Sec | Min | Hr

type t

val make : int -> unit_ -> t
(** @raise Invalid_argument for picoseconds that are not a whole number
    of nanoseconds (the parser rejects those literals first). *)

val zero : t
val of_ns : int -> t
val to_ns : t -> int
val of_ms : int -> t
val add : t -> t -> t
val compare : t -> t -> int
val equal : t -> t -> bool
val is_zero : t -> bool

val unit_of_string : string -> unit_ option
val unit_to_string : unit_ -> string

val to_quanta : quantum:t -> t -> int
(** Number of scheduling quanta covering this duration, rounding up. *)

val to_quanta_floor : quantum:t -> t -> int
(** Number of whole scheduling quanta within this duration. *)

val pp : t Fmt.t
