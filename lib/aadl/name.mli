(** AADL identifiers are case-insensitive (AS5506): comparisons that
    build no lowercase copies. *)

val equal : string -> string -> bool
(** [equal a b] iff [String.lowercase_ascii a = String.lowercase_ascii b]. *)

val equal_path : string list -> string list -> bool
(** Element-wise {!equal}, lists of the same length. *)

val mem : string -> string list -> bool
(** Some element is {!equal} to the name. *)
