(** Legality checks matching the translation preconditions of Section 4.1
    of the paper. *)

val errors : Diag.t list -> Diag.t list
val is_ok : Diag.t list -> bool

val run : Instance.t -> Diag.t list
(** All diagnostics for the instance model, errors and warnings. *)

val pp_report : ?file:string -> Diag.t list Fmt.t
