(** Legality checks matching the translation preconditions of Section 4.1
    of the paper. *)

val errors : Diag.t list -> Diag.t list
val is_ok : Diag.t list -> bool

val run : Binding.t -> Diag.t list
(** All diagnostics for the resolved instance model, errors and warnings.
    @raise Diag.Error with the first unresolvable thread binding, when the
    model has a processor (see {!Binding.threads_by_processor}). *)

val pp_report : ?file:string -> Diag.t list Fmt.t
