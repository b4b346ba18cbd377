(** Boolean guards over process parameters. *)

type t =
  | True
  | False
  | Cmp of cmp * Expr.t * Expr.t
  | And of t * t
  | Or of t * t
  | Not of t

and cmp = Eq | Ne | Lt | Le | Gt | Ge

(** {1 Constructors} *)

val eq : Expr.t -> Expr.t -> t
val lt : Expr.t -> Expr.t -> t
val le : Expr.t -> Expr.t -> t
val gt : Expr.t -> Expr.t -> t
val ge : Expr.t -> Expr.t -> t
val conj : t -> t -> t
val neg : t -> t

(** {1 Evaluation} *)

val eval : int Expr.Env.t -> t -> bool
(** @raise Expr.Unbound_parameter if a free parameter is not in the env. *)

val subst : int Expr.Env.t -> t -> t
(** Substitute bound parameters and simplify decided subformulas. *)

val free_vars : t -> string list
val is_ground : t -> bool
val pp : t Fmt.t
