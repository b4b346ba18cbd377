(** Integer expressions over the parameters of parameterized ACSR processes.

    Priorities of resource accesses and scope bounds may be expressions,
    which is how dynamic-priority schedulers such as EDF and LLF are encoded
    (paper, Section 5). *)

type t =
  | Int of int
  | Var of string
  | Neg of t
  | Add of t * t
  | Sub of t * t
  | Mul of t * t
  | Div of t * t
  | Mod of t * t
  | Min of t * t
  | Max of t * t

exception Unbound_parameter of string

module Env : Map.S with type key = string

val eval : int Env.t -> t -> int
(** [eval env e] evaluates [e] under the parameter valuation [env].
    @raise Unbound_parameter if a variable of [e] is missing from [env].
    @raise Division_by_zero on division or modulo by zero. *)

val free_vars : t -> string list
(** Free parameters of an expression, with duplicates. *)

val is_ground : t -> bool
(** [is_ground e] holds when [e] contains no parameters. *)

val subst : int Env.t -> t -> t
(** [subst env e] replaces parameters bound in [env] by their values and
    folds constant subterms.  Parameters not bound in [env] are kept. *)

val equal : t -> t -> bool
val compare : t -> t -> int
val to_string : t -> string
(** The text {!pp} prints, e.g. [min(e, 3) + (t - 1)]. *)

val pp : t Fmt.t
