(** Symbol table over parsed declarations. *)

type t

val of_model : Ast.model -> t
(** @raise Diag.Error at the second of two declarations of one name. *)

val find_type_opt : t -> string -> Ast.component_type option
val find_impl_opt : t -> string -> Ast.component_impl option

type classifier =
  | Type_only of Ast.component_type
  | Type_and_impl of Ast.component_type * Ast.component_impl

val resolve_classifier : t -> string -> classifier option
(** Resolve ["name"] to a type or ["name.impl"] to a type/implementation
    pair; [None] when either is not declared. *)

val impls : t -> Ast.component_impl list
