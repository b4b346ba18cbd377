(** Instantiation of a declarative model into an instance tree. *)

val instantiate : Ast.model -> root:string -> Instance.t
(** [instantiate model ~root] expands the implementation named [root]
    (["type.impl"], or a bare type name with a unique implementation).
    @raise Diag.Error on unknown classifiers, category mismatches or cycles. *)

val of_string : ?root:string -> string -> Instance.t
(** Parse and instantiate in one step.  Without [root], picks the unique
    system implementation not used as a subcomponent. *)
