(** The AADL instance model: the tree obtained by instantiating a root
    system implementation. *)

type t = {
  name : string;
  path : string list;
  category : Ast.category;
  classifier : string option;
  features : Ast.feature list;
  props : Ast.prop list;
  connections : Ast.connection list;
  modes : Ast.mode list;
  transitions : Ast.mode_transition list;
  in_modes : string list;
  children : t list;
  loc : Ast.srcloc;
      (** the subcomponent declaration (the implementation for the
          root); [Ast.no_loc] when read from instance XML *)
}

val initial_mode : t -> string option
(** The initial mode (or the first declared one); [None] for modeless
    components. *)

val is_modal : t -> bool
(** More than one mode declared. *)

val pp_path : string list Fmt.t
val path_to_string : string list -> string

val find : t -> string list -> t option
(** Descend by subcomponent names (case-insensitive). *)

val find_exn : t -> string list -> t

val fold : ('a -> t -> 'a) -> 'a -> t -> 'a
(** Pre-order fold. *)

val iter : (t -> unit) -> t -> unit
val all : t -> t list
val by_category : Ast.category -> t -> t list
val threads : t -> t list
val processors : t -> t list
val buses : t -> t list
val devices : t -> t list
val data_components : t -> t list
val feature_opt : t -> string -> Ast.feature option
val is_thread_or_device : t -> bool

val resolve_reference : root:t -> from:string list -> string list -> t option
(** Resolve a reference path against the namespace of [from], searching
    enclosing scopes outward and finally the root. *)

val pp : t Fmt.t
