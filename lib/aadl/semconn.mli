(** Resolution of semantic port and access connections over the instance
    model (ultimate sources and destinations, paper Section 2). *)

type port_ref = { inst : string list; feature : string }

val pp_port_ref : port_ref Fmt.t

type link = { declared_in : string list; conn : Ast.connection }

type t = {
  kind : Ast.port_kind;
  src : port_ref;
  dst : port_ref;
  links : link list;
}

val pp : t Fmt.t

val props : t -> Ast.prop list
(** Properties of every traversed declared connection, source link first
    (later associations take precedence under {!Props.find}). *)

val resolve : Instance.t -> t list
(** Every semantic port connection of the instance model: one per
    (ultimate source port, reachable ultimate destination port) pair. *)

val is_event_like : t -> bool
(** Event and event-data connections: they dispatch aperiodic threads and
    are queued at the destination; pure data connections are not. *)

val incoming : t list -> Instance.t -> t list
val outgoing : t list -> Instance.t -> t list

val dst_feature : Instance.t -> t -> Ast.feature option
(** The feature at the ultimate destination, whose [Queue_Size] and
    [Overflow_Handling_Protocol] govern the connection's queue process. *)

val src_feature : Instance.t -> t -> Ast.feature option

val name : t -> string
(** Stable readable identifier used for ACSR label generation. *)

type access = {
  thread : string list;
  access_feature : string;
  data : string list;
  access_props : Ast.prop list;
}

val resolve_access : Instance.t -> access list
(** Semantic access connections from thread [requires data access]
    features to shared data components. *)
