(** XML interchange for instance models (OSATE-inspired: the paper's tool
    chain consumes OSATE's XML-based internal representation).

    The format round-trips every field of {!Instance.t} except source
    locations and the [applies to] paths of property associations, which
    are already resolved in an instance model. *)

val to_xml : Instance.t -> Xml.t
val of_xml : Xml.t -> Instance.t
val to_string : Instance.t -> string

val of_string : string -> Instance.t
(** @raise Diag.Error on malformed XML or schema violations. *)

val write_file : string -> Instance.t -> unit
val read_file : string -> Instance.t
