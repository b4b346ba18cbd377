(** A minimal XML reader/writer (elements, attributes, text, comments,
    CDATA, predefined entities) for the instance interchange format. *)

type t =
  | Element of string * (string * string) list * t list
  | Text of string

val parse_string : string -> t
(** @raise Diag.Error located at the offending character. *)

val pp : t Fmt.t
val to_string : t -> string
val attr : string -> t -> string option
val children : string -> t -> t list
val child : string -> t -> t option
val all_children : t -> t list
val tag : t -> string option
