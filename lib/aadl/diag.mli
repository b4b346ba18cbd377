(** The one diagnostic of the front end and the translation.

    Every site that rejects a model raises {!Error} with a diagnostic
    naming, in AADL terms, what is wrong and — when the rejecting site
    holds the AADL node — where it is in the source text.  [check]
    reports the same type without raising. *)

type severity = [ `Error | `Warning ]

type t = {
  severity : severity;
  loc : Ast.srcloc option;  (** position in the AADL text, when known *)
  subject : string list;
      (** instance path or classifier name the diagnostic is about;
          [[]] for the model as a whole *)
  message : string;
}

exception Error of t

val error :
  ?loc:Ast.srcloc ->
  ?subject:string list ->
  ('a, Format.formatter, unit, t) format4 ->
  'a
(** An error diagnostic.  [loc = Ast.no_loc] (nodes that were not read
    from text) counts as absent. *)

val warning :
  ?loc:Ast.srcloc ->
  ?subject:string list ->
  ('a, Format.formatter, unit, t) format4 ->
  'a

val fail :
  ?loc:Ast.srcloc ->
  ?subject:string list ->
  ('a, Format.formatter, unit, 'b) format4 ->
  'a
(** Raise {!Error} with an error diagnostic. *)

val loc_of_offset : string -> int -> Ast.srcloc
(** The line and column of a byte offset into a text. *)

val pp : ?file:string -> t Fmt.t
(** [FILE:LINE:COL: error: subject: message].  [FILE:] is printed when
    given, [LINE:COL:] when located, [subject:] when non-empty. *)

val to_string : ?file:string -> t -> string
