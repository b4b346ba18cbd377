(** Recursive-descent parser for the textual AADL subset. *)

val parse_string : string -> Ast.model
(** Parse a compilation unit from a string.
    @raise Diag.Error on lexical and syntax errors. *)

val parse_file : string -> Ast.model
(** Parse a compilation unit from a file. *)
