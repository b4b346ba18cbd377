(** Lexer for the textual AADL subset. *)

type token =
  | IDENT of string
  | INT of int
  | REAL of float
  | STRING of string
  | LPAREN
  | RPAREN
  | LBRACE
  | RBRACE
  | COLON
  | SEMI
  | COMMA
  | DOT
  | DOTDOT
  | ARROW
  | BIARROW
  | DARROW
  | PLUSDARROW
  | STAR
  | LBRACKET
  | RBRACKET
  | TRANSL
  | EOF

val pp_token : token Fmt.t

val tokenize : string -> (token * Ast.srcloc) list
(** Tokenize a whole compilation unit; the result always ends with [EOF].
    @raise Diag.Error on malformed input. *)
