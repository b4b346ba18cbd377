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

type t
(** A tokenized compilation unit. *)

val tokenize : string -> t
(** Tokenize a whole compilation unit; the result always ends with [EOF].
    @raise Diag.Error on malformed input. *)

val length : t -> int
(** Number of tokens, the final [EOF] included. *)

val token : t -> int -> token
(** The token at an index below {!length}. *)

val loc : t -> int -> Ast.srcloc
(** Where the token at an index starts. *)
