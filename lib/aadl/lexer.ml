(* Hand-written lexer for the textual AADL subset.

   AADL is case-insensitive for keywords and identifiers; we preserve the
   original spelling in tokens and normalize at comparison points.
   Comments run from "--" to end of line. *)

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
  | ARROW  (** [->] *)
  | BIARROW  (** [<->] *)
  | DARROW  (** [=>] *)
  | PLUSDARROW  (** [+=>] *)
  | STAR
  | LBRACKET
  | RBRACKET
  | TRANSL  (** [-\[], opening a mode transition *)
  | EOF

let pp_token ppf = function
  | IDENT s -> Fmt.pf ppf "identifier %S" s
  | INT n -> Fmt.pf ppf "integer %d" n
  | REAL f -> Fmt.pf ppf "real %g" f
  | STRING s -> Fmt.pf ppf "string %S" s
  | LPAREN -> Fmt.string ppf "'('"
  | RPAREN -> Fmt.string ppf "')'"
  | LBRACE -> Fmt.string ppf "'{'"
  | RBRACE -> Fmt.string ppf "'}'"
  | COLON -> Fmt.string ppf "':'"
  | SEMI -> Fmt.string ppf "';'"
  | COMMA -> Fmt.string ppf "','"
  | DOT -> Fmt.string ppf "'.'"
  | DOTDOT -> Fmt.string ppf "'..'"
  | ARROW -> Fmt.string ppf "'->'"
  | BIARROW -> Fmt.string ppf "'<->'"
  | DARROW -> Fmt.string ppf "'=>'"
  | PLUSDARROW -> Fmt.string ppf "'+=>'"
  | STAR -> Fmt.string ppf "'*'"
  | LBRACKET -> Fmt.string ppf "'['"
  | RBRACKET -> Fmt.string ppf "']'"
  | TRANSL -> Fmt.string ppf "'-['"
  | EOF -> Fmt.string ppf "end of input"

type state = {
  input : string;
  mutable pos : int;
  mutable line : int;
  mutable bol : int;  (** offset of the beginning of the current line *)
}

let loc st = { Ast.line = st.line; col = st.pos - st.bol + 1 }

let peek st = if st.pos < String.length st.input then Some st.input.[st.pos] else None

let peek2 st =
  if st.pos + 1 < String.length st.input then Some st.input.[st.pos + 1]
  else None

let advance st =
  (match peek st with
  | Some '\n' ->
      st.line <- st.line + 1;
      st.bol <- st.pos + 1
  | _ -> ());
  st.pos <- st.pos + 1

let is_digit c = c >= '0' && c <= '9'
let is_alpha c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
let is_ident_char c = is_alpha c || is_digit c || c = '_'

let rec skip_trivia st =
  match peek st with
  | Some (' ' | '\t' | '\r' | '\n') ->
      advance st;
      skip_trivia st
  | Some '-' when peek2 st = Some '-' ->
      (* comment to end of line *)
      let rec to_eol () =
        match peek st with
        | Some '\n' | None -> ()
        | Some _ ->
            advance st;
            to_eol ()
      in
      to_eol ();
      skip_trivia st
  | Some _ | None -> ()

let lex_number st =
  let start = st.pos in
  let from = loc st in
  while (match peek st with Some c -> is_digit c | None -> false) do
    advance st
  done;
  (* a real has digits '.' digits; '..' means a range, not a real *)
  let is_real =
    peek st = Some '.'
    && (match peek2 st with Some c -> is_digit c | None -> false)
  in
  if is_real then begin
    advance st;
    while (match peek st with Some c -> is_digit c | None -> false) do
      advance st
    done;
    let text = String.sub st.input start (st.pos - start) in
    match float_of_string_opt text with
    | Some f -> (REAL f, from)
    | None -> Diag.fail ~loc:from "malformed real %S" text
  end
  else
    let text = String.sub st.input start (st.pos - start) in
    match int_of_string_opt text with
    | Some n -> (INT n, from)
    | None -> Diag.fail ~loc:from "malformed integer %S" text

let lex_ident st =
  let start = st.pos in
  let from = loc st in
  while (match peek st with Some c -> is_ident_char c | None -> false) do
    advance st
  done;
  (IDENT (String.sub st.input start (st.pos - start)), from)

let lex_string st =
  let from = loc st in
  advance st (* opening quote *);
  let buf = Buffer.create 16 in
  let rec go () =
    match peek st with
    | None -> Diag.fail ~loc:from "unterminated string literal"
    | Some '"' -> advance st
    | Some c ->
        Buffer.add_char buf c;
        advance st;
        go ()
  in
  go ();
  (STRING (Buffer.contents buf), from)

let next_token st =
  skip_trivia st;
  let from = loc st in
  match peek st with
  | None -> (EOF, from)
  | Some c when is_digit c -> lex_number st
  | Some c when is_alpha c || c = '_' -> lex_ident st
  | Some '"' -> lex_string st
  | Some '(' ->
      advance st;
      (LPAREN, from)
  | Some ')' ->
      advance st;
      (RPAREN, from)
  | Some '{' ->
      advance st;
      (LBRACE, from)
  | Some '}' ->
      advance st;
      (RBRACE, from)
  | Some ':' ->
      advance st;
      (COLON, from)
  | Some ';' ->
      advance st;
      (SEMI, from)
  | Some ',' ->
      advance st;
      (COMMA, from)
  | Some '*' ->
      advance st;
      (STAR, from)
  | Some '.' ->
      advance st;
      if peek st = Some '.' then begin
        advance st;
        (DOTDOT, from)
      end
      else (DOT, from)
  | Some '-' when peek2 st = Some '>' ->
      advance st;
      advance st;
      (ARROW, from)
  | Some '-' when peek2 st = Some '[' ->
      advance st;
      advance st;
      (TRANSL, from)
  | Some '[' ->
      advance st;
      (LBRACKET, from)
  | Some ']' ->
      advance st;
      (RBRACKET, from)
  | Some '<' when peek2 st = Some '-' ->
      advance st;
      advance st;
      if peek st = Some '>' then begin
        advance st;
        (BIARROW, from)
      end
      else Diag.fail ~loc:from "expected '<->'"
  | Some '=' when peek2 st = Some '>' ->
      advance st;
      advance st;
      (DARROW, from)
  | Some '+' when peek2 st = Some '=' ->
      advance st;
      advance st;
      if peek st = Some '>' then begin
        advance st;
        (PLUSDARROW, from)
      end
      else Diag.fail ~loc:from "expected '+=>'"
  | Some '-' ->
      (* negative number literal *)
      advance st;
      (match peek st with
      | Some c when is_digit c -> (
          match lex_number st with
          | INT n, _ -> (INT (-n), from)
          | REAL f, _ -> (REAL (-.f), from)
          | t, _ -> Diag.fail ~loc:from "unexpected %a after '-'" pp_token t)
      | _ -> Diag.fail ~loc:from "stray '-'")
  | Some c -> Diag.fail ~loc:from "unexpected character %C" c

let tokenize input =
  let st = { input; pos = 0; line = 1; bol = 0 } in
  let rec go acc =
    let tok, l = next_token st in
    match tok with EOF -> List.rev ((tok, l) :: acc) | _ -> go ((tok, l) :: acc)
  in
  go []
