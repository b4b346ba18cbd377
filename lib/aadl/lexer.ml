(* Hand-written lexer for the textual AADL subset.

   AADL is case-insensitive for keywords and identifiers; we preserve the
   original spelling in tokens and compare case-insensitively (with
   [Name.equal], in place) at comparison points.
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

(* [at st k c]: the character [k] places ahead is [c].  Only [advance]
   may step over a newline; the run scanners below never meet one. *)
type state = {
  input : string;
  len : int;
  mutable pos : int;
  mutable line : int;
  mutable bol : int;  (** offset of the beginning of the current line *)
}

(* A tokenized unit: the tokens and, at the same index, their packed
   positions (line in the high bits, column in the low [col_bits]), so a
   token costs no tuple or location record until the parser asks for its
   position.  Both are stored in chunks of [chunk] entries: arrays that
   small are allocated in the minor heap, where a parse's token store
   dies young, rather than directly in the major heap. *)
type t = { tokens : token array array; locs : int array array; count : int }

let col_bits = 31
let col_mask = (1 lsl col_bits) - 1
let chunk_bits = 6
let chunk = 1 lsl chunk_bits
let length t = t.count
let token t i = t.tokens.(i lsr chunk_bits).(i land (chunk - 1))

let loc t i =
  let p = t.locs.(i lsr chunk_bits).(i land (chunk - 1)) in
  { Ast.line = p lsr col_bits; col = p land col_mask }

let here st = { Ast.line = st.line; col = st.pos - st.bol + 1 }
let packed st = (st.line lsl col_bits) lor (st.pos - st.bol + 1)

let at st k c =
  st.pos + k < st.len && Char.equal (String.unsafe_get st.input (st.pos + k)) c

let advance st =
  if Char.equal (String.unsafe_get st.input st.pos) '\n' then begin
    st.line <- st.line + 1;
    st.bol <- st.pos + 1
  end;
  st.pos <- st.pos + 1

let is_digit c = c >= '0' && c <= '9'

(* The end of the run of digits, or of identifier characters, starting
   at [i]; neither run contains a newline. *)
let rec digits_end s len i =
  if i < len && is_digit (String.unsafe_get s i) then digits_end s len (i + 1)
  else i

let rec ident_end s len i =
  if i < len then
    match String.unsafe_get s i with
    | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> ident_end s len (i + 1)
    | _ -> i
  else i

let rec skip_trivia st =
  if st.pos < st.len then
    match String.unsafe_get st.input st.pos with
    | ' ' | '\t' | '\r' | '\n' ->
        advance st;
        skip_trivia st
    | '-' when at st 1 '-' ->
        (* comment to end of line *)
        while st.pos < st.len && not (at st 0 '\n') do
          st.pos <- st.pos + 1
        done;
        skip_trivia st
    | _ -> ()

(* The decimal digits in [start, stop), or -1 past [max_int] (the bound
   [int_of_string] applies). *)
let int_of_digits input start stop =
  let rec go n i =
    if i = stop then n
    else
      let d = Char.code (String.unsafe_get input i) - Char.code '0' in
      if n > (max_int - d) / 10 then -1 else go ((n * 10) + d) (i + 1)
  in
  go 0 start

(* A failure located at offset [start] of the current line. *)
let fail_at st start fmt =
  Diag.fail ~loc:{ Ast.line = st.line; col = start - st.bol + 1 } fmt

let lex_number st =
  let start = st.pos in
  st.pos <- digits_end st.input st.len start;
  (* a real has digits '.' digits; '..' means a range, not a real *)
  if
    at st 0 '.'
    && st.pos + 1 < st.len
    && is_digit (String.unsafe_get st.input (st.pos + 1))
  then begin
    st.pos <- digits_end st.input st.len (st.pos + 1);
    let text = String.sub st.input start (st.pos - start) in
    match float_of_string_opt text with
    | Some f -> REAL f
    | None -> fail_at st start "malformed real %S" text
  end
  else
    match int_of_digits st.input start st.pos with
    | -1 ->
        fail_at st start "malformed integer %S"
          (String.sub st.input start (st.pos - start))
    | n -> INT n

let lex_ident st =
  let start = st.pos in
  st.pos <- ident_end st.input st.len start;
  IDENT (String.sub st.input start (st.pos - start))

(* String literals may span lines, so this loop tracks them. *)
let lex_string st =
  let from = here st in
  advance st (* opening quote *);
  let start = st.pos in
  while st.pos < st.len && not (at st 0 '"') do
    advance st
  done;
  if st.pos >= st.len then Diag.fail ~loc:from "unterminated string literal";
  let s = String.sub st.input start (st.pos - start) in
  advance st;
  STRING s

(* One token starting at the current position (trivia already skipped).
   Positions are those of the first character, so a failure raised here
   is located where the token starts. *)
let step st n tok =
  st.pos <- st.pos + n;
  tok

let next_token st =
  if st.pos >= st.len then EOF
  else
    match String.unsafe_get st.input st.pos with
    | '0' .. '9' -> lex_number st
    | 'a' .. 'z' | 'A' .. 'Z' | '_' -> lex_ident st
    | '"' -> lex_string st
    | '(' -> step st 1 LPAREN
    | ')' -> step st 1 RPAREN
    | '{' -> step st 1 LBRACE
    | '}' -> step st 1 RBRACE
    | ':' -> step st 1 COLON
    | ';' -> step st 1 SEMI
    | ',' -> step st 1 COMMA
    | '*' -> step st 1 STAR
    | '.' -> if at st 1 '.' then step st 2 DOTDOT else step st 1 DOT
    | '-' when at st 1 '>' -> step st 2 ARROW
    | '-' when at st 1 '[' -> step st 2 TRANSL
    | '[' -> step st 1 LBRACKET
    | ']' -> step st 1 RBRACKET
    | '<' when at st 1 '-' ->
        if at st 2 '>' then step st 3 BIARROW
        else Diag.fail ~loc:(here st) "expected '<->'"
    | '=' when at st 1 '>' -> step st 2 DARROW
    | '+' when at st 1 '=' ->
        if at st 2 '>' then step st 3 PLUSDARROW
        else Diag.fail ~loc:(here st) "expected '+=>'"
    | '-' -> (
        (* negative number literal *)
        let from = here st in
        st.pos <- st.pos + 1;
        if st.pos < st.len && is_digit (String.unsafe_get st.input st.pos)
        then
          match lex_number st with
          | INT n -> INT (-n)
          | REAL f -> REAL (-.f)
          | t -> Diag.fail ~loc:from "unexpected %a after '-'" pp_token t
        else Diag.fail ~loc:from "stray '-'")
    | c -> Diag.fail ~loc:(here st) "unexpected character %C" c

let tokenize input =
  let st = { input; len = String.length input; pos = 0; line = 1; bol = 0 } in
  let tokens = ref [] and locs = ref [] in
  (* fill the current chunk from index [k]; [n] tokens so far *)
  let rec fill toks lcs k n =
    skip_trivia st;
    lcs.(k) <- packed st;
    let tok = next_token st in
    toks.(k) <- tok;
    match tok with
    | EOF -> n + 1
    | _ -> if k + 1 = chunk then new_chunk (n + 1) else fill toks lcs (k + 1) (n + 1)
  and new_chunk n =
    let toks = Array.make chunk EOF and lcs = Array.make chunk 0 in
    tokens := toks :: !tokens;
    locs := lcs :: !locs;
    fill toks lcs 0 n
  in
  let count = new_chunk 0 in
  {
    tokens = Array.of_list (List.rev !tokens);
    locs = Array.of_list (List.rev !locs);
    count;
  }
