(* Minimal JSON: a recursive-descent parser over the input string and a
   compact printer.  See json.mli for the scope argument. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

exception Fail of string * int  (* message, byte offset *)

let fail pos msg = raise (Fail (msg, pos))

let is_ws = function ' ' | '\t' | '\n' | '\r' -> true | _ -> false

(* UTF-8-encode one code point into the buffer (for \uXXXX escapes). *)
let add_utf8 buf cp =
  if cp < 0x80 then Buffer.add_char buf (Char.chr cp)
  else if cp < 0x800 then begin
    Buffer.add_char buf (Char.chr (0xC0 lor (cp lsr 6)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
  end
  else begin
    Buffer.add_char buf (Char.chr (0xE0 lor (cp lsr 12)));
    Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
  end

type cursor = { s : string; mutable i : int }

(* [at c ch]: the character at the cursor is [ch]. *)
let at c ch = c.i < String.length c.s && Char.equal (String.unsafe_get c.s c.i) ch

let skip_ws c =
  while c.i < String.length c.s && is_ws c.s.[c.i] do
    c.i <- c.i + 1
  done

let expect c ch =
  if at c ch then c.i <- c.i + 1
  else fail c.i (Printf.sprintf "expected %C" ch)

let hex_digit c ch =
  match ch with
  | '0' .. '9' -> Char.code ch - Char.code '0'
  | 'a' .. 'f' -> Char.code ch - Char.code 'a' + 10
  | 'A' .. 'F' -> Char.code ch - Char.code 'A' + 10
  | _ -> fail c.i "bad hex digit in \\u escape"

(* The escape-decoding path of [parse_string_body], from the cursor on,
   after the already-scanned [prefix]. *)
let parse_escaped_string c prefix =
  let buf = Buffer.create (String.length prefix + 16) in
  Buffer.add_string buf prefix;
  let rec go () =
    if c.i >= String.length c.s then fail c.i "unterminated string";
    let ch = c.s.[c.i] in
    c.i <- c.i + 1;
    match ch with
    | '"' -> Buffer.contents buf
    | '\\' -> (
        if c.i >= String.length c.s then fail c.i "unterminated escape";
        let e = c.s.[c.i] in
        c.i <- c.i + 1;
        (match e with
        | '"' -> Buffer.add_char buf '"'
        | '\\' -> Buffer.add_char buf '\\'
        | '/' -> Buffer.add_char buf '/'
        | 'b' -> Buffer.add_char buf '\b'
        | 'f' -> Buffer.add_char buf '\012'
        | 'n' -> Buffer.add_char buf '\n'
        | 'r' -> Buffer.add_char buf '\r'
        | 't' -> Buffer.add_char buf '\t'
        | 'u' ->
            if c.i + 4 > String.length c.s then fail c.i "truncated \\u escape";
            let cp =
              (hex_digit c c.s.[c.i] lsl 12)
              lor (hex_digit c c.s.[c.i + 1] lsl 8)
              lor (hex_digit c c.s.[c.i + 2] lsl 4)
              lor hex_digit c c.s.[c.i + 3]
            in
            c.i <- c.i + 4;
            add_utf8 buf cp
        | _ -> fail (c.i - 1) "unknown escape");
        go ())
    | _ ->
        Buffer.add_char buf ch;
        go ()
  in
  go ()

let parse_string_body c =
  (* cursor is just past the opening quote; a string without escapes,
     the usual case, is one substring *)
  let s = c.s and start = c.i in
  let rec scan j =
    if j >= String.length s then begin
      c.i <- j;
      fail c.i "unterminated string"
    end
    else
      match String.unsafe_get s j with
      | '"' ->
          c.i <- j + 1;
          String.sub s start (j - start)
      | '\\' ->
          c.i <- j;
          parse_escaped_string c (String.sub s start (j - start))
      | _ -> scan (j + 1)
  in
  scan start

let parse_number c =
  let start = c.i in
  let consume pred =
    while c.i < String.length c.s && pred c.s.[c.i] do
      c.i <- c.i + 1
    done
  in
  if at c '-' then c.i <- c.i + 1;
  consume (function '0' .. '9' -> true | _ -> false);
  let is_float = ref false in
  if at c '.' then begin
    is_float := true;
    c.i <- c.i + 1;
    consume (function '0' .. '9' -> true | _ -> false)
  end;
  if at c 'e' || at c 'E' then begin
    is_float := true;
    c.i <- c.i + 1;
    if at c '+' || at c '-' then c.i <- c.i + 1;
    consume (function '0' .. '9' -> true | _ -> false)
  end;
  let text = String.sub c.s start (c.i - start) in
  if !is_float then
    match float_of_string_opt text with
    | Some f -> Float f
    | None -> fail start "bad number"
  else
    match int_of_string_opt text with
    | Some n -> Int n
    | None -> (
        (* an integer literal too large for [int]: keep it as a float *)
        match float_of_string_opt text with
        | Some f -> Float f
        | None -> fail start "bad number")

let literal c word v =
  let n = String.length word in
  let rec same k =
    k = n || (Char.equal c.s.[c.i + k] word.[k] && same (k + 1))
  in
  if c.i + n <= String.length c.s && same 0 then begin
    c.i <- c.i + n;
    v
  end
  else fail c.i (Printf.sprintf "expected %s" word)

let rec parse_value c =
  skip_ws c;
  if c.i >= String.length c.s then fail c.i "unexpected end of input";
  match c.s.[c.i] with
  | '"' ->
      c.i <- c.i + 1;
      String (parse_string_body c)
  | '{' ->
      c.i <- c.i + 1;
      skip_ws c;
      if at c '}' then begin
        c.i <- c.i + 1;
        Obj []
      end
      else
        let rec fields acc =
          skip_ws c;
          expect c '"';
          let k = parse_string_body c in
          skip_ws c;
          expect c ':';
          let v = parse_value c in
          skip_ws c;
          if at c ',' then begin
            c.i <- c.i + 1;
            fields ((k, v) :: acc)
          end
          else if at c '}' then begin
            c.i <- c.i + 1;
            Obj (List.rev ((k, v) :: acc))
          end
          else fail c.i "expected ',' or '}'"
        in
        fields []
  | '[' ->
      c.i <- c.i + 1;
      skip_ws c;
      if at c ']' then begin
        c.i <- c.i + 1;
        List []
      end
      else
        let rec elems acc =
          let v = parse_value c in
          skip_ws c;
          if at c ',' then begin
            c.i <- c.i + 1;
            elems (v :: acc)
          end
          else if at c ']' then begin
            c.i <- c.i + 1;
            List (List.rev (v :: acc))
          end
          else fail c.i "expected ',' or ']'"
        in
        elems []
  | 't' -> literal c "true" (Bool true)
  | 'f' -> literal c "false" (Bool false)
  | 'n' -> literal c "null" Null
  | '-' | '0' .. '9' -> parse_number c
  | ch -> fail c.i (Printf.sprintf "unexpected %C" ch)

let parse s =
  let c = { s; i = 0 } in
  match parse_value c with
  | v ->
      skip_ws c;
      if c.i < String.length s then
        Error (Printf.sprintf "trailing garbage at offset %d" c.i)
      else Ok v
  | exception Fail (msg, pos) ->
      Error (Printf.sprintf "%s at offset %d" msg pos)

let escape_into buf s =
  String.iter
    (fun ch ->
      match ch with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\b' -> Buffer.add_string buf "\\b"
      | '\012' -> Buffer.add_string buf "\\f"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s

let rec print_into buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int n -> Buffer.add_string buf (string_of_int n)
  | Float f ->
      if Float.is_integer f && Float.abs f < 1e15 then
        Printf.bprintf buf "%.1f" f
      else Printf.bprintf buf "%.17g" f
  | String s ->
      Buffer.add_char buf '"';
      escape_into buf s;
      Buffer.add_char buf '"'
  | List vs ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i v ->
          if i > 0 then Buffer.add_char buf ',';
          print_into buf v)
        vs;
      Buffer.add_char buf ']'
  | Obj fields ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          Buffer.add_char buf '"';
          escape_into buf k;
          Buffer.add_string buf "\":";
          print_into buf v)
        fields;
      Buffer.add_char buf '}'

let to_string v =
  let buf = Buffer.create 128 in
  print_into buf v;
  Buffer.contents buf

let member k = function
  | Obj fields -> List.assoc_opt k fields
  | _ -> None

let to_str = function String s -> Some s | _ -> None

let to_int = function
  | Int n -> Some n
  | Float f when Float.is_integer f && Float.abs f <= 2. ** 52. ->
      Some (int_of_float f)
  | _ -> None

let to_float = function
  | Float f -> Some f
  | Int n -> Some (float_of_int n)
  | _ -> None

let to_bool = function Bool b -> Some b | _ -> None
