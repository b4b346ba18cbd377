(* A small, dependency-free XML reader/writer, sufficient for the instance
   interchange format (Instance_xml).  Supports elements, attributes,
   text, comments, processing instructions, CDATA, self-closing tags and
   the five predefined entities. *)

type t =
  | Element of string * (string * string) list * t list
  | Text of string

(* plain substring search *)
module Str_find = struct
  let find haystack needle from =
    let n = String.length haystack and m = String.length needle in
    let rec go i =
      if i + m > n then None
      else if String.sub haystack i m = needle then Some i
      else go (i + 1)
    in
    go from
end

(* {1 Parsing} *)

type state = { input : string; mutable pos : int }

let peek st =
  if st.pos < String.length st.input then Some st.input.[st.pos] else None

let fail st msg =
  Diag.fail ~loc:(Diag.loc_of_offset st.input st.pos) "%s" msg

let starts_with st prefix =
  let n = String.length prefix in
  st.pos + n <= String.length st.input
  && String.sub st.input st.pos n = prefix

let skip st n = st.pos <- st.pos + n

let rec skip_ws st =
  match peek st with
  | Some (' ' | '\t' | '\n' | '\r') ->
      skip st 1;
      skip_ws st
  | _ -> ()

let is_name_char c =
  (c >= 'a' && c <= 'z')
  || (c >= 'A' && c <= 'Z')
  || (c >= '0' && c <= '9')
  || c = '_' || c = '-' || c = ':' || c = '.'

let parse_name st =
  let start = st.pos in
  while (match peek st with Some c -> is_name_char c | None -> false) do
    skip st 1
  done;
  if st.pos = start then fail st "expected a name";
  String.sub st.input start (st.pos - start)

let decode_entities st raw =
  let buf = Buffer.create (String.length raw) in
  let n = String.length raw in
  let i = ref 0 in
  while !i < n do
    if raw.[!i] = '&' then begin
      match String.index_from_opt raw !i ';' with
      | None -> fail st "unterminated entity"
      | Some j ->
          let entity = String.sub raw (!i + 1) (j - !i - 1) in
          (match entity with
          | "lt" -> Buffer.add_char buf '<'
          | "gt" -> Buffer.add_char buf '>'
          | "amp" -> Buffer.add_char buf '&'
          | "quot" -> Buffer.add_char buf '"'
          | "apos" -> Buffer.add_char buf '\''
          | e -> fail st ("unknown entity &" ^ e ^ ";"));
          i := j + 1
    end
    else begin
      Buffer.add_char buf raw.[!i];
      incr i
    end
  done;
  Buffer.contents buf

let parse_attr st =
  let name = parse_name st in
  skip_ws st;
  (match peek st with
  | Some '=' -> skip st 1
  | _ -> fail st "expected '=' after attribute name");
  skip_ws st;
  let quote =
    match peek st with
    | Some (('"' | '\'') as q) ->
        skip st 1;
        q
    | _ -> fail st "expected a quoted attribute value"
  in
  let start = st.pos in
  while (match peek st with Some c -> c <> quote | None -> false) do
    skip st 1
  done;
  if peek st = None then fail st "unterminated attribute value";
  let raw = String.sub st.input start (st.pos - start) in
  skip st 1;
  (name, decode_entities st raw)

let rec skip_misc st =
  skip_ws st;
  if starts_with st "<?" then begin
    (match Str_find.find st.input "?>" st.pos with
    | Some j -> st.pos <- j + 2
    | None -> fail st "unterminated processing instruction");
    skip_misc st
  end
  else if starts_with st "<!--" then begin
    (match Str_find.find st.input "-->" st.pos with
    | Some j -> st.pos <- j + 3
    | None -> fail st "unterminated comment");
    skip_misc st
  end

and parse_element st =
  if not (starts_with st "<") then fail st "expected '<'";
  skip st 1;
  let name = parse_name st in
  let rec attrs acc =
    skip_ws st;
    match peek st with
    | Some '/' | Some '>' -> List.rev acc
    | Some c when is_name_char c -> attrs (parse_attr st :: acc)
    | _ -> fail st "malformed attribute list"
  in
  let attributes = attrs [] in
  if starts_with st "/>" then begin
    skip st 2;
    Element (name, attributes, [])
  end
  else begin
    (match peek st with
    | Some '>' -> skip st 1
    | _ -> fail st "expected '>'");
    let children = parse_content st in
    if not (starts_with st "</") then fail st "expected a closing tag";
    skip st 2;
    let close = parse_name st in
    if close <> name then
      fail st (Fmt.str "mismatched closing tag </%s> for <%s>" close name);
    skip_ws st;
    (match peek st with
    | Some '>' -> skip st 1
    | _ -> fail st "expected '>' after closing tag");
    Element (name, attributes, children)
  end

and parse_content st =
  let items = ref [] in
  let buf = Buffer.create 16 in
  let flush_text () =
    let text = Buffer.contents buf in
    Buffer.clear buf;
    if String.trim text <> "" then
      items := Text (decode_entities st (String.trim text)) :: !items
  in
  let rec go () =
    match peek st with
    | None -> flush_text ()
    | Some '<' ->
        if starts_with st "</" then flush_text ()
        else if starts_with st "<!--" then begin
          flush_text ();
          (match Str_find.find st.input "-->" st.pos with
          | Some j -> st.pos <- j + 3
          | None -> fail st "unterminated comment");
          go ()
        end
        else if starts_with st "<![CDATA[" then begin
          (* CDATA content is verbatim: no entity decoding, no trimming *)
          flush_text ();
          (match Str_find.find st.input "]]>" st.pos with
          | Some j ->
              items :=
                Text (String.sub st.input (st.pos + 9) (j - st.pos - 9))
                :: !items;
              st.pos <- j + 3
          | None -> fail st "unterminated CDATA");
          go ()
        end
        else begin
          flush_text ();
          items := parse_element st :: !items;
          go ()
        end
    | Some c ->
        Buffer.add_char buf c;
        skip st 1;
        go ()
  in
  go ();
  List.rev !items

let parse_string input =
  let st = { input; pos = 0 } in
  skip_misc st;
  let root = parse_element st in
  skip_misc st;
  skip_ws st;
  if st.pos <> String.length input then fail st "trailing content";
  root

(* {1 Serialization} *)

let escape_text s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '<' -> Buffer.add_string buf "&lt;"
      | '>' -> Buffer.add_string buf "&gt;"
      | '&' -> Buffer.add_string buf "&amp;"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let escape_attr s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '<' -> Buffer.add_string buf "&lt;"
      | '&' -> Buffer.add_string buf "&amp;"
      | '"' -> Buffer.add_string buf "&quot;"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let rec pp ppf = function
  | Text s -> Fmt.string ppf (escape_text s)
  | Element (name, attrs, children) ->
      let pp_attr ppf (k, v) = Fmt.pf ppf " %s=\"%s\"" k (escape_attr v) in
      if children = [] then
        Fmt.pf ppf "<%s%a/>" name Fmt.(list ~sep:nop pp_attr) attrs
      else
        Fmt.pf ppf "@[<v 2><%s%a>@,%a@]@,</%s>" name
          Fmt.(list ~sep:nop pp_attr)
          attrs
          Fmt.(list ~sep:cut pp)
          children name

let to_string x = Fmt.str "%a" pp x

(* {1 Accessors} *)

let attr name = function
  | Element (_, attrs, _) -> List.assoc_opt name attrs
  | Text _ -> None

let children name = function
  | Element (_, _, kids) ->
      List.filter
        (function Element (n, _, _) -> n = name | Text _ -> false)
        kids
  | Text _ -> []

let child name x = match children name x with c :: _ -> Some c | [] -> None

let all_children = function
  | Element (_, _, kids) ->
      List.filter (function Element _ -> true | Text _ -> false) kids
  | Text _ -> []

let tag = function Element (n, _, _) -> Some n | Text _ -> None
