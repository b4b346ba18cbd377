(* One diagnostic type for every rejected model, located in the AADL
   text when the rejecting site holds the node it rejects. *)

type severity = [ `Error | `Warning ]

type t = {
  severity : severity;
  loc : Ast.srcloc option;
  subject : string list;
  message : string;
}

exception Error of t

let make severity ?loc ?(subject = []) k fmt =
  let loc = match loc with Some l when l = Ast.no_loc -> None | l -> l in
  Fmt.kstr (fun message -> k { severity; loc; subject; message }) fmt

let error ?loc ?subject fmt = make `Error ?loc ?subject Fun.id fmt
let warning ?loc ?subject fmt = make `Warning ?loc ?subject Fun.id fmt
let fail ?loc ?subject fmt = make `Error ?loc ?subject (fun d -> raise (Error d)) fmt

let loc_of_offset text offset =
  let offset = min offset (String.length text) in
  let line = ref 1 and bol = ref 0 in
  for i = 0 to offset - 1 do
    if text.[i] = '\n' then begin
      incr line;
      bol := i + 1
    end
  done;
  { Ast.line = !line; col = offset - !bol + 1 }

let pp ?file ppf d =
  Option.iter (Fmt.pf ppf "%s:") file;
  Option.iter (fun (l : Ast.srcloc) -> Fmt.pf ppf "%d:%d:" l.line l.col) d.loc;
  if file <> None || d.loc <> None then Fmt.string ppf " ";
  Fmt.string ppf (match d.severity with `Error -> "error" | `Warning -> "warning");
  if d.subject <> [] then
    Fmt.pf ppf ": %a" Fmt.(list ~sep:(any ".") string) d.subject;
  Fmt.pf ppf ": %s" d.message

let to_string ?file d = Fmt.str "%a" (pp ?file) d
