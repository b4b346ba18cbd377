(* Case-insensitive identifier comparison, character by character. *)

let equal a b =
  let n = String.length a in
  n = String.length b
  &&
  let rec go i =
    i = n
    || Char.lowercase_ascii (String.unsafe_get a i)
       = Char.lowercase_ascii (String.unsafe_get b i)
       && go (i + 1)
  in
  go 0

let rec equal_path a b =
  match (a, b) with
  | [], [] -> true
  | x :: xs, y :: ys -> equal x y && equal_path xs ys
  | [], _ :: _ | _ :: _, [] -> false

let rec mem s = function [] -> false | x :: rest -> equal s x || mem s rest
