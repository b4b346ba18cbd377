(* Integer expressions over process parameters.

   Parameterized ACSR processes (paper, end of Section 3) carry dynamic
   parameters whose values evolve during execution; priorities of resource
   accesses may be expressions over these parameters.  This is what enables
   dynamic-priority schedulers: EDF uses the priority expression
   [d_max - (d_i - t)] where [t] is the time-since-dispatch parameter of the
   thread process (paper, Section 5). *)

type t =
  | Int of int
  | Var of string
  | Neg of t
  | Add of t * t
  | Sub of t * t
  | Mul of t * t
  | Div of t * t
  | Mod of t * t
  | Min of t * t
  | Max of t * t

exception Unbound_parameter of string

module Env = Stdlib.Map.Make (String)

let rec eval env = function
  | Int n -> n
  | Var x -> (
      match Env.find_opt x env with
      | Some v -> v
      | None -> raise (Unbound_parameter x))
  | Neg e -> -eval env e
  | Add (a, b) -> eval env a + eval env b
  | Sub (a, b) -> eval env a - eval env b
  | Mul (a, b) -> eval env a * eval env b
  | Div (a, b) -> eval env a / eval env b
  | Mod (a, b) -> eval env a mod eval env b
  | Min (a, b) -> min (eval env a) (eval env b)
  | Max (a, b) -> max (eval env a) (eval env b)

let rec free_vars = function
  | Int _ -> []
  | Var x -> [ x ]
  | Neg e -> free_vars e
  | Add (a, b) | Sub (a, b) | Mul (a, b) | Div (a, b) | Mod (a, b)
  | Min (a, b) | Max (a, b) ->
      free_vars a @ free_vars b

let is_ground e = free_vars e = []

(* Substitute parameters by integer values, simplifying constant subterms so
   that repeatedly-unfolded process bodies stay small. *)
let rec subst env e =
  match e with
  | Int _ -> e
  | Var x -> ( match Env.find_opt x env with Some v -> Int v | None -> e)
  | Neg a -> ( match subst env a with Int n -> Int (-n) | a' -> Neg a')
  | Add (a, b) -> binop env (fun x y -> x + y) (fun x y -> Add (x, y)) a b
  | Sub (a, b) -> binop env (fun x y -> x - y) (fun x y -> Sub (x, y)) a b
  | Mul (a, b) -> binop env (fun x y -> x * y) (fun x y -> Mul (x, y)) a b
  | Div (a, b) ->
      (* division by a constant zero must not be folded away: leave it to
         [eval] to raise at the point of use *)
      let a' = subst env a and b' = subst env b in
      (match (a', b') with
      | Int x, Int y when y <> 0 -> Int (x / y)
      | _ -> Div (a', b'))
  | Mod (a, b) ->
      let a' = subst env a and b' = subst env b in
      (match (a', b') with
      | Int x, Int y when y <> 0 -> Int (x mod y)
      | _ -> Mod (a', b'))
  | Min (a, b) -> binop env min (fun x y -> Min (x, y)) a b
  | Max (a, b) -> binop env max (fun x y -> Max (x, y)) a b

and binop env fold rebuild a b =
  let a' = subst env a and b' = subst env b in
  match (a', b') with
  | Int x, Int y -> Int (fold x y)
  | _ -> rebuild a' b'

let rec equal a b =
  match (a, b) with
  | Int x, Int y -> x = y
  | Var x, Var y -> String.equal x y
  | Neg x, Neg y -> equal x y
  | Add (a1, b1), Add (a2, b2)
  | Sub (a1, b1), Sub (a2, b2)
  | Mul (a1, b1), Mul (a2, b2)
  | Div (a1, b1), Div (a2, b2)
  | Mod (a1, b1), Mod (a2, b2)
  | Min (a1, b1), Min (a2, b2)
  | Max (a1, b1), Max (a2, b2) ->
      equal a1 a2 && equal b1 b2
  | ( ( Int _ | Var _ | Neg _ | Add _ | Sub _ | Mul _ | Div _ | Mod _ | Min _
      | Max _ ),
      _ ) ->
      false

let compare = Stdlib.compare

(* The printed form, built without a formatter: translation digests
   include it for every thread. *)
let rec add_expr buf = function
  | Int n -> Buffer.add_string buf (string_of_int n)
  | Var x -> Buffer.add_string buf x
  | Neg e ->
      Buffer.add_char buf '-';
      add_atom buf e
  | Add (a, b) -> add_binop buf a " + " b
  | Sub (a, b) -> add_binop buf a " - " b
  | Mul (a, b) -> add_binop buf a " * " b
  | Div (a, b) -> add_binop buf a " / " b
  | Mod (a, b) -> add_binop buf a " % " b
  | Min (a, b) -> add_call buf "min(" a b
  | Max (a, b) -> add_call buf "max(" a b

and add_atom buf e =
  match e with
  | Int _ | Var _ | Min _ | Max _ -> add_expr buf e
  | Neg _ | Add _ | Sub _ | Mul _ | Div _ | Mod _ ->
      Buffer.add_char buf '(';
      add_expr buf e;
      Buffer.add_char buf ')'

and add_binop buf a op b =
  add_atom buf a;
  Buffer.add_string buf op;
  add_atom buf b

and add_call buf fn a b =
  Buffer.add_string buf fn;
  add_expr buf a;
  Buffer.add_string buf ", ";
  add_expr buf b;
  Buffer.add_char buf ')'

let to_string = function
  | Int n -> string_of_int n
  | Var x -> x
  | e ->
      let buf = Buffer.create 32 in
      add_expr buf e;
      Buffer.contents buf

let pp ppf e = Fmt.string ppf (to_string e)
