(* Boolean guards over process parameters.  Guards restrict which branches of
   a parameterized process body are enabled for a given parameter valuation;
   they are the mechanism that keeps parameterized processes finite-state
   (e.g. [e < cmax] in the Compute process of Fig. 5). *)

type t =
  | True
  | False
  | Cmp of cmp * Expr.t * Expr.t
  | And of t * t
  | Or of t * t
  | Not of t

and cmp = Eq | Ne | Lt | Le | Gt | Ge

let eq a b = Cmp (Eq, a, b)
let lt a b = Cmp (Lt, a, b)
let le a b = Cmp (Le, a, b)
let gt a b = Cmp (Gt, a, b)
let ge a b = Cmp (Ge, a, b)
let conj a b = And (a, b)
let neg a = Not a

let eval_cmp op x y =
  match op with
  | Eq -> x = y
  | Ne -> x <> y
  | Lt -> x < y
  | Le -> x <= y
  | Gt -> x > y
  | Ge -> x >= y

let rec eval env = function
  | True -> true
  | False -> false
  | Cmp (op, a, b) -> eval_cmp op (Expr.eval env a) (Expr.eval env b)
  | And (a, b) -> eval env a && eval env b
  | Or (a, b) -> eval env a || eval env b
  | Not a -> not (eval env a)

let rec subst env = function
  | True -> True
  | False -> False
  | Cmp (op, a, b) -> (
      let a' = Expr.subst env a and b' = Expr.subst env b in
      match (a', b') with
      | Expr.Int x, Expr.Int y -> if eval_cmp op x y then True else False
      | _ -> Cmp (op, a', b'))
  | And (a, b) -> (
      match (subst env a, subst env b) with
      | False, _ | _, False -> False
      | True, g | g, True -> g
      | a', b' -> And (a', b'))
  | Or (a, b) -> (
      match (subst env a, subst env b) with
      | True, _ | _, True -> True
      | False, g | g, False -> g
      | a', b' -> Or (a', b'))
  | Not a -> (
      match subst env a with
      | True -> False
      | False -> True
      | a' -> Not a')

let rec free_vars = function
  | True | False -> []
  | Cmp (_, a, b) -> Expr.free_vars a @ Expr.free_vars b
  | And (a, b) | Or (a, b) -> free_vars a @ free_vars b
  | Not a -> free_vars a

let is_ground g = free_vars g = []

let pp_cmp ppf op =
  Fmt.string ppf
    (match op with
    | Eq -> "=="
    | Ne -> "!="
    | Lt -> "<"
    | Le -> "<="
    | Gt -> ">"
    | Ge -> ">=")

let rec pp ppf = function
  | True -> Fmt.string ppf "true"
  | False -> Fmt.string ppf "false"
  | Cmp (op, a, b) -> Fmt.pf ppf "%a %a %a" Expr.pp a pp_cmp op Expr.pp b
  | And (a, b) -> Fmt.pf ppf "(%a && %a)" pp a pp b
  | Or (a, b) -> Fmt.pf ppf "(%a || %a)" pp a pp b
  | Not a -> Fmt.pf ppf "!(%a)" pp a
