(* Timed actions.

   A timed action is a finite set of resource accesses {(r1,p1),...,(rn,pn)}:
   executing it takes exactly one time quantum and requires exclusive access
   to every listed resource, with priority [pi] on resource [ri] (paper,
   Section 3).  The empty action is the idling step.  In process syntax the
   priorities are expressions; [ground] evaluates them once all process
   parameters have been substituted. *)

type t = (Resource.t * Expr.t) list
(* invariant: sorted by resource, no duplicate resources *)

type ground = (Resource.t * int) list
(* same invariant, evaluated priorities *)

let idle = []

let of_list accesses =
  let sorted =
    List.sort_uniq
      (fun (r1, _) (r2, _) -> Resource.compare r1 r2)
      accesses
  in
  if List.length sorted <> List.length accesses then
    invalid_arg "Action.of_list: duplicate resource in timed action";
  sorted

let singleton r p = [ (r, p) ]
let accesses a = a
let resources a = Resource.Set.of_list (List.map fst a)
let is_idle a = a = []

let union a b =
  let clash =
    List.exists (fun (r, _) -> List.mem_assoc r b) a
  in
  if clash then invalid_arg "Action.union: overlapping resources";
  List.merge (fun (r1, _) (r2, _) -> Resource.compare r1 r2) a b

let subst env a = List.map (fun (r, p) -> (r, Expr.subst env p)) a

let ground env a : ground =
  List.map (fun (r, p) -> (r, Expr.eval env p)) a

let free_vars a = List.concat_map (fun (_, p) -> Expr.free_vars p) a
let is_ground a = free_vars a = []

let pp_access pp_prio ppf (r, p) =
  Fmt.pf ppf "(%a,%a)" Resource.pp r pp_prio p

(* a literal ", " separator: actions must print on one line *)
let sep_comma ppf () = Fmt.string ppf ", "

let pp ppf a =
  Fmt.pf ppf "{%a}" Fmt.(list ~sep:sep_comma (pp_access Expr.pp)) a

let pp_ground ppf (a : ground) =
  Fmt.pf ppf "{%a}" Fmt.(list ~sep:sep_comma (pp_access Fmt.int)) a

(* Ground-action operations used by the semantics and preemption relation. *)
module Ground = struct
  type t = ground

  let idle : t = []
  let is_idle (a : t) = a = []
  let resources (a : t) = Resource.Set.of_list (List.map fst a)

  let priority_of (a : t) r =
    match List.assoc_opt r a with Some p -> p | None -> 0

  (* One merge walk over the two resource-sorted lists. *)
  let rec disjoint (a : t) (b : t) =
    match (a, b) with
    | [], _ | _, [] -> true
    | (ra, _) :: a', (rb, _) :: b' ->
        let c = Resource.compare ra rb in
        c <> 0 && if c < 0 then disjoint a' b else disjoint a b'

  let union (a : t) (b : t) : t =
    if not (disjoint a b) then
      invalid_arg "Action.Ground.union: overlapping resources";
    List.merge (fun (r1, _) (r2, _) -> Resource.compare r1 r2) a b

  let compare = Stdlib.compare
  let equal (a : t) (b : t) = a = b

  (* The ACSR preemption relation on timed actions, exactly as stated in the
     paper (Section 3): [preempts b a] holds (written a < b) when every
     resource used in [a] is also used in [b] with greater or equal
     priority, and at least one resource of [b] has a strictly greater
     priority than in [a] (absent resources count as priority 0).
     Consequently any action using a resource at non-zero priority preempts
     the idling action. *)
  let preempts (b : t) (a : t) =
    (* One merge walk over the two resource-sorted lists, allocating
       nothing: [strict] records whether some resource of [b] seen so far
       has a priority strictly above its priority in [a]. *)
    let rec walk b a strict =
      match (b, a) with
      | _, [] -> strict || List.exists (fun (_, pb) -> pb > 0) b
      | [], _ :: _ -> false
      | (rb, pb) :: b', (ra, pa) :: a' ->
          let c = Resource.compare rb ra in
          if c < 0 then walk b' a (strict || pb > 0)
          else if c > 0 then false
          else pb >= pa && walk b' a' (strict || pb > pa)
    in
    walk b a false

  let pp = pp_ground
end
