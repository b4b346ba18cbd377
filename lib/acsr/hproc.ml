(* Hash-consed ACSR process terms.

   State-space exploration interns millions of closed terms into a state
   table; with plain [Proc.t] every intern rehashes the whole term and every
   bucket collision pays a deep structural comparison.  Worse,
   [Hashtbl.hash] only samples a bounded prefix of the term, so large
   parallel compositions that differ deep inside one operand all collide.

   This module gives every distinct term a unique physical representative
   within an intern table: nodes are interned bottom-up, children of an
   interned node are themselves interned in the same table, and each node
   memoizes a full-depth structural hash built from its children's
   memoized hashes.  Equality of hash-consed terms of one table is pointer
   equality and hashing is a field read — both O(1).  The LTS state table
   keys on a state's vector of slot terms ([Frame]), so it mixes and
   compares the slots' memoized hashes and pointers, and never interns
   the spine that holds them.

   A table belongs to the exploration that creates it ([Semantics]'s
   cache) and is dropped with it, so nothing is interned process-wide.
   It also numbers the exploration's labels and resources.  A table has
   one owner, the exploration's domain, and takes no lock.  Node ids
   follow interning order, so they are deterministic per exploration;
   canonical orderings still use [compare_structural], which mirrors
   [Stdlib.compare] on [Proc.t], because successor rows must come out
   in the reference engine's order. *)

type t = { id : int; hash : int; node : node }

and node =
  | Nil
  | Act of Action.t * t
  | Ev of Event.t * t
  | Choice of t * t
  | Par of t * t
  | Scope of scope
  | Restrict of Label.Set.t * t
  | Close of Resource.Set.t * t
  | If of Guard.t * t
  | Call of string * Expr.t list

and scope = {
  body : t;
  bound : Expr.t option;
  exc : (Label.t * t) option;
  timeout : t;
  interrupt : t option;
}

let id t = t.id
let hash t = t.hash
let node t = t.node
let equal (a : t) (b : t) = a == b

(* {1 Shallow hashing and equality of nodes}

   Leaf payloads (actions, events, label/resource sets, guards,
   expressions) are hashed with [Hashtbl.hash] and compared structurally
   with [Stdlib.compare]; children contribute their memoized full-depth
   hashes and are compared by pointer.  Because children are interned
   before their parent, structurally equal nodes always have physically
   equal children, so the shallow comparison decides full structural
   equality. *)

let mix h1 h2 = (h1 * 0x01000193) lxor (h2 land max_int)

let opt_hash f = function None -> 0x5d | Some x -> mix 0x9e (f x)

let node_hash = function
  | Nil -> 0x11
  | Act (a, k) -> mix 1 (mix (Hashtbl.hash a) k.hash)
  | Ev (e, k) -> mix 2 (mix (Hashtbl.hash e) k.hash)
  | Choice (a, b) -> mix 3 (mix a.hash b.hash)
  | Par (a, b) -> mix 4 (mix a.hash b.hash)
  | Scope s ->
      mix 5
        (mix s.body.hash
           (mix
              (opt_hash Hashtbl.hash s.bound)
              (mix
                 (opt_hash (fun (l, h) -> mix (Hashtbl.hash l) h.hash) s.exc)
                 (mix s.timeout.hash (opt_hash (fun h -> h.hash) s.interrupt)))))
  | Restrict (f, k) -> mix 6 (mix (Hashtbl.hash f) k.hash)
  | Close (r, k) -> mix 7 (mix (Hashtbl.hash r) k.hash)
  | If (g, k) -> mix 8 (mix (Hashtbl.hash g) k.hash)
  | Call (n, args) -> mix 9 (mix (Hashtbl.hash n) (Hashtbl.hash args))

let opt_equal eq a b =
  match (a, b) with
  | None, None -> true
  | Some x, Some y -> eq x y
  | None, Some _ | Some _, None -> false

let leaf_equal a b = Stdlib.compare a b = 0

let node_equal n1 n2 =
  match (n1, n2) with
  | Nil, Nil -> true
  | Act (a1, k1), Act (a2, k2) -> k1 == k2 && leaf_equal a1 a2
  | Ev (e1, k1), Ev (e2, k2) -> k1 == k2 && leaf_equal e1 e2
  | Choice (a1, b1), Choice (a2, b2) | Par (a1, b1), Par (a2, b2) ->
      a1 == a2 && b1 == b2
  | Scope s1, Scope s2 ->
      s1.body == s2.body && s1.timeout == s2.timeout
      && opt_equal leaf_equal s1.bound s2.bound
      && opt_equal
           (fun (l1, h1) (l2, h2) -> h1 == h2 && Label.equal l1 l2)
           s1.exc s2.exc
      && opt_equal ( == ) s1.interrupt s2.interrupt
  | Restrict (f1, k1), Restrict (f2, k2) -> k1 == k2 && leaf_equal f1 f2
  | Close (r1, k1), Close (r2, k2) -> k1 == k2 && leaf_equal r1 r2
  | If (g1, k1), If (g2, k2) -> k1 == k2 && leaf_equal g1 g2
  | Call (n1, a1), Call (n2, a2) -> String.equal n1 n2 && leaf_equal a1 a2
  | ( ( Nil | Act _ | Ev _ | Choice _ | Par _ | Scope _ | Restrict _
      | Close _ | If _ | Call _ ),
      _ ) ->
      false

(* {1 Intern tables} *)

module Node_tbl = Hashtbl.Make (struct
  type nonrec t = node

  let equal = node_equal
  let hash = node_hash
end)

type table = {
  terms : t Node_tbl.t;  (* ids are dense: a node's id is its rank *)
  labels : (Label.t, int) Hashtbl.t;
  resources : (Resource.t, int) Hashtbl.t;
}

(* [Nil] has no children, so one node serves every table. *)
let nil = { id = 0; hash = node_hash Nil; node = Nil }

let create () =
  let terms = Node_tbl.create 256 in
  Node_tbl.add terms Nil nil;
  { terms; labels = Hashtbl.create 64; resources = Hashtbl.create 16 }

let intern tbl node =
  match Node_tbl.find_opt tbl.terms node with
  | Some t -> t
  | None ->
      let t = { id = Node_tbl.length tbl.terms; hash = node_hash node; node } in
      Node_tbl.add tbl.terms node t;
      t

let number ids x =
  match Hashtbl.find_opt ids x with
  | Some i -> i
  | None ->
      let i = Hashtbl.length ids in
      Hashtbl.add ids x i;
      i

let label_id tbl l = number tbl.labels l
let resource_id tbl r = number tbl.resources r
let size tbl = Node_tbl.length tbl.terms
let stats tbl = Node_tbl.stats tbl.terms

(* {1 Constructors}

   Raw, one-to-one with the [Proc.t] constructors: no simplification of any
   kind, so that [of_proc]/[to_proc] round-trip exactly and the optimized
   semantics builds successors structurally identical to the reference
   semantics over [Proc.t]. *)

let act tbl a k = intern tbl (Act (a, k))
let ev tbl e k = intern tbl (Ev (e, k))
let choice tbl a b = intern tbl (Choice (a, b))
let par tbl a b = intern tbl (Par (a, b))
let scope tbl ~body ~bound ~exc ~timeout ~interrupt =
  intern tbl (Scope { body; bound; exc; timeout; interrupt })
let restrict tbl f k = intern tbl (Restrict (f, k))
let close tbl r k = intern tbl (Close (r, k))
let if_ tbl g k = intern tbl (If (g, k))
let call tbl n args = intern tbl (Call (n, args))

(* {1 Conversions} *)

let of_proc tbl p =
  let rec go (p : Proc.t) =
    match p with
    | Proc.Nil -> nil
    | Proc.Act (a, k) -> act tbl a (go k)
    | Proc.Ev (e, k) -> ev tbl e (go k)
    | Proc.Choice (a, b) -> choice tbl (go a) (go b)
    | Proc.Par (a, b) -> par tbl (go a) (go b)
    | Proc.Scope s ->
        scope tbl ~body:(go s.Proc.body) ~bound:s.Proc.bound
          ~exc:(Option.map (fun (l, h) -> (l, go h)) s.Proc.exc)
          ~timeout:(go s.Proc.timeout)
          ~interrupt:(Option.map go s.Proc.interrupt)
    | Proc.Restrict (f, k) -> restrict tbl f (go k)
    | Proc.Close (r, k) -> close tbl r (go k)
    | Proc.If (g, k) -> if_ tbl g (go k)
    | Proc.Call (n, args) -> call tbl n args
  in
  go p

let rec to_proc (t : t) : Proc.t =
  match t.node with
  | Nil -> Proc.Nil
  | Act (a, k) -> Proc.Act (a, to_proc k)
  | Ev (e, k) -> Proc.Ev (e, to_proc k)
  | Choice (a, b) -> Proc.Choice (to_proc a, to_proc b)
  | Par (a, b) -> Proc.Par (to_proc a, to_proc b)
  | Scope s ->
      Proc.Scope
        {
          Proc.body = to_proc s.body;
          bound = s.bound;
          exc = Option.map (fun (l, h) -> (l, to_proc h)) s.exc;
          timeout = to_proc s.timeout;
          interrupt = Option.map to_proc s.interrupt;
        }
  | Restrict (f, k) -> Proc.Restrict (f, to_proc k)
  | Close (r, k) -> Proc.Close (r, to_proc k)
  | If (g, k) -> Proc.If (g, to_proc k)
  | Call (n, args) -> Proc.Call (n, args)

(* {1 Canonical structural order}

   Mirrors [Stdlib.compare] on the corresponding [Proc.t] values exactly
   (verified by a property test), while short-circuiting on shared
   subterms: physically equal children compare equal without being
   visited.  The constructor order below follows the runtime ordering of
   [Stdlib.compare] on variants — the sole constant constructor [Nil]
   sorts before every block, and blocks sort by declaration order. *)

let tag_index = function
  | Nil -> 0
  | Act _ -> 1
  | Ev _ -> 2
  | Choice _ -> 3
  | Par _ -> 4
  | Scope _ -> 5
  | Restrict _ -> 6
  | Close _ -> 7
  | If _ -> 8
  | Call _ -> 9

let rec compare_structural (a : t) (b : t) =
  if a == b then 0
  else
    match (a.node, b.node) with
    | Act (a1, k1), Act (a2, k2) ->
        let c = Stdlib.compare a1 a2 in
        if c <> 0 then c else compare_structural k1 k2
    | Ev (e1, k1), Ev (e2, k2) ->
        let c = Stdlib.compare e1 e2 in
        if c <> 0 then c else compare_structural k1 k2
    | Choice (a1, b1), Choice (a2, b2) | Par (a1, b1), Par (a2, b2) ->
        let c = compare_structural a1 a2 in
        if c <> 0 then c else compare_structural b1 b2
    | Scope s1, Scope s2 -> compare_scope s1 s2
    | Restrict (f1, k1), Restrict (f2, k2) ->
        let c = Stdlib.compare f1 f2 in
        if c <> 0 then c else compare_structural k1 k2
    | Close (r1, k1), Close (r2, k2) ->
        let c = Stdlib.compare r1 r2 in
        if c <> 0 then c else compare_structural k1 k2
    | If (g1, k1), If (g2, k2) ->
        let c = Stdlib.compare g1 g2 in
        if c <> 0 then c else compare_structural k1 k2
    | Call (n1, a1), Call (n2, a2) ->
        let c = String.compare n1 n2 in
        if c <> 0 then c else Stdlib.compare a1 a2
    | n1, n2 -> Int.compare (tag_index n1) (tag_index n2)

and compare_scope s1 s2 =
  let c = compare_structural s1.body s2.body in
  if c <> 0 then c
  else
    let c = Stdlib.compare s1.bound s2.bound in
    if c <> 0 then c
    else
      let c =
        match (s1.exc, s2.exc) with
        | None, None -> 0
        | None, Some _ -> -1
        | Some _, None -> 1
        | Some (l1, h1), Some (l2, h2) ->
            let c = Label.compare l1 l2 in
            if c <> 0 then c else compare_structural h1 h2
      in
      if c <> 0 then c
      else
        let c = compare_structural s1.timeout s2.timeout in
        if c <> 0 then c
        else
          match (s1.interrupt, s2.interrupt) with
          | None, None -> 0
          | None, Some _ -> -1
          | Some _, None -> 1
          | Some h1, Some h2 -> compare_structural h1 h2

(* The same walk with names read through the renaming; its cases must
   stay those of [compare_structural] (a property test compares the two
   on renamed terms). *)
let rec compare_renamed ~label ~call (a : t) (b : t) =
  if a == b then 0
  else
    match (a.node, b.node) with
    | Act (a1, k1), Act (a2, k2) ->
        then_renamed ~label ~call (Stdlib.compare a1 a2) k1 k2
    | Ev (e1, k1), Ev (e2, k2) ->
        then_renamed ~label ~call
          (Stdlib.compare
             { e1 with Event.label = label e1.Event.label }
             { e2 with Event.label = label e2.Event.label })
          k1 k2
    | Choice (a1, b1), Choice (a2, b2) | Par (a1, b1), Par (a2, b2) ->
        then_renamed ~label ~call (compare_renamed ~label ~call a1 a2) b1 b2
    | Scope s1, Scope s2 -> compare_scope_renamed ~label ~call s1 s2
    | Restrict (f1, k1), Restrict (f2, k2) ->
        let set f = Label.set_of_list (List.map label (Label.Set.elements f)) in
        then_renamed ~label ~call (Stdlib.compare (set f1) (set f2)) k1 k2
    | Close (r1, k1), Close (r2, k2) ->
        then_renamed ~label ~call (Stdlib.compare r1 r2) k1 k2
    | If (g1, k1), If (g2, k2) ->
        then_renamed ~label ~call (Stdlib.compare g1 g2) k1 k2
    | Call (n1, a1), Call (n2, a2) ->
        let c = String.compare (call n1) (call n2) in
        if c <> 0 then c else Stdlib.compare a1 a2
    | n1, n2 -> Int.compare (tag_index n1) (tag_index n2)

(* [c], or else the comparison of the continuations *)
and then_renamed ~label ~call c k1 k2 =
  if c <> 0 then c else compare_renamed ~label ~call k1 k2

and compare_scope_renamed ~label ~call s1 s2 =
  let c = compare_renamed ~label ~call s1.body s2.body in
  if c <> 0 then c
  else
    let c = Stdlib.compare s1.bound s2.bound in
    if c <> 0 then c
    else
      let c =
        match (s1.exc, s2.exc) with
        | None, None -> 0
        | None, Some _ -> -1
        | Some _, None -> 1
        | Some (l1, h1), Some (l2, h2) ->
            let c = Label.compare (label l1) (label l2) in
            if c <> 0 then c else compare_renamed ~label ~call h1 h2
      in
      if c <> 0 then c
      else
        let c = compare_renamed ~label ~call s1.timeout s2.timeout in
        if c <> 0 then c
        else
          match (s1.interrupt, s2.interrupt) with
          | None, None -> 0
          | None, Some _ -> -1
          | Some _, None -> 1
          | Some h1, Some h2 -> compare_renamed ~label ~call h1 h2

