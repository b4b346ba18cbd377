(* The frame of an explored system: the root's restriction and its [Par]
   spine, split once per exploration, so that a state is the vector of
   its slot nodes.  See frame.mli. *)

type t = {
  terms : Hproc.table;  (* the table its terms are interned in *)
  restriction : Label.Set.t option;
  hidden : Bytes.t;
      (* indexed by [Hproc.label_id]: '\001' for the labels of the
         restriction; ids past its length are visible *)
  spine : Hproc.t;  (* the root's Par tree; the root itself for 1 slot *)
  width : int;
  left_deep : bool;
}

let rec num_leaves t =
  match Hproc.node t with
  | Hproc.Par (a, b) -> num_leaves a + num_leaves b
  | _ -> 1

let leaves t =
  let out = Array.make (num_leaves t) t in
  let rec fill i t =
    match Hproc.node t with
    | Hproc.Par (a, b) -> fill (fill i a) b
    | _ ->
        out.(i) <- t;
        i + 1
  in
  ignore (fill 0 t);
  out

let rec is_left_deep t =
  match Hproc.node t with
  | Hproc.Par (a, b) -> (
      match Hproc.node b with Hproc.Par _ -> false | _ -> is_left_deep a)
  | _ -> true

let hidden_ids terms = function
  | None -> Bytes.empty
  | Some l ->
      let ids = List.map (Hproc.label_id terms) (Label.Set.elements l) in
      let b = Bytes.make (1 + List.fold_left max (-1) ids) '\000' in
      List.iter (fun i -> Bytes.set b i '\001') ids;
      b

let split nodes root =
  let restriction, spine =
    match Hproc.node root with
    | Hproc.Restrict (l, k) -> (
        match Hproc.node k with
        | Hproc.Par _ -> (Some l, k)
        | _ -> (None, root))
    | _ -> (None, root)
  in
  let terms = Node.terms nodes in
  let slots = Array.map (Node.get nodes) (leaves spine) in
  ( {
      terms;
      restriction;
      hidden = hidden_ids terms restriction;
      spine;
      width = Array.length slots;
      left_deep = is_left_deep spine;
    },
    slots )

let terms f = f.terms
let restriction f = f.restriction

let hidden f = f.hidden

let width f = f.width
let left_deep f = f.left_deep

(* Rebuild only the paths above changed slots; a subtree whose slots all
   come back physically equal is reused without interning. *)
let materialize f slots =
  let next = ref 0 in
  let rec go t =
    match Hproc.node t with
    | Hproc.Par (a, b) ->
        let a' = go a in
        let b' = go b in
        if a' == a && b' == b then t else Hproc.par f.terms a' b'
    | _ ->
        let i = !next in
        next := i + 1;
        slots.(i).Node.term
  in
  let tree = go f.spine in
  match f.restriction with
  | Some l -> Hproc.restrict f.terms l tree
  | None -> tree

let equal (a : Node.t array) b =
  let n = Array.length a in
  n = Array.length b
  &&
  let rec go i = i >= n || (a.(i) == b.(i) && go (i + 1)) in
  go 0

(* The slots' term hashes are folded with the multiply-xor step of
   [Hproc]'s own node hash; the final shift folds the high bits, where
   the multiplications carried every slot's contribution, into the low
   bits a hash table indexes with. *)
let hash (v : Node.t array) =
  let h = ref 0x811c9dc5 in
  for i = 0 to Array.length v - 1 do
    h := (!h * 0x01000193) lxor (Array.unsafe_get v i).Node.hash
  done;
  (!h lxor (!h lsr 31)) land max_int
