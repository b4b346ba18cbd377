(* Orbit reduction: name renamings and slot-permutation canonicalization.
   See symmetry.mli for the soundness argument; this file is mechanics. *)

module Smap = Map.Make (String)

(* ------------------------------------------------------------------ *)
(* Renamings                                                           *)
(* ------------------------------------------------------------------ *)

type renaming = { labels : string Smap.t; calls : string Smap.t }

let renaming ~labels ~calls =
  let build = List.fold_left (fun m (a, b) -> Smap.add a b m) Smap.empty in
  { labels = build labels; calls = build calls }

let identity = { labels = Smap.empty; calls = Smap.empty }

let is_identity r =
  Smap.for_all (fun k v -> String.equal k v) r.labels
  && Smap.for_all (fun k v -> String.equal k v) r.calls

let invert r =
  let inv m = Smap.fold (fun k v acc -> Smap.add v k acc) m Smap.empty in
  { labels = inv r.labels; calls = inv r.calls }

let apply_name m x = match Smap.find_opt x m with Some y -> y | None -> x

let compose outer inner =
  let comp o i =
    let keys = Smap.fold (fun k _ acc -> Smap.add k () acc) o Smap.empty in
    let keys = Smap.fold (fun k _ acc -> Smap.add k () acc) i keys in
    Smap.fold
      (fun k () acc -> Smap.add k (apply_name o (apply_name i k)) acc)
      keys Smap.empty
  in
  { labels = comp outer.labels inner.labels;
    calls = comp outer.calls inner.calls }

let rename_label r l =
  match Smap.find_opt (Label.name l) r.labels with
  | Some n -> Label.make n
  | None -> l

let rename_call r n = apply_name r.calls n

let rename_label_set r ls =
  Label.set_of_list (List.map (rename_label r) (Label.Set.elements ls))

let apply_step r (s : Step.t) : Step.t =
  match s with
  | Step.Action _ -> s
  | Step.Event (l, d, p) -> Step.Event (rename_label r l, d, p)
  | Step.Tau (Some l, p) -> Step.Tau (Some (rename_label r l), p)
  | Step.Tau (None, _) -> s

let rec apply_proc r (p : Proc.t) : Proc.t =
  match p with
  | Proc.Nil -> p
  | Proc.Act (a, k) -> Proc.Act (a, apply_proc r k)
  | Proc.Ev (e, k) ->
      Proc.Ev ({ e with Event.label = rename_label r e.Event.label },
               apply_proc r k)
  | Proc.Choice (a, b) -> Proc.Choice (apply_proc r a, apply_proc r b)
  | Proc.Par (a, b) -> Proc.Par (apply_proc r a, apply_proc r b)
  | Proc.Scope s ->
      Proc.Scope
        { body = apply_proc r s.body;
          bound = s.bound;
          exc =
            Option.map (fun (l, h) -> (rename_label r l, apply_proc r h)) s.exc;
          timeout = apply_proc r s.timeout;
          interrupt = Option.map (apply_proc r) s.interrupt }
  | Proc.Restrict (ls, k) ->
      Proc.Restrict (rename_label_set r ls, apply_proc r k)
  | Proc.Close (rs, k) -> Proc.Close (rs, apply_proc r k)
  | Proc.If (g, k) -> Proc.If (g, apply_proc r k)
  | Proc.Call (n, args) -> Proc.Call (rename_call r n, args)

let rec apply_hproc r (h : Hproc.t) : Hproc.t =
  match Hproc.node h with
  | Hproc.Nil -> h
  | Hproc.Act (a, k) -> Hproc.act a (apply_hproc r k)
  | Hproc.Ev (e, k) ->
      Hproc.ev { e with Event.label = rename_label r e.Event.label }
        (apply_hproc r k)
  | Hproc.Choice (a, b) -> Hproc.choice (apply_hproc r a) (apply_hproc r b)
  | Hproc.Par (a, b) -> Hproc.par (apply_hproc r a) (apply_hproc r b)
  | Hproc.Scope s ->
      Hproc.scope ~body:(apply_hproc r s.body) ~bound:s.bound
        ~exc:
          (Option.map (fun (l, h) -> (rename_label r l, apply_hproc r h)) s.exc)
        ~timeout:(apply_hproc r s.timeout)
        ~interrupt:(Option.map (apply_hproc r) s.interrupt)
  | Hproc.Restrict (ls, k) ->
      Hproc.restrict (rename_label_set r ls) (apply_hproc r k)
  | Hproc.Close (rs, k) -> Hproc.close rs (apply_hproc r k)
  | Hproc.If (g, k) -> Hproc.if_ g (apply_hproc r k)
  | Hproc.Call (n, args) -> Hproc.call (rename_call r n) args

(* ------------------------------------------------------------------ *)
(* Orbit specifications                                                *)
(* ------------------------------------------------------------------ *)

(* A memoized, domain-safe [apply_hproc r].  Hash-consing makes recomputation
   idempotent (same physical result), so the lock is dropped during the
   actual rewrite: a racing duplicate computation is wasted work, never a
   wrong answer. *)
let memoized r =
  if is_identity r then Fun.id
  else begin
    let table : (int, Hproc.t) Hashtbl.t = Hashtbl.create 64 in
    let lock = Mutex.create () in
    fun h ->
      Mutex.lock lock;
      let cached = Hashtbl.find_opt table (Hproc.id h) in
      Mutex.unlock lock;
      match cached with
      | Some h' -> h'
      | None ->
          let h' = apply_hproc r h in
          Mutex.lock lock;
          Hashtbl.replace table (Hproc.id h) h';
          Mutex.unlock lock;
          h'
  end

type member = {
  offset : int;
  width : int;
  to_rep : renaming;
  of_rep : renaming;
  to_rep_h : Hproc.t -> Hproc.t;
  of_rep_h : Hproc.t -> Hproc.t;
}

let member ~offset ~width ~to_rep =
  if offset < 0 || width <= 0 then
    invalid_arg "Symmetry.member: offset/width out of range";
  let of_rep = invert to_rep in
  { offset; width; to_rep; of_rep;
    to_rep_h = memoized to_rep; of_rep_h = memoized of_rep }

type cls = { members : member array }

let cls = function
  | ([] | [ _ ]) -> invalid_arg "Symmetry.cls: need at least two members"
  | ms ->
      let members = Array.of_list ms in
      let w = members.(0).width in
      Array.iter
        (fun m ->
          if m.width <> w then
            invalid_arg "Symmetry.cls: members differ in width")
        members;
      { members }

type spec = {
  slots : int;
  classes : cls array;
  canon_cache : (int, Hproc.t * renaming) Hashtbl.t;
  cache_lock : Mutex.t;
}

let make ~slots classes =
  let classes =
    Array.of_list (List.filter (fun c -> Array.length c.members >= 2) classes)
  in
  { slots; classes;
    canon_cache = Hashtbl.create 4096; cache_lock = Mutex.create () }

let empty =
  { slots = 0; classes = [||];
    canon_cache = Hashtbl.create 1; cache_lock = Mutex.create () }

let is_empty s = Array.length s.classes = 0
let num_slots s = s.slots
let num_classes s = Array.length s.classes
let class_sizes s =
  Array.to_list (Array.map (fun c -> Array.length c.members) s.classes)

let pp ppf s =
  Fmt.pf ppf "%d class%s over %d slots (sizes %a)" (num_classes s)
    (if num_classes s = 1 then "" else "es")
    s.slots
    Fmt.(list ~sep:comma int)
    (class_sizes s)

(* ------------------------------------------------------------------ *)
(* Canonicalization                                                    *)
(* ------------------------------------------------------------------ *)

(* Split the left-associated spine [Par (... Par (p0, p1) ..., p_{n-1})]
   into exactly [n] slots.  Any other shape (another slot count, a slot
   that is itself a [Par], a tree that is not left-deep) is rejected. *)
let rec left_deep h =
  match Hproc.node h with
  | Hproc.Par (a, b) -> (
      match Hproc.node b with Hproc.Par _ -> false | _ -> left_deep a)
  | _ -> true

let split_spine n spine =
  let slots = Hproc.leaves spine in
  if Array.length slots = n && left_deep spine then Some slots else None

let rebuild_spine spine slots = Hproc.map_leaves (fun i _ -> slots.(i)) spine

let compare_tuples a b =
  let n = Array.length a in
  let rec go i =
    if i >= n then 0
    else
      let c = Hproc.compare_structural a.(i) b.(i) in
      if c <> 0 then c else go (i + 1)
  in
  go 0

(* [rho], the name component of the witness: member [src]'s names mapped
   into position [dst]'s name space (through the shared rep space). *)
let extend_rho rho ~src ~dst =
  let ext src_to_rep dst_of_rep acc =
    Smap.fold
      (fun x y acc -> Smap.add x (apply_name dst_of_rep y) acc)
      src_to_rep acc
  in
  { labels = ext src.to_rep.labels dst.of_rep.labels rho.labels;
    calls = ext src.to_rep.calls dst.of_rep.calls rho.calls }

let canon_compute spec h =
  match Hproc.node h with
  | Hproc.Restrict (lset, spine) -> (
      match split_spine spec.slots spine with
      | None -> (h, identity)
      | Some slots ->
          let rho = ref identity in
          let changed = ref false in
          Array.iter
            (fun c ->
              let k = Array.length c.members in
              (* Member slot tuples, renamed into the rep's name space so
                 they are comparable. *)
              let tuples =
                Array.map
                  (fun m ->
                    Array.init m.width (fun j ->
                        m.to_rep_h slots.(m.offset + j)))
                  c.members
              in
              let order = Array.init k Fun.id in
              Array.sort
                (fun a b ->
                  let cmp = compare_tuples tuples.(a) tuples.(b) in
                  if cmp <> 0 then cmp else Int.compare a b)
                order;
              for j = 0 to k - 1 do
                let src_ix = order.(j) in
                if src_ix <> j then begin
                  let dst = c.members.(j) in
                  let tup = tuples.(src_ix) in
                  for x = 0 to dst.width - 1 do
                    let v = dst.of_rep_h tup.(x) in
                    if not (Hproc.equal v slots.(dst.offset + x)) then
                      changed := true;
                    slots.(dst.offset + x) <- v
                  done;
                  rho := extend_rho !rho ~src:c.members.(src_ix) ~dst
                end
              done)
            spec.classes;
          if !changed then
            (Hproc.restrict lset (rebuild_spine spine slots), !rho)
          else (h, identity))
  | _ -> (h, identity)

let canon_w spec h =
  if is_empty spec then (h, identity)
  else begin
    Mutex.lock spec.cache_lock;
    let cached = Hashtbl.find_opt spec.canon_cache (Hproc.id h) in
    Mutex.unlock spec.cache_lock;
    match cached with
    | Some res -> res
    | None ->
        let res = canon_compute spec h in
        Mutex.lock spec.cache_lock;
        Hashtbl.replace spec.canon_cache (Hproc.id h) res;
        Mutex.unlock spec.cache_lock;
        res
  end

let canon spec h = fst (canon_w spec h)
