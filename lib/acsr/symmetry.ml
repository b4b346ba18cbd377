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

let apply_name m x = match Smap.find_opt x m with Some y -> y | None -> x

let rename_label r l =
  match Smap.find_opt (Label.name l) r.labels with
  | Some n -> Label.make n
  | None -> l

let rename_call r n = apply_name r.calls n

let rename_label_set r ls =
  Label.set_of_list (List.map (rename_label r) (Label.Set.elements ls))

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

let compare_renamed r =
  Hproc.compare_renamed ~label:(rename_label r) ~call:(rename_call r)

(* ------------------------------------------------------------------ *)
(* Orbit specifications                                                *)
(* ------------------------------------------------------------------ *)

type member = {
  offset : int;
  width : int;
  labels : string array;
  calls : string array;
  swap : renaming;
      (* exchanges the member's names with the class representative's;
         set by [cls], the identity for the representative *)
}

let no_renaming = { labels = Smap.empty; calls = Smap.empty }

let member ~offset ~width ~labels ~calls =
  if offset < 0 || width <= 0 then
    invalid_arg "Symmetry.member: offset/width out of range";
  { offset; width; labels; calls; swap = no_renaming }

type cls = {
  members : member array;
  offsets : int array;  (* per member: its first slot *)
  width : int;
}

let cls = function
  | [] | [ _ ] -> invalid_arg "Symmetry.cls: need at least two members"
  | (rep : member) :: rest ->
      let pairs a b = Array.to_list (Array.map2 (fun x y -> (x, y)) a b) in
      let bind (m : member) =
        if
          m.width <> rep.width
          || Array.length m.labels <> Array.length rep.labels
          || Array.length m.calls <> Array.length rep.calls
        then invalid_arg "Symmetry.cls: members differ in shape";
        let swap a b = pairs a b @ pairs b a in
        {
          m with
          swap =
            renaming ~labels:(swap m.labels rep.labels)
              ~calls:(swap m.calls rep.calls);
        }
      in
      let members = Array.of_list (rep :: List.map bind rest) in
      {
        members;
        offsets = Array.map (fun (m : member) -> m.offset) members;
        width = rep.width;
      }

type spec = {
  slots : int;
  classes : cls array;
  (* member label -> (class, position, index in the member's [labels]) *)
  label_index : (int * int * int) Smap.t;
}

let make ~slots classes =
  let classes =
    List.filter (fun c -> Array.length c.members >= 2) classes
    |> Array.of_list
  in
  let label_index = ref Smap.empty in
  Array.iteri
    (fun c cl ->
      Array.iteri
        (fun j m ->
          Array.iteri
            (fun k l -> label_index := Smap.add l (c, j, k) !label_index)
            m.labels)
        cl.members)
    classes;
  { slots; classes; label_index = !label_index }

let empty = { slots = 0; classes = [||]; label_index = Smap.empty }

let is_empty s = Array.length s.classes = 0
let class_sizes s =
  Array.to_list (Array.map (fun c -> Array.length c.members) s.classes)

(* ------------------------------------------------------------------ *)
(* The representative's name space                                     *)
(* ------------------------------------------------------------------ *)

(* The spec describes the frame
   [Restrict (L, Par (... Par (p0, p1) ..., p_{n-1}))] with exactly
   [spec.slots] slots; the frame's shape is checked once, when it is
   split. *)
let fits spec frame =
  (not (is_empty spec))
  && Option.is_some (Frame.restriction frame)
  && Frame.left_deep frame
  && Frame.width frame = spec.slots

(* Each non-representative member's slots, through its swap; the swap
   is its own inverse.  Cold paths only, so a slot is renamed as its
   plain term and interned again. *)
let swap spec nodes frame (slots : Node.t array) =
  if fits spec frame then
    Array.iter
      (fun c ->
        for m = 1 to Array.length c.members - 1 do
          let mem = c.members.(m) in
          for x = mem.offset to mem.offset + mem.width - 1 do
            slots.(x) <-
              Node.get nodes
                (Hproc.of_proc (Node.terms nodes)
                   (apply_proc mem.swap (Hproc.to_proc slots.(x).term)))
          done
        done)
      spec.classes

let views spec frame =
  if not (fits spec frame) then Semantics.no_views
  else begin
    let views = Array.make spec.slots Semantics.plain in
    Array.iter
      (fun c ->
        let rep = c.members.(0) in
        for m = 1 to Array.length c.members - 1 do
          let mem = c.members.(m) in
          let labels =
            List.concat
              (Array.to_list
                 (Array.map2
                    (fun r l ->
                      let r = Label.make r and l = Label.make l in
                      [ (r, l); (l, r) ])
                    rep.labels mem.labels))
          in
          let v =
            Semantics.view (Frame.terms frame) ~labels
              ~compare:(compare_renamed mem.swap)
          in
          Array.fill views mem.offset mem.width v
        done)
      spec.classes;
    Semantics.slot_views views
  end

(* ------------------------------------------------------------------ *)
(* Canonicalization                                                    *)
(* ------------------------------------------------------------------ *)

(* Canonicalization sorts the member tuples of a fitting frame, and
   declines a state in which some slot has become a [Par]: it applies
   exactly to the states whose term flattens into [spec.slots]
   leaves. *)
let applies spec frame (slots : Node.t array) =
  fits spec frame && not (Array.exists (fun (n : Node.t) -> n.par) slots)

(* Member [m]'s tuple is [slots.(c.offsets.(m) + x)] for [x < w];
   member slots hold representative-space terms, so tuples of different
   members compare directly. *)
let rec same_tuple (slots : Node.t array) w o o' x =
  x >= w
  || (slots.(o + x) == slots.(o' + x) && same_tuple slots w o o' (x + 1))

let rec compare_tuples (slots : Node.t array) w o o' x =
  if x >= w then 0
  else
    let cmp =
      Hproc.compare_structural slots.(o + x).Node.term slots.(o' + x).Node.term
    in
    if cmp <> 0 then cmp else compare_tuples slots w o o' (x + 1)

(* The members in (tuple, index) order.  Members whose tuples are
   pointer-equal form a group; only the groups' distinct tuples, held by
   their first members (the leaders), are sorted, and the members are
   laid out group by group, each group in index order — exactly the
   order of sorting every member by (tuple, index).  Distinct
   hash-consed tuples never compare equal; a tie would break by the
   leaders' indices.  A successor of a canonical state mostly keeps each
   group together, so a member is first tried against its predecessor's
   group, and a state whose groups are contiguous and already in order
   costs one comparison per group. *)
let sorted_members c slots =
  let k = Array.length c.members and w = c.width and off = c.offsets in
  (* [group.(m)]: the index in [leaders] of the first member with [m]'s
     tuple; [size.(i)]: the members of leader [i]'s group *)
  let group = Array.make k 0
  and leaders = Array.make k 0
  and size = Array.make k 0 in
  let g = ref 1 and runs = ref 1 in
  size.(0) <- 1;
  for m = 1 to k - 1 do
    if same_tuple slots w off.(m - 1) off.(m) 0 then
      group.(m) <- group.(m - 1)
    else begin
      incr runs;
      let i = ref 0 in
      while
        !i < !g && not (same_tuple slots w off.(leaders.(!i)) off.(m) 0)
      do
        incr i
      done;
      if !i = !g then begin
        leaders.(!g) <- m;
        incr g
      end;
      group.(m) <- !i
    end;
    size.(group.(m)) <- size.(group.(m)) + 1
  done;
  let g = !g in
  let order = Array.make k 0 in
  for j = 1 to k - 1 do
    order.(j) <- j
  done;
  let less a b = compare_tuples slots w off.(a) off.(b) 0 < 0 in
  (* already canonical: contiguous groups in increasing order *)
  let sorted =
    !runs = g
    &&
    let i = ref 1 in
    while !i < g && less leaders.(!i - 1) leaders.(!i) do
      incr i
    done;
    !i >= g
  in
  if not sorted then begin
    (* insertion sort of the group indices by their leaders' tuples;
       leaders are in index order, so ties keep it *)
    let rank = Array.init g Fun.id in
    for i = 1 to g - 1 do
      let x = rank.(i) in
      let j = ref (i - 1) in
      while !j >= 0 && less leaders.(x) leaders.(rank.(!j)) do
        rank.(!j + 1) <- rank.(!j);
        decr j
      done;
      rank.(!j + 1) <- x
    done;
    (* [start.(i)]: the next free position of group [i] *)
    let start = Array.make g 0 in
    let pos = ref 0 in
    for r = 0 to g - 1 do
      start.(rank.(r)) <- !pos;
      pos := !pos + size.(rank.(r))
    done;
    for m = 0 to k - 1 do
      let i = group.(m) in
      order.(start.(i)) <- m;
      start.(i) <- start.(i) + 1
    done
  end;
  order

(* Lay the members' tuples out in [order]: only the span of positions
   the permutation moves is copied out and written back. *)
let permute c (slots : Node.t array) order =
  let k = Array.length order and w = c.width and off = c.offsets in
  let lo = ref 0 and hi = ref (k - 1) in
  while !lo < k && order.(!lo) = !lo do
    incr lo
  done;
  while !hi > !lo && order.(!hi) = !hi do
    decr hi
  done;
  if !lo < k then begin
    let lo = !lo and hi = !hi in
    let saved = Array.make ((hi - lo + 1) * w) Node.dummy in
    for m = lo to hi do
      let o = off.(m) and d = (m - lo) * w in
      for x = 0 to w - 1 do
        saved.(d + x) <- slots.(o + x)
      done
    done;
    for j = lo to hi do
      let src = order.(j) in
      if src <> j then begin
        let o = off.(j) and d = (src - lo) * w in
        for x = 0 to w - 1 do
          slots.(o + x) <- saved.(d + x)
        done
      end
    done;
    true
  end
  else false

(* Returns whether [slots] changed, and the witness.  A permutation
   other than the identity moves a distinct tuple (ties keep index
   order), so it always changes the vector. *)
let canon_in_place spec frame slots =
  if not (applies spec frame slots) then
    ( false,
      Array.map
        (fun c -> Array.init (Array.length c.members) Fun.id)
        spec.classes )
  else begin
    let changed = ref false in
    let perms =
      Array.map
        (fun c ->
          let order = sorted_members c slots in
          if permute c slots order then changed := true;
          order)
        spec.classes
    in
    (!changed, perms)
  end

let canon_w spec frame slots = snd (canon_in_place spec frame slots)
let canon spec frame slots = fst (canon_in_place spec frame slots)

let rename_step spec owners (s : Step.t) : Step.t =
  let real l =
    match Smap.find_opt (Label.name l) spec.label_index with
    | None -> l
    | Some (c, j, k) ->
        Label.make spec.classes.(c).members.(owners.(c).(j)).labels.(k)
  in
  match s with
  | Step.Action _ | Step.Tau (None, _) -> s
  | Step.Event (l, d, p) -> Step.Event (real l, d, p)
  | Step.Tau (Some l, p) -> Step.Tau (Some (real l), p)
