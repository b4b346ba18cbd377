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

type member = {
  offset : int;
  width : int;
  labels : string array;
  calls : string array;
  swap : renaming;
      (* exchanges the member's names with the class representative's;
         set by [cls], the identity for the representative *)
  index : int;
      (* among all the spec's members: the member's entry in a node's
         [images]; set by [make] *)
}

let no_renaming = { labels = Smap.empty; calls = Smap.empty }

let member ~offset ~width ~labels ~calls =
  if offset < 0 || width <= 0 then
    invalid_arg "Symmetry.member: offset/width out of range";
  { offset; width; labels; calls; swap = no_renaming; index = 0 }

type cls = { members : member array }

let cls = function
  | [] | [ _ ] -> invalid_arg "Symmetry.cls: need at least two members"
  | rep :: rest ->
      let pairs a b = Array.to_list (Array.map2 (fun x y -> (x, y)) a b) in
      let bind m =
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
      { members = Array.of_list (rep :: List.map bind rest) }

type spec = {
  slots : int;
  classes : cls array;
  member_count : int;  (* over all classes *)
  (* member label -> (class, position, index in the member's [labels]);
     read-only once built, so domains share it without a lock *)
  label_index : (string, int * int * int) Hashtbl.t;
}

let make ~slots classes =
  let next = ref 0 in
  let classes =
    List.filter (fun c -> Array.length c.members >= 2) classes
    |> List.map (fun c ->
           {
             members =
               Array.map
                 (fun m ->
                   incr next;
                   { m with index = !next - 1 })
                 c.members;
           })
    |> Array.of_list
  in
  let label_index = Hashtbl.create 64 in
  Array.iteri
    (fun c cl ->
      Array.iteri
        (fun j m ->
          Array.iteri
            (fun k l -> Hashtbl.replace label_index l (c, j, k))
            m.labels)
        cl.members)
    classes;
  {
    slots;
    classes;
    member_count = !next;
    label_index;
  }

let empty =
  {
    slots = 0;
    classes = [||];
    member_count = 0;
    label_index = Hashtbl.create 1;
  }

let is_empty s = Array.length s.classes = 0
let class_sizes s =
  Array.to_list (Array.map (fun c -> Array.length c.members) s.classes)

(* ------------------------------------------------------------------ *)
(* Canonicalization                                                    *)
(* ------------------------------------------------------------------ *)

(* Canonicalization permutes member slots of the frame
   [Restrict (L, Par (... Par (p0, p1) ..., p_{n-1}))] with exactly
   [spec.slots] slots; the frame's shape is checked once, when it is
   split.  A state in which some slot has become a [Par] is declined
   too, so canonicalization applies exactly to the states whose term
   flattens into [spec.slots] leaves. *)
let applies spec frame (slots : Node.t array) =
  Frame.restriction frame <> None
  && Frame.left_deep frame
  && Frame.width frame = spec.slots
  && not
       (Array.exists
          (fun (n : Node.t) ->
            match Hproc.node n.term with Hproc.Par _ -> true | _ -> false)
          slots)

(* The node of [n]'s term with member [m]'s names and its
   representative's swapped, cached on [n] — and on the image, whose
   image is [n].  Racing domains store the same nodes: the table has
   one per term. *)
let images spec (n : Node.t) =
  let a = n.images in
  if Array.length a > 0 then a
  else begin
    let a = Array.make spec.member_count Node.dummy in
    Node.set_images n a;
    a
  end

let image spec nodes m (n : Node.t) =
  let cached = images spec n in
  let img = cached.(m.index) in
  if img != Node.dummy then img
  else begin
    let img = Node.get nodes (apply_hproc m.swap n.term) in
    cached.(m.index) <- img;
    (images spec img).(m.index) <- n;
    img
  end

(* Members' tuples live in one flat array: member [m]'s tuple is
   [tuples.(m * w)] .. [tuples.(m * w + w - 1)]. *)
let rec same_tuple (tuples : Node.t array) w m m' x =
  x >= w
  || tuples.((m * w) + x) == tuples.((m' * w) + x)
     && same_tuple tuples w m m' (x + 1)

let rec compare_tuples (tuples : Node.t array) w m m' x =
  if x >= w then 0
  else
    let c =
      Hproc.compare_structural tuples.((m * w) + x).term
        tuples.((m' * w) + x).term
    in
    if c <> 0 then c else compare_tuples tuples w m m' (x + 1)

(* The members in (tuple, index) order.  Members whose tuples are
   pointer-equal form a group; only the groups' distinct tuples are
   sorted, and the members are laid out group by group, each group in
   index order — exactly the order of sorting every member by (tuple,
   index).  Distinct hash-consed tuples never compare equal; a tie would
   break by the groups' first members. *)
let sorted_members tuples ~k ~w =
  (* [group.(m)]: the first member with [m]'s tuple *)
  let group = Array.make k 0 in
  let rec find m = function
    | [] -> -1
    | f :: rest -> if same_tuple tuples w f m 0 then f else find m rest
  in
  let firsts = ref [] in
  for m = 0 to k - 1 do
    let f = find m !firsts in
    if f >= 0 then group.(m) <- f
    else begin
      group.(m) <- m;
      firsts := m :: !firsts
    end
  done;
  let order = Array.init k Fun.id in
  (match !firsts with
  | [] | [ _ ] -> ()
  | firsts ->
      let firsts = Array.of_list firsts in
      Array.sort
        (fun a b ->
          let c = compare_tuples tuples w a b 0 in
          if c <> 0 then c else Int.compare a b)
        firsts;
      (* counting sort of the members by their group's rank: [start.(f)]
         is first the size of [f]'s group, then its next free position *)
      let start = Array.make k 0 in
      for m = 0 to k - 1 do
        start.(group.(m)) <- start.(group.(m)) + 1
      done;
      let pos = ref 0 in
      Array.iter
        (fun f ->
          let size = start.(f) in
          start.(f) <- !pos;
          pos := !pos + size)
        firsts;
      for m = 0 to k - 1 do
        let f = group.(m) in
        order.(start.(f)) <- m;
        start.(f) <- start.(f) + 1
      done);
  order

(* Returns whether [slots] changed, and the witness. *)
let canon_in_place spec nodes frame slots =
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
          let k = Array.length c.members and w = c.members.(0).width in
          (* Member slot tuples, swapped into the rep's name space so
             they are comparable. *)
          let tuples = Array.make (k * w) Node.dummy in
          for m = 0 to k - 1 do
            let mem = c.members.(m) in
            for x = 0 to w - 1 do
              let n = slots.(mem.offset + x) in
              tuples.((m * w) + x) <-
                (if m = 0 then n else image spec nodes mem n)
            done
          done;
          let order = sorted_members tuples ~k ~w in
          for j = 0 to k - 1 do
            if order.(j) <> j then begin
              let dst = c.members.(j) in
              for x = 0 to w - 1 do
                let n = tuples.((order.(j) * w) + x) in
                let v =
                  if j = 0 then n else image spec nodes dst n
                in
                if v != slots.(dst.offset + x) then changed := true;
                slots.(dst.offset + x) <- v
              done
            end
          done;
          order)
        spec.classes
    in
    (* Unchanged slots mean every [order] is the identity: ties break
       by index, so any other order moves a distinct tuple. *)
    (!changed, perms)
  end

let canon_w spec nodes frame slots = snd (canon_in_place spec nodes frame slots)
let canon spec nodes frame slots = fst (canon_in_place spec nodes frame slots)

let rename_step spec owners (s : Step.t) : Step.t =
  let real l =
    match Hashtbl.find_opt spec.label_index (Label.name l) with
    | None -> l
    | Some (c, j, k) ->
        Label.make spec.classes.(c).members.(owners.(c).(j)).labels.(k)
  in
  match s with
  | Step.Action _ | Step.Tau (None, _) -> s
  | Step.Event (l, d, p) -> Step.Event (real l, d, p)
  | Step.Tau (Some l, p) -> Step.Tau (Some (real l), p)
