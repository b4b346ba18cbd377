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

(* A memoized, domain-safe [apply_hproc r].  Hash-consing makes recomputation
   idempotent (same physical result), so the lock is dropped during the
   actual rewrite: a racing duplicate computation is wasted work, never a
   wrong answer. *)
let memoized r =
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

type member = {
  offset : int;
  width : int;
  labels : string array;
  calls : string array;
  (* into and out of the class representative's name space; set by [cls] *)
  to_rep_h : Hproc.t -> Hproc.t;
  of_rep_h : Hproc.t -> Hproc.t;
}

let member ~offset ~width ~labels ~calls =
  if offset < 0 || width <= 0 then
    invalid_arg "Symmetry.member: offset/width out of range";
  { offset; width; labels; calls; to_rep_h = Fun.id; of_rep_h = Fun.id }

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
        let rename a b =
          memoized
            (renaming ~labels:(pairs a.labels b.labels)
               ~calls:(pairs a.calls b.calls))
        in
        { m with to_rep_h = rename m rep; of_rep_h = rename rep m }
      in
      { members = Array.of_list (rep :: List.map bind rest) }

type spec = {
  slots : int;
  classes : cls array;
  (* member label -> (class, position, index in the member's [labels]);
     read-only once built, so domains share it without a lock *)
  label_index : (string, int * int * int) Hashtbl.t;
}

let make ~slots classes =
  let classes =
    Array.of_list (List.filter (fun c -> Array.length c.members >= 2) classes)
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
  { slots; classes; label_index }

let empty = { slots = 0; classes = [||]; label_index = Hashtbl.create 1 }
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
let applies spec frame slots =
  Frame.restriction frame <> None
  && Frame.left_deep frame
  && Frame.width frame = spec.slots
  && not
       (Array.exists
          (fun h -> match Hproc.node h with Hproc.Par _ -> true | _ -> false)
          slots)

let compare_tuples a b =
  let n = Array.length a in
  let rec go i =
    if i >= n then 0
    else
      let c = Hproc.compare_structural a.(i) b.(i) in
      if c <> 0 then c else go (i + 1)
  in
  go 0

(* Returns whether [slots] changed, and the witness. *)
let canon_in_place spec frame slots =
  let identity () =
    Array.map (fun c -> Array.init (Array.length c.members) Fun.id) spec.classes
  in
  if not (applies spec frame slots) then (false, identity ())
  else begin
    let changed = ref false in
    let perms =
      Array.map
        (fun c ->
          let k = Array.length c.members in
          (* Member slot tuples, renamed into the rep's name space so
             they are comparable. *)
          let tuples =
            Array.map
              (fun m ->
                Array.init m.width (fun j -> m.to_rep_h slots.(m.offset + j)))
              c.members
          in
          let order = Array.init k Fun.id in
          Array.sort
            (fun a b ->
              let cmp = compare_tuples tuples.(a) tuples.(b) in
              if cmp <> 0 then cmp else Int.compare a b)
            order;
          for j = 0 to k - 1 do
            if order.(j) <> j then begin
              let dst = c.members.(j) in
              let tup = tuples.(order.(j)) in
              for x = 0 to dst.width - 1 do
                let v = dst.of_rep_h tup.(x) in
                if not (Hproc.equal v slots.(dst.offset + x)) then
                  changed := true;
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

let canon_w spec frame slots = snd (canon_in_place spec frame slots)
let canon spec frame slots = fst (canon_in_place spec frame slots)

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
