(* Operational semantics of ACSR.

   [steps] computes the unprioritized transition relation of a closed
   process term; [prioritized] filters it through the preemption relation
   (Step.prioritize), yielding the prioritized transition relation on which
   schedulability analysis is performed.

   Time progress is global: in a parallel composition both operands must
   take timed actions together, with disjoint resource sets (rule Par3 in
   the paper); events interleave or synchronize CCS-style. *)

exception Not_closed of string
exception Unguarded_recursion of string

(* Bound on nested Call unfoldings within the computation of a single step
   set.  Well-formed ACSR definitions are guarded (every recursive call is
   behind an action or event prefix), so this limit is only reached by
   ill-founded definitions such as [X = X]. *)
let max_unfold_depth = 4096

let ground_env = Expr.Env.empty

let eval_expr name e =
  match Expr.eval ground_env e with
  | v -> v
  | exception Expr.Unbound_parameter x ->
      raise (Not_closed (Fmt.str "%s: unbound parameter %s" name x))

let rec steps_at depth (defs : Defs.t) (p : Proc.t) :
    (Step.t * Proc.t) list =
  match p with
  | Proc.Nil -> []
  | Proc.Act (a, k) ->
      let ground =
        List.map (fun (r, e) -> (r, eval_expr "action priority" e)) a
      in
      [ (Step.Action ground, k) ]
  | Proc.Ev (e, k) ->
      let prio = eval_expr "event priority" (Event.priority e) in
      [ (Step.Event (Event.label e, Event.dir e, prio), k) ]
  | Proc.Choice (a, b) -> steps_at depth defs a @ steps_at depth defs b
  | Proc.Par (a, b) -> par_steps depth defs a b
  | Proc.Scope s -> scope_steps depth defs s
  | Proc.Restrict (forbidden, k) ->
      let keep (step, _) =
        match step with
        | Step.Event (l, _, _) -> not (Label.Set.mem l forbidden)
        | Step.Action _ | Step.Tau _ -> true
      in
      steps_at depth defs k
      |> List.filter keep
      |> List.map (fun (s, k') -> (s, Proc.Restrict (forbidden, k')))
  | Proc.Close (owned, k) ->
      let close_step (step, k') =
        let step' =
          match step with
          | Step.Action a ->
              let used = Action.Ground.resources a in
              let extra =
                Resource.Set.diff owned used
                |> Resource.Set.elements
                |> List.map (fun r -> (r, 0))
              in
              Step.Action (Action.Ground.union a extra)
          | Step.Event _ | Step.Tau _ -> step
        in
        (step', Proc.Close (owned, k'))
      in
      List.map close_step (steps_at depth defs k)
  | Proc.If (g, k) -> (
      match Guard.eval ground_env g with
      | true -> steps_at depth defs k
      | false -> []
      | exception Expr.Unbound_parameter x ->
          raise (Not_closed (Fmt.str "guard: unbound parameter %s" x)))
  | Proc.Call (name, args) ->
      if depth > max_unfold_depth then raise (Unguarded_recursion name);
      let values = List.map (eval_expr name) args in
      steps_at (depth + 1) defs (Defs.instantiate defs name values)

and par_steps depth defs a b =
  let sa = steps_at depth defs a and sb = steps_at depth defs b in
  (* interleaved instantaneous steps *)
  let left =
    List.filter_map
      (fun (s, a') ->
        match s with
        | Step.Event _ | Step.Tau _ -> Some (s, Proc.Par (a', b))
        | Step.Action _ -> None)
      sa
  and right =
    List.filter_map
      (fun (s, b') ->
        match s with
        | Step.Event _ | Step.Tau _ -> Some (s, Proc.Par (a, b'))
        | Step.Action _ -> None)
      sb
  in
  (* synchronized timed actions with disjoint resources *)
  let timed =
    List.concat_map
      (fun (s, a') ->
        match s with
        | Step.Action aa ->
            List.filter_map
              (fun (s', b') ->
                match s' with
                | Step.Action ab when Action.Ground.disjoint aa ab ->
                    Some
                      ( Step.Action (Action.Ground.union aa ab),
                        Proc.Par (a', b') )
                | Step.Action _ | Step.Event _ | Step.Tau _ -> None)
              sb
        | Step.Event _ | Step.Tau _ -> [])
      sa
  in
  (* CCS-style synchronization of matching input/output events *)
  let sync =
    List.concat_map
      (fun (s, a') ->
        match s with
        | Step.Event (l, da, pa) ->
            List.filter_map
              (fun (s', b') ->
                match s' with
                | Step.Event (l', db, pb)
                  when Label.equal l l' && da <> db ->
                    Some (Step.Tau (Some l, pa + pb), Proc.Par (a', b'))
                | Step.Event _ | Step.Action _ | Step.Tau _ -> None)
              sb
        | Step.Action _ | Step.Tau _ -> [])
      sa
  in
  left @ right @ timed @ sync

and scope_steps depth defs (s : Proc.scope) =
  let bound = Option.map (eval_expr "scope bound") s.bound in
  match bound with
  | Some 0 ->
      (* timeout exit: the scope is left and the handler takes over *)
      steps_at depth defs s.timeout
  | _ ->
      let decrement =
        match bound with
        | Some n -> Some (Expr.Int (n - 1))
        | None -> None
      in
      let of_body (step, body') =
        match (step, s.exc) with
        | Step.Event (l, Event.Out, _), Some (l', handler)
          when Label.equal l l' ->
            (* exception exit: voluntary transfer of control *)
            [ (step, handler) ]
        | Step.Action _, _ ->
            [ (step, Proc.Scope { s with body = body'; bound = decrement }) ]
        | (Step.Event _ | Step.Tau _), _ ->
            [ (step, Proc.Scope { s with body = body' }) ]
      in
      let body_steps = List.concat_map of_body (steps_at depth defs s.body) in
      let interrupt_steps =
        match s.interrupt with
        | Some handler -> steps_at depth defs handler
        | None -> []
      in
      body_steps @ interrupt_steps

let dedup steps = List.sort_uniq Stdlib.compare steps

let steps defs p = dedup (steps_at 0 defs p)
let prioritized defs p = Step.prioritize (steps defs p)
let is_deadlocked defs p = steps defs p = []

(* {1 The hash-consed engine}

   A mirror of [steps_at] over [Hproc.t], except that a parallel
   composition is composed as a whole frame of slots rather than one
   binary Par at a time (see the kernel below).  Successors are built
   with the raw (non-simplifying) [Hproc] constructors, so each
   materialized successor is the hash-consed image of exactly the term
   the reference engine above would build — the two engines agree
   term-for-term, which the test suite checks by property.

   A state is a vector of slot nodes ([Node]): the step set of a slot
   term is computed once per exploration, when the kernel first meets
   its node, and compiled into arrays of event offers (with label ids),
   internal steps and timed actions.  Each compiled step keeps its
   target node once resolved.  The translated AADL models re-enter the
   same few slot terms at nearly every state, so expanding a state reads
   node fields only.

   Call unfolding (substitute evaluated arguments through the definition
   body, then intern the result) is memoized per (name, arguments).  It
   runs only while a step set is compiled. *)

(* {2 The kernel}

   A translated system is [Restrict (L, P_0 || ... || P_{n-1})], and the
   explorer keeps each of its states as a vector of slot nodes over one
   fixed frame ([Frame]): the restriction and the Par spine never
   change, so they are neither rebuilt nor interned per successor.
   Following the binary Par rule down the tree would build a successor
   for every offer at every level, most of which the restriction (an
   unsynchronized event on a label of [L]) or preemption (a timed step
   beaten by another) then discard.  The kernel instead works in two
   parts.

   [select] takes the n slots and scans the integer code of each one's
   compiled step set ([Node.steps.code]), recording candidates as
   integers (kind, priority, label, slots, edge indices) in the cache's
   scratch:
   - each slot's tau steps, and its event steps on labels not in [L]
     (a byte read of the frame by label id);
   - each pair of complementary events in slots i < j, as [tau@l]: an
     offer is chained into its slot-independent bucket, the one of its
     real label id, and paired with the complementary offers of earlier
     slots already chained there;
   - each choice of one timed step per slot with pairwise-disjoint
     resources (none if some slot has no timed step; see the timed
     product).
   Every pair of leaves meets at exactly one Par node, so these are the
   binary rule's steps at the root, label for label and successor for
   successor.  Preemption is then decided on the integers, and the
   survivors are written as a plan (see Plans): each one's step id and
   the slots and edge indices it moves, sorted by step.  Preemption
   reads the set of enabled labels alone, so filtering before sorting
   and deduplicating yields exactly the list the binary rule,
   [sort_uniq] and [Step.prioritize] give.  [Step.preempts] relates only
   steps of one kind, and on the integers it reads:
   - a tau (or [tau@l]) is preempted iff some tau has a higher
     priority;
   - an event iff some event on its label, in its direction, has a
     higher priority;
   - a timed step iff some tau has a priority above 0 — then the
     product is not built at all — or another timed step preempts it
     (the timed product).

   [build] turns a plan and the state's nodes into rows: a copy of the
   state's vector with one or two slots patched, or with every slot
   ticking, each target read off its edge.  Rows are sorted by step,
   then slot by slot with [Hproc.compare_structural]: over one frame
   that is the order of the materialized terms, which mirrors the
   reference engine's [sort_uniq Stdlib.compare].  The plan lists them
   by step already, so only rows of one step are compared by their
   vectors.

   [select] and [build] are the engine's only Par rule.  A slot whose
   term becomes a [Par] stays one opaque slot: its step set is compiled
   from [h_steps_at], which splits it into a frame of its own and runs
   the kernel on that frame's nodes, with no restriction, no preemption
   and no memo.  A root that is not a system is a 1-slot frame, whose
   kernel result is that slot's own step set.  Such a nested kernel
   runs only while the outer one compiles its slots, before the outer
   one touches the scratch or writes a plan, so one scratch and one
   plan buffer serve both.  No AADL analysis reaches the nested path:
   the translation composes every unit, a latency observer included,
   under one restriction over one flat spine.  It serves textual ACSR
   models, whose terms may nest [Par]s anywhere, and the wrappers
   [h_steps] and [h_prioritized]. *)

(* {2 Views}

   Under an orbit reduction a member's slots hold their terms renamed
   into the class representative's names, so that the members of a
   class share nodes and compile each local state once.  The kernel
   reads such a slot through its view, which maps a stored label id back
   to the member's real one: complementary offers are matched, and the
   frame's restriction is read, on real ids, and every emitted step
   carries its real label.  Targets stay in the stored names.  Timed
   actions need no view: resources are never renamed.

   Every run goes through the one loop: without views, or on a label
   no view renames, the stored id is the real one in every slot, and a
   byte read says so, so an unreduced run pairs offers and reads the
   restriction as it always did. *)

type view = {
  stored : int array;  (* the ids of the labels it renames, ascending *)
  real : int array;  (* by index in [stored]: the real label's id *)
  labels : Label.t array;  (* by index in [stored]: the real label *)
  bits : int;  (* [Node.bit] of each stored id *)
  compare : Hproc.t -> Hproc.t -> int;
}

type views = {
  slot : view array;  (* per slot; [plain] past the end *)
  lo : int;  (* the smallest label id some view renames *)
  renamed : Bytes.t;
      (* by label id less [lo]: '\001' for the labels some view renames;
         ids outside it are renamed by none *)
  rows : Step.t * Node.t array -> Step.t * Node.t array -> int;
      (* [row_compare] on these views, built once rather than per
         state *)
}

let plain =
  {
    stored = [||];
    real = [||];
    labels = [||];
    bits = 0;
    compare = Hproc.compare_structural;
  }

(* Indices are checked before the unsafe reads. *)
let[@inline] view_of views i =
  if i < Array.length views.slot then Array.unsafe_get views.slot i else plain

(* Rows are sorted by step, then by the real terms of their vectors read
   through [views]: the first slot where two rows differ decides, in its
   view's order.  The rows of a plan take their steps from the
   exploration's numbered steps, so rows of one step share it, and their
   step, a timed one over every slot's resources in particular, is not
   walked. *)
let row_compare views (s1, (v1 : Node.t array)) (s2, (v2 : Node.t array)) =
  let c = if s1 == s2 then 0 else Step.compare s1 s2 in
  if c <> 0 then c
  else
    let rec go i =
      if i >= Array.length v1 then 0
      else if v1.(i) == v2.(i) then go (i + 1)
      else (view_of views i).compare v1.(i).term v2.(i).term
    in
    go 0

let make_views slot lo renamed =
  let rec views =
    { slot; lo; renamed; rows = (fun a b -> row_compare views a b) }
  in
  views

let no_views = make_views [||] 0 Bytes.empty

(* The index of label id [id] in [v.stored], or -1. *)
let rec search (stored : int array) id lo hi =
  if lo >= hi then -1
  else
    let mid = (lo + hi) lsr 1 in
    let s = Array.unsafe_get stored mid in
    if s = id then mid
    else if s < id then search stored id (mid + 1) hi
    else search stored id lo mid

let find v id = search v.stored id 0 (Array.length v.stored)

(* A view holds only the labels it renames, so its size does not grow
   with the number of labels the exploration has numbered. *)
let view terms ~labels ~compare =
  let id = Hproc.label_id terms in
  let pairs =
    List.filter (fun (s, r) -> not (Label.equal s r)) labels
    |> List.sort_uniq (fun (s1, r1) (s2, r2) ->
           let c = Int.compare (id s1) (id s2) in
           if c <> 0 then c else Int.compare (id r1) (id r2))
  in
  let stored = Array.of_list (List.map (fun (s, _) -> id s) pairs) in
  let v =
    {
      stored;
      real = Array.of_list (List.map (fun (_, r) -> id r) pairs);
      labels = Array.of_list (List.map snd pairs);
      bits = Array.fold_left (fun b id -> b lor Node.bit id) 0 stored;
      compare;
    }
  in
  (* the kernel also maps real ids back to stored ones through the view;
     a stored id listed twice has two real ones, which [find] cannot
     both return *)
  let maps s r =
    let k = find v (id s) in
    k >= 0 && v.real.(k) = id r
  in
  if not (List.for_all (fun (s, r) -> maps s r && maps r s) pairs) then
    invalid_arg "Semantics.view: the renaming is not its own inverse";
  v

let slot_views slot =
  let ids = Array.concat (Array.to_list (Array.map (fun v -> v.stored) slot)) in
  if Array.length ids = 0 then make_views slot 0 Bytes.empty
  else begin
    let lo = Array.fold_left min max_int ids
    and hi = Array.fold_left max min_int ids in
    let renamed = Bytes.make (hi - lo + 1) '\000' in
    Array.iter (fun i -> Bytes.set renamed (i - lo) '\001') ids;
    make_views slot lo renamed
  end

(* The kernel's loops call these on every tau and offer: inlined, they
   cost a label that no view renames one test of the [renamed] byte
   map. *)
let[@inline] renamed_anywhere views id =
  let b = id - views.lo in
  b >= 0
  && b < Bytes.length views.renamed
  && Bytes.unsafe_get views.renamed b <> '\000'

(* The index of [id] in [v], or -1 when [v] does not rename [id].  A
   view is asked about every id some view renames, most of them another
   member's, and its [bits] turn most of those away without a
   search. *)
let[@inline] renaming v id =
  if v.bits land Node.bit id = 0 then -1 else find v id

(* {2 Plans}

   A plan is the integer form of a state's rows: a record of int32
   cells in the cache's plan buffer, which holds no pointer, so a memo
   of thousands of plans gives the collector nothing to scan:
   - its number of rows, then 1 when their steps are pairwise distinct
     (the rows are then in order already) or 0 (rows of one step must
     still be compared by their vectors);
   - per row, from the last in step order to the first: its step id (by
     [cache.steps]: one id per distinct step of the exploration), its
     kind, then
     - [p_tau]: its slot and the index of the slot's internal step;
     - [p_offer]: its slot and the index of the slot's offer;
     - [p_sync]: the two slots and their offers' indices;
     - [p_tick]: per slot with more than one timed step, in slot order,
       the index of the one picked; every other slot ticks its only one.
   A plan names edges, never nodes: two states whose slots have equal
   codes may step to different terms. *)

(* Steps by structure.  [Hashtbl.hash] reads ten meaningful values, so
   it would give the timed steps of one exploration, which share their
   first resources, a handful of buckets; this hash reads the whole
   action. *)
module Steps = Hashtbl.Make (struct
  type t = Step.t

  let equal (a : t) b = a = b
  let hash (s : t) = Hashtbl.hash_param 256 256 s
end)

(* Int32 cells in bytes, which the collector neither scans nor, unlike
   a Bigarray's custom block, counts against its schedule: a memo's
   buffers doubling as it grows would otherwise bring the next major
   cycle closer each time. *)
type cells = Bytes.t

external get32 : Bytes.t -> int -> int32 = "%caml_bytes_get32u"
external set32 : Bytes.t -> int -> int32 -> unit = "%caml_bytes_set32u"

let cells n : cells = Bytes.create (4 * n)
let[@inline] dim (c : cells) = Bytes.length c / 4
let[@inline] cell (c : cells) i = Int32.to_int (get32 c (4 * i))
let[@inline] set_cell (c : cells) i x = set32 c (4 * i) (Int32.of_int x)

(* [n] cells, all 0 *)
let zeros n : cells = Bytes.make (4 * n) '\000'

(* [c], or a copy at least twice its size when it has fewer than [need]
   cells *)
let reserve (c : cells) need =
  let n = dim c in
  if need <= n then c
  else begin
    let b = cells (max need (2 * n)) in
    Bytes.blit c 0 b 0 (4 * n);
    b
  end

let p_tau = 0
let p_offer = 1
let p_sync = 2
let p_tick = 3

(* {2 The memo}

   An exploration expands a state through [successors], which keeps the
   plans it selects, keyed by the vector of the slots' code ids
   ([Node.steps.code_id]), and builds the rows of a state whose key it
   has met from the kept plan, without selecting again.

   Soundness.  [select] reads, of a state, each slot's code and its
   slot index (through the views) only; besides those, it reads the
   frame's hidden map, the views and [prioritize], which a memo fixes
   (it is made for one frame, one views value and one [prioritize]).
   So a state's plan, up to step ids, is a function of its key.  The
   steps themselves are too: a step is made of its code's label and
   resource ids, priorities and direction, and those ids name labels
   and resources one to one within the exploration's intern table, so
   equal codes give equal steps, with the same step ids.  [build] reads
   every target off the state's own edges.  A memoized exploration
   therefore builds, in the same order, the rows an unmemoized one
   builds: counts, deadlock ids and traces do not move.  A miss costs
   one [select], as without the memo, plus one append. *)

type memo = {
  frame : Frame.t;
  views : views;
  prioritize : bool;
  width : int;  (* of [frame] *)
  mutable keys : cells;  (* by plan, [width] cells: its key *)
  mutable hashes : cells;  (* by plan: its key's hash *)
  mutable offsets : cells;  (* by plan: where its record starts *)
  mutable table : cells;  (* plan + 1 by probe position; 0 is empty *)
  mutable mask : int;  (* dim table - 1 *)
  mutable len : int;  (* plans kept *)
  mutable hits : int;
  mutable misses : int;
}

(* Buffers start small: most explorations keep a few hundred plans. *)
let make_memo ~frame ~views ~prioritize =
  let width = Frame.width frame in
  {
    frame;
    views;
    prioritize;
    width;
    keys = cells (16 * width);
    hashes = cells 16;
    offsets = cells 16;
    table = zeros 64;
    mask = 63;
    len = 0;
    hits = 0;
    misses = 0;
  }

(* The key hash, a slot at a time, and its last mix: 30 bits, which an
   int32 cell keeps as they are. *)
let[@inline] mix h code_id = (h + code_id + 1) * 0x9E3779B97F4A7C1

let[@inline] finish h = (h lxor (h lsr 29)) land 0x3FFF_FFFF

(* Cells [base + s .. base + width) of [keys] hold the code ids of
   [slots]'s slots [s ..]. *)
let rec same_key (keys : cells) base (slots : Node.t array) s width =
  s = width
  || cell keys (base + s) = (Array.unsafe_get slots s).Node.steps.code_id
     && same_key keys base slots (s + 1) width

(* The plan kept for [slots], whose key hash is [h], probing from
   position [i]: its index, or [-1 - j] for the free position [j] at
   which to keep it. *)
let rec lookup m slots h i =
  let e = cell m.table i in
  if e = 0 then -1 - i
  else
    let p = e - 1 in
    if cell m.hashes p = h && same_key m.keys (p * m.width) slots 0 m.width
    then p
    else lookup m slots h ((i + 1) land m.mask)

(* Re-place every plan in a table twice the size, by its cached hash. *)
let rehash m =
  let size = 2 * dim m.table in
  let table = zeros size and mask = size - 1 in
  for p = 0 to m.len - 1 do
    let i = ref (cell m.hashes p land mask) in
    while cell table !i <> 0 do
      i := (!i + 1) land mask
    done;
    set_cell table !i (p + 1)
  done;
  m.table <- table;
  m.mask <- mask

(* Keep the plan at [offset] for [slots], at free position [i]. *)
let keep_plan m (slots : Node.t array) h i offset =
  let p = m.len in
  m.keys <- reserve m.keys ((p + 1) * m.width);
  m.hashes <- reserve m.hashes (p + 1);
  m.offsets <- reserve m.offsets (p + 1);
  for s = 0 to m.width - 1 do
    set_cell m.keys ((p * m.width) + s) slots.(s).Node.steps.code_id
  done;
  set_cell m.hashes p h;
  set_cell m.offsets p offset;
  set_cell m.table i (p + 1);
  m.len <- p + 1;
  if 2 * m.len > dim m.table then rehash m

type cache = {
  nodes : Node.table;
      (** one node per slot term, with its compiled step set.  Sound
          because a step set is a pure function of the term and the
          fixed [defs] the cache is used with. *)
  unfold : (string * int list, Hproc.t) Hashtbl.t;
  step_ids : int Steps.t;  (** the plans' step ids *)
  mutable steps : Step.t array;  (** by step id *)
  mutable plans : cells;  (** plan records *)
  mutable plans_len : int;
      (** the kept plans' cells; a plan past it is the one being built *)
  mutable memo : memo option;  (** of the last [successors] *)
  (* The kernel's per-state scratch (see the kernel): integers only, so
     that reusing it across states writes no pointer into the major
     heap. *)
  mutable epoch : int;  (** bumped once per [select] *)
  mutable stamp : int array;
      (** by real label id: the epoch its offer bucket was last written
          in; an older stamp means an empty bucket *)
  mutable head : int array;
      (** by real label id: the bucket's newest entry in [entries] *)
  mutable entries : int array;  (** offer entries, [entry_width] each *)
  mutable cands : int array;  (** candidates, [cand_width] each *)
  mutable ncands : int;
  mutable nentries : int;
  mutable survivors : int array;
      (** the candidates and combinations that survive preemption, three
          ints each: step id, plan kind, and candidate or combination *)
  mutable nsurvivors : int;
  mutable order : int array;  (** the survivors, sorted by step *)
  mutable choice : int array;  (** the slots with a choice of timed step *)
  mutable pick : int array;  (** by choice: the timed step picked *)
  mutable base_mask : int;
  mutable combos : int array;  (** timed combinations *)
  mutable count : int;  (** of combinations *)
  mutable parts : int array;  (** their choice parts' accesses *)
  mutable used : int;  (** of [parts] *)
  mutable rclock : int;
  mutable rstamp : int array;
      (** by resource id: the [rclock] its priority was written at *)
  mutable rprio : int array;  (** by resource id *)
}

let make_cache () =
  {
    nodes = Node.create (Hproc.create ());
    unfold = Hashtbl.create 256;
    step_ids = Steps.create 64;
    steps = [||];
    plans = cells 256;
    plans_len = 0;
    memo = None;
    epoch = 0;
    stamp = [||];
    head = [||];
    entries = [||];
    cands = [||];
    ncands = 0;
    nentries = 0;
    survivors = [||];
    nsurvivors = 0;
    order = [||];
    choice = [||];
    pick = [||];
    base_mask = 0;
    combos = [||];
    count = 0;
    parts = [||];
    used = 0;
    rclock = 0;
    rstamp = [||];
    rprio = [||];
  }

let nodes cache = cache.nodes
let terms cache = Node.terms cache.nodes

type plan_stats = { plan_hits : int; plan_misses : int; plan_bytes : int }

let plan_stats cache =
  let buffer = Bytes.length cache.plans in
  match cache.memo with
  | None -> { plan_hits = 0; plan_misses = 0; plan_bytes = buffer }
  | Some m ->
      {
        plan_hits = m.hits;
        plan_misses = m.misses;
        plan_bytes =
          buffer
          + Bytes.length m.keys + Bytes.length m.hashes
          + Bytes.length m.offsets + Bytes.length m.table;
      }

let unfold_call cache defs name values =
  let key = (name, values) and terms = terms cache in
  match Hashtbl.find_opt cache.unfold key with
  | Some h -> h
  | None ->
      let h = Hproc.of_proc terms (Defs.instantiate defs name values) in
      Hashtbl.add cache.unfold key h;
      h

(* The id of step [s], numbered on first sight. *)
let step_id cache s =
  match Steps.find_opt cache.step_ids s with
  | Some id -> id
  | None ->
      let id = Steps.length cache.step_ids in
      if id = Array.length cache.steps then begin
        let bigger = Array.make (max 16 (2 * id)) s in
        Array.blit cache.steps 0 bigger 0 id;
        cache.steps <- bigger
      end;
      cache.steps.(id) <- s;
      Steps.add cache.step_ids s id;
      id

(* {2 Scratch}

   A candidate is [cand_width] ints in [cache.cands]: its kind, its
   priority, the real label id (events), the index of the real label in
   slot [i]'s view or -1 when the stored label is the real one, slot
   [i] and the index [a] of its step there, and for a synchronization
   the earlier slot [j] and the index [b] of its offer.  An offer entry
   is [entry_width] ints in [cache.entries]: slot, offer index,
   direction, priority and the next entry of its bucket (-1 ends it). *)

let k_tau = 0
let k_in = 1
let k_out = 2
let k_sync = 3
let cand_width = 8
let entry_width = 5

(* [Node.target], its common case inlined *)
let[@inline] target nodes (e : Node.edge) =
  let n = e.target in
  if n != Node.dummy then n else Node.target nodes e

let grow a need =
  let b = Array.make (max need (2 * Array.length a)) 0 in
  Array.blit a 0 b 0 (Array.length a);
  b

let add_cand cache ~kind ~prio ~id ~k ~i ~a ~j ~b =
  let at = cache.ncands * cand_width in
  if at + cand_width > Array.length cache.cands then
    cache.cands <- grow cache.cands (at + cand_width);
  let c = cache.cands in
  Array.unsafe_set c at kind;
  Array.unsafe_set c (at + 1) prio;
  Array.unsafe_set c (at + 2) id;
  Array.unsafe_set c (at + 3) k;
  Array.unsafe_set c (at + 4) i;
  Array.unsafe_set c (at + 5) a;
  Array.unsafe_set c (at + 6) j;
  Array.unsafe_set c (at + 7) b;
  cache.ncands <- cache.ncands + 1

(* Offer [a] of slot [i], on real label [id] ([k] as in a candidate),
   meets its bucket: a synchronization with each complementary offer of
   an earlier slot already chained there, then is chained itself.  The
   bucket holds this slot's earlier offers on [id] first, then the
   earlier slots', newest first.  Returns the highest priority of the
   synchronizations, [min_int] for none. *)
let chain_offer cache ~epoch ~i ~a ~id ~k ~dir ~prio =
  if id >= Array.length cache.stamp then begin
    cache.stamp <- grow cache.stamp (id + 1);
    cache.head <- grow cache.head (id + 1)
  end;
  let first =
    if Array.unsafe_get cache.stamp id = epoch then
      Array.unsafe_get cache.head id
    else -1
  in
  let top = ref min_int and e = ref first in
  while !e >= 0 do
    let en = cache.entries and at = !e * entry_width in
    let j = Array.unsafe_get en at in
    if j <> i && Array.unsafe_get en (at + 2) <> dir then begin
      let prio = prio + Array.unsafe_get en (at + 3) in
      if prio > !top then top := prio;
      add_cand cache ~kind:k_sync ~prio ~id ~k ~i ~a ~j
        ~b:(Array.unsafe_get en (at + 1))
    end;
    e := Array.unsafe_get en (at + 4)
  done;
  let at = cache.nentries * entry_width in
  if at + entry_width > Array.length cache.entries then
    cache.entries <- grow cache.entries (at + entry_width);
  let en = cache.entries in
  Array.unsafe_set en at i;
  Array.unsafe_set en (at + 1) a;
  Array.unsafe_set en (at + 2) dir;
  Array.unsafe_set en (at + 3) prio;
  Array.unsafe_set en (at + 4) first;
  Array.unsafe_set cache.stamp id epoch;
  Array.unsafe_set cache.head id cache.nentries;
  cache.nentries <- cache.nentries + 1;
  !top

(* Some other event candidate of [kind] on label [id] has a priority
   above [prio]. *)
let outranked (c : int array) nc kind id prio =
  let x = ref 0 and found = ref false in
  while (not !found) && !x < nc do
    let at = !x * cand_width in
    found :=
      Array.unsafe_get c at = kind
      && Array.unsafe_get c (at + 2) = id
      && Array.unsafe_get c (at + 1) > prio;
    incr x
  done;
  !found

(* {2 The timed product}

   Every choice of one timed step per slot, with pairwise-disjoint
   resources.  A slot with one timed step makes the same choice in every
   combination, so the union of those slots' actions, the base, is the
   same in every combination; if the base is already contended, or some
   slot has no timed step, there is no combination at all.  Each
   combination is thus the base plus its choice part: the union of the
   actions chosen in the slots with more than one timed step.

   Resource masks ([Node.resource_bit]) decide disjointness when they
   share no bit; a shared bit falls back to comparing the two actions'
   resource ids, which name resources exactly.  The combinations are
   enumerated, and compared, as integers in the cache's scratch.

   Preemption is decided on the choice parts.  The base's resources are
   disjoint from every choice part's, and used at the same priorities
   in every combination.  [Action.Ground.preempts] asks (a) that every
   resource of the preempted action be used by the preempting one at a
   priority at least as high, and (b) that some resource of the
   preempting one have a priority above the preempted one's (0 if
   unused).  On the base's resources (a) holds and (b) never does, with
   equal priorities on both sides; a resource of either choice part is
   outside the base.  So base + x preempts base + y iff x preempts y.
   Only the combinations no other one preempts get their full action
   (the base, built once per selection, plus the choice part) and a
   row in the plan. *)

let[@inline] timed_mask (code : int array) m =
  code.(code.(Node.timed_at) + (Node.timed_width * m))

let[@inline] accesses (code : int array) m =
  code.(code.(Node.timed_at) + (Node.timed_width * m) + 1)

(* No resource id of the accesses at [a] in [ca] is among those at [b]
   in [cb]: the exact test behind a mask that shares a bit. *)
let disjoint_ids (ca : int array) a (cb : int array) b =
  let ok = ref true and x = ref 0 in
  while !ok && !x < ca.(a) do
    let id = ca.(a + 1 + (2 * !x)) in
    for y = 0 to cb.(b) - 1 do
      if cb.(b + 1 + (2 * y)) = id then ok := false
    done;
    incr x
  done;
  !ok

(* Timed step [m] of [code] (mask [mm]) is disjoint from the one timed
   step of every slot in [0, upto) that has one. *)
let disjoint_from_singles (slots : Node.t array) upto code m mm =
  let at = accesses code m and ok = ref true and j = ref 0 in
  while !ok && !j < upto do
    let c = slots.(!j).Node.steps.code in
    ok :=
      c.(Node.num_timed) <> 1
      || timed_mask c 0 land mm = 0
      || disjoint_ids code at c (accesses c 0);
    incr j
  done;
  !ok

let[@inline] union a b =
  match a with [] -> b | _ :: _ -> Action.Ground.union a b

let base_action (slots : Node.t array) =
  let u = ref Action.Ground.idle in
  for i = 0 to Array.length slots - 1 do
    let t = slots.(i).Node.steps.timed in
    if Array.length t = 1 then u := union t.(0).action !u
  done;
  !u

(* The number of slots with a choice, written to [cache.choice], with
   the base's mask in [cache.base_mask]; -1 when there is no
   combination. *)
let timed_base cache (slots : Node.t array) =
  let n = Array.length slots in
  if Array.length cache.choice < n then cache.choice <- grow cache.choice n;
  let mask = ref 0 and w = ref 0 and i = ref 0 in
  while !w >= 0 && !i < n do
    let code = slots.(!i).Node.steps.code in
    (match code.(Node.num_timed) with
    | 0 -> w := -1
    | 1 ->
        let m = timed_mask code 0 in
        if !mask land m = 0 || disjoint_from_singles slots !i code 0 m then
          mask := !mask lor m
        else w := -1
    | _ ->
        cache.choice.(!w) <- !i;
        incr w);
    incr i
  done;
  cache.base_mask <- !mask;
  !w

(* Timed step [m] of [code] (mask [mm]), a step of choice [k], is
   disjoint from the steps picked for choices [0, k). *)
let disjoint_from_picks cache (slots : Node.t array) k code m mm =
  let at = accesses code m and ok = ref true and k' = ref 0 in
  while !ok && !k' < k do
    let c = slots.(cache.choice.(!k')).Node.steps.code
    and m' = cache.pick.(!k') in
    ok :=
      timed_mask c m' land mm = 0 || disjoint_ids code at c (accesses c m');
    incr k'
  done;
  !ok

(* A combination is a row of [w + 3] ints in [cache.combos]: the mask
   of its choice part, where the part's accesses start in [cache.parts]
   and their number, then the timed step picked for each choice. *)
let[@inline] combo_width w = w + 3

(* Record the picks of choices [0, w) as combination [cache.count]. *)
let add_combination cache (slots : Node.t array) w mask =
  let width = combo_width w in
  let at = cache.count * width in
  if at + width > Array.length cache.combos then
    cache.combos <- grow cache.combos (at + width);
  let start = cache.used in
  for k = 0 to w - 1 do
    let code = slots.(cache.choice.(k)).Node.steps.code in
    let a = accesses code cache.pick.(k) in
    let len = 2 * code.(a) in
    if cache.used + len > Array.length cache.parts then
      cache.parts <- grow cache.parts (cache.used + len);
    (* plain loops: a blit is a C call, and these copy a few ints *)
    for x = 0 to len - 1 do
      cache.parts.(cache.used + x) <- code.(a + 1 + x)
    done;
    cache.used <- cache.used + len
  done;
  let row = cache.combos in
  row.(at) <- mask;
  row.(at + 1) <- start;
  row.(at + 2) <- (cache.used - start) / 2;
  for k = 0 to w - 1 do
    row.(at + 3 + k) <- cache.pick.(k)
  done;
  cache.count <- cache.count + 1

(* Every extension of the picks of choices [0, k), whose choice part
   has mask [mask], to a combination. *)
let rec extend cache (slots : Node.t array) w k mask =
  if k = w then add_combination cache slots w mask
  else begin
    let code = slots.(cache.choice.(k)).Node.steps.code in
    for m = 0 to code.(Node.num_timed) - 1 do
      let mm = timed_mask code m in
      if
        (mm land cache.base_mask = 0
        || disjoint_from_singles slots (Array.length slots) code m mm)
        && (mm land mask = 0 || disjoint_from_picks cache slots k code m mm)
      then begin
        cache.pick.(k) <- m;
        extend cache slots w (k + 1) (mask lor mm)
      end
    done
  end

(* Every combination, into [cache.combos]; returns their number. *)
let combinations cache (slots : Node.t array) w =
  if Array.length cache.pick < w then cache.pick <- grow cache.pick w;
  cache.count <- 0;
  cache.used <- 0;
  extend cache slots w 0 0;
  cache.count

(* Stamp combination [y]'s choice part into the resource scratch: per
   resource id, [y]'s priority. *)
let stamp_part cache w y =
  cache.rclock <- cache.rclock + 1;
  let at = y * combo_width w in
  let start = cache.combos.(at + 1) in
  for r = 0 to cache.combos.(at + 2) - 1 do
    let id = cache.parts.(start + (2 * r)) in
    if id >= Array.length cache.rstamp then begin
      cache.rstamp <- grow cache.rstamp (id + 1);
      cache.rprio <- grow cache.rprio (id + 1)
    end;
    cache.rstamp.(id) <- cache.rclock;
    cache.rprio.(id) <- cache.parts.(start + (2 * r) + 1)
  done

(* [Action.Ground.preempts] of combination [x]'s choice part over the
   stamped part [y]: every resource of [y] is used by [x] at a priority
   at least as high, and some resource of [x] has a priority above
   [y]'s (0 when unstamped).  The picked actions of a combination are
   disjoint, so [x] meets each resource once. *)
let part_preempts cache w x y =
  let at = x * combo_width w in
  let start = cache.combos.(at + 1) in
  let covered = ref 0 and ok = ref true and strict = ref false in
  for r = 0 to cache.combos.(at + 2) - 1 do
    let id = cache.parts.(start + (2 * r))
    and p = cache.parts.(start + (2 * r) + 1) in
    if id < Array.length cache.rstamp && cache.rstamp.(id) = cache.rclock
    then begin
      incr covered;
      let q = cache.rprio.(id) in
      if p < q then ok := false else if p > q then strict := true
    end
    else if p > 0 then strict := true
  done;
  !ok && !strict && !covered = cache.combos.((y * combo_width w) + 2)

(* Combination [y] is preempted by another one.  A resource of [y]'s
   choice part whose bit is missing from [x]'s mask is not used by [x],
   so only the combinations whose masks cover [y]'s are compared. *)
let preempted cache w count y =
  let width = combo_width w in
  let mask = cache.combos.(y * width) in
  let stamped = ref false and found = ref false and x = ref 0 in
  while (not !found) && !x < count do
    if !x <> y && mask land lnot cache.combos.(!x * width) = 0 then begin
      if not !stamped then begin
        stamp_part cache w y;
        stamped := true
      end;
      found := part_preempts cache w !x y
    end;
    incr x
  done;
  !found

(* Combinations [x] and [y] have equal choice parts: the same accesses,
   in whatever order.  A part meets each resource once, so it is enough
   that [x] has as many accesses as [y], each at [y]'s priority. *)
let same_part cache w x y =
  let ax = x * combo_width w and ay = y * combo_width w in
  let n = cache.combos.(ax + 2) in
  cache.combos.(ax) = cache.combos.(ay)
  && n = cache.combos.(ay + 2)
  && begin
       stamp_part cache w y;
       let start = cache.combos.(ax + 1) and ok = ref true and r = ref 0 in
       while !ok && !r < n do
         let id = cache.parts.(start + (2 * !r)) in
         ok :=
           id < Array.length cache.rstamp
           && cache.rstamp.(id) = cache.rclock
           && cache.rprio.(id) = cache.parts.(start + (2 * !r) + 1);
         incr r
       done;
       !ok
     end

(* {2 Selection} *)

(* Survivor [x] (a candidate, or a combination for [p_tick]) of plan
   kind [kind] and step id [sid]. *)
let survive cache ~sid ~kind x =
  let at = 3 * cache.nsurvivors in
  if at + 3 > Array.length cache.survivors then
    cache.survivors <- grow cache.survivors (at + 3);
  let s = cache.survivors in
  s.(at) <- sid;
  s.(at + 1) <- kind;
  s.(at + 2) <- x;
  cache.nsurvivors <- cache.nsurvivors + 1

(* The step of candidate [x], with its real label *)
let cand_step cache views (slots : Node.t array) x =
  let c = cache.cands and at = x * cand_width in
  let kind = c.(at) and prio = c.(at + 1) and k = c.(at + 3)
  and i = c.(at + 4) and a = c.(at + 5) in
  let s = slots.(i).Node.steps in
  if kind = k_tau then
    if k < 0 then s.taus.(a).step
    else Step.Tau (Some (view_of views i).labels.(k), prio)
  else
    let o = s.offers.(a) in
    if kind = k_sync then
      Step.Tau
        (Some (if k < 0 then o.label else (view_of views i).labels.(k)), prio)
    else if k < 0 then o.edge.step
    else
      Step.Event
        ( (view_of views i).labels.(k),
          (if kind = k_in then Event.In else Event.Out),
          prio )

(* The survivors as a plan at [cache.plans_len], [w] the number of
   choices of their combinations: sorted by step, the last first, so
   that [build], consing its rows, lists them first to last.  Returns
   where the plan ends. *)
let write_plan cache w =
  let n = cache.nsurvivors and s = cache.survivors and steps = cache.steps in
  if Array.length cache.order < n then cache.order <- grow cache.order n;
  let order = cache.order in
  for r = 0 to n - 1 do
    let sid = s.(3 * r) and q = ref r in
    while
      !q > 0
      && s.(3 * order.(!q - 1)) <> sid
      && Step.compare steps.(s.(3 * order.(!q - 1))) steps.(sid) < 0
    do
      order.(!q) <- order.(!q - 1);
      decr q
    done;
    order.(!q) <- r
  done;
  let size = ref 2 and distinct = ref true in
  for r = 0 to n - 1 do
    let kind = s.((3 * order.(r)) + 1) in
    size :=
      !size + 2
      + (if kind = p_tick then w else if kind = p_sync then 4 else 2);
    if r > 0 && s.(3 * order.(r)) = s.(3 * order.(r - 1)) then
      distinct := false
  done;
  let o = cache.plans_len in
  cache.plans <- reserve cache.plans (o + !size);
  let p = cache.plans and c = cache.cands and at = ref (o + 2) in
  let put x =
    set_cell p !at x;
    incr at
  in
  set_cell p o n;
  set_cell p (o + 1) (if !distinct then 1 else 0);
  for r = 0 to n - 1 do
    let e = 3 * order.(r) in
    let kind = s.(e + 1) and x = s.(e + 2) in
    put s.(e);
    put kind;
    if kind = p_tick then
      for k = 0 to w - 1 do
        put cache.combos.((x * combo_width w) + 3 + k)
      done
    else begin
      let ca = x * cand_width in
      put c.(ca + 4);
      put c.(ca + 5);
      if kind = p_sync then begin
        put c.(ca + 6);
        put c.(ca + 7)
      end
    end
  done;
  !at

(* The plan of state [slots], compiled, written at [cache.plans_len];
   returns where it ends.  Reads of the state only each slot's code and
   its index, and steps its edges name (see the memo). *)
let select cache ~prioritize ~views frame (slots : Node.t array) =
  let n = Array.length slots in
  (* the offers' label bits, by direction *)
  let ins = ref 0 and outs = ref 0 in
  for i = 0 to n - 1 do
    let code = slots.(i).Node.steps.code in
    ins := !ins lor code.(Node.ins);
    outs := !outs lor code.(Node.outs)
  done;
  let ins = !ins and outs = !outs in
  cache.epoch <- cache.epoch + 1;
  cache.ncands <- 0;
  cache.nentries <- 0;
  cache.nsurvivors <- 0;
  let epoch = cache.epoch and hidden = Frame.hidden frame in
  (* plain loops over the slots' code *)
  let top = ref min_int in
  for i = 0 to n - 1 do
    let code = slots.(i).Node.steps.code in
    for t = 0 to code.(Node.num_taus) - 1 do
      let at = Node.taus_at + (Node.tau_width * t) in
      let id = code.(at) and prio = code.(at + 1) in
      let k =
        if renamed_anywhere views id then renaming (view_of views i) id else -1
      in
      if prio > !top then top := prio;
      add_cand cache ~kind:k_tau ~prio ~id ~k ~i ~a:t ~j:0 ~b:0
    done;
    let offers = code.(Node.offers_at) in
    for a = 0 to code.(Node.num_offers) - 1 do
      let at = offers + (Node.offer_width * a) in
      let stored = code.(at) and dir = code.(at + 1) and prio = code.(at + 2) in
      (* unless some view renames [stored], it is the real id in every
         slot, and no view is looked at *)
      let any = renamed_anywhere views stored in
      let k = if any then renaming (view_of views i) stored else -1 in
      let id = if k < 0 then stored else (view_of views i).real.(k) in
      (* a view renames through a swap, so an offer no view renames can
         only pair with offers no view renames, stored on its own id: a
         clear bit in the complementary mask rules pairing out, and its
         bucket is never read *)
      let complements = if dir = 0 then outs else ins in
      if any || complements land Node.bit stored <> 0 then begin
        let p = chain_offer cache ~epoch ~i ~a ~id ~k ~dir ~prio in
        if p > !top then top := p
      end;
      if id >= Bytes.length hidden || Bytes.unsafe_get hidden id = '\000'
      then
        add_cand cache
          ~kind:(if dir = 0 then k_in else k_out)
          ~prio ~id ~k ~i ~a ~j:0 ~b:0
    done
  done;
  (* preemption on the integers *)
  let c = cache.cands and nc = cache.ncands and top = !top in
  for x = 0 to nc - 1 do
    let at = x * cand_width in
    let kind = c.(at) and prio = c.(at + 1) in
    if
      (not prioritize)
      || nc = 1
      ||
      if kind = k_tau || kind = k_sync then prio >= top
      else not (outranked c nc kind c.(at + 2) prio)
    then
      survive cache
        ~sid:(step_id cache (cand_step cache views slots x))
        ~kind:
          (if kind = k_tau then p_tau
           else if kind = k_sync then p_sync
           else p_offer)
        x
  done;
  (* the timed product, unless a tau above priority 0 preempts it *)
  let w = if prioritize && top > 0 then -1 else timed_base cache slots in
  if w >= 0 then begin
    let count = combinations cache slots w in
    let base = if count > 0 then base_action slots else Action.Ground.idle in
    let first = cache.nsurvivors in
    for y = 0 to count - 1 do
      if not (prioritize && count > 1 && preempted cache w count y) then begin
        (* actions are sorted sets, so a surviving combination with the
           same choice part has the same step; only a new part is built
           and looked up, which a timed step over many resources makes
           worth a scan of the parts kept so far *)
        let s = cache.survivors and r = ref first in
        while
          !r < cache.nsurvivors && not (same_part cache w s.((3 * !r) + 2) y)
        do
          incr r
        done;
        let sid =
          if !r < cache.nsurvivors then s.(3 * !r)
          else begin
            let part = ref base in
            for k = 0 to w - 1 do
              let i = cache.choice.(k) in
              let picked = cache.combos.((y * combo_width w) + 3 + k) in
              part := union slots.(i).Node.steps.timed.(picked).action !part
            done;
            step_id cache (Step.Action !part)
          end
        in
        survive cache ~sid ~kind:p_tick y
      end
    done
  end;
  write_plan cache (max w 0)

(* {2 Building} *)

(* The rows of the plan at [o] for state [slots]. *)
let build cache views (slots : Node.t array) o =
  let p = cache.plans and nodes = cache.nodes and steps = cache.steps in
  let rows = ref [] and at = ref (o + 2) in
  for _ = 1 to cell p o do
    let step = steps.(cell p !at) and kind = cell p (!at + 1) in
    let v = Array.copy slots in
    if kind = p_tick then begin
      at := !at + 2;
      for i = 0 to Array.length slots - 1 do
        let t = slots.(i).Node.steps.timed in
        if Array.length t = 1 then v.(i) <- target nodes t.(0).tick
        else begin
          v.(i) <- target nodes t.(cell p !at).tick;
          incr at
        end
      done
    end
    else begin
      let i = cell p (!at + 2) and a = cell p (!at + 3) in
      let s = slots.(i).Node.steps in
      if kind = p_tau then v.(i) <- target nodes s.taus.(a)
      else begin
        v.(i) <- target nodes s.offers.(a).edge;
        if kind = p_sync then begin
          let j = cell p (!at + 4) and b = cell p (!at + 5) in
          v.(j) <- target nodes slots.(j).Node.steps.offers.(b).edge;
          at := !at + 2
        end
      end;
      at := !at + 4
    end;
    rows := (step, v) :: !rows
  done;
  if cell p (o + 1) = 1 then !rows
  else
    match !rows with
    | ([] | [ _ ]) as rows -> rows
    | [ r1; r2 ] as rows ->
        let d = views.rows r1 r2 in
        if d < 0 then rows else if d > 0 then [ r2; r1 ] else [ r1 ]
    | rows -> List.sort_uniq views.rows rows

let rec h_steps_at cache depth (defs : Defs.t) (p : Hproc.t) :
    (Step.t * Hproc.t) list =
  match Hproc.node p with
  | Hproc.Nil -> []
  | Hproc.Act (a, k) ->
      let ground =
        List.map (fun (r, e) -> (r, eval_expr "action priority" e)) a
      in
      [ (Step.Action ground, k) ]
  | Hproc.Ev (e, k) ->
      let prio = eval_expr "event priority" (Event.priority e) in
      [ (Step.Event (Event.label e, Event.dir e, prio), k) ]
  | Hproc.Choice (a, b) ->
      h_steps_at cache depth defs a @ h_steps_at cache depth defs b
  | Hproc.Par _ -> materialized cache depth defs ~prioritize:false p
  | Hproc.Scope s -> h_scope_steps cache depth defs s
  | Hproc.Restrict (forbidden, k) ->
      let keep (step, _) =
        match step with
        | Step.Event (l, _, _) -> not (Label.Set.mem l forbidden)
        | Step.Action _ | Step.Tau _ -> true
      in
      h_steps_at cache depth defs k
      |> List.filter keep
      |> List.map (fun (s, k') ->
             (s, Hproc.restrict (terms cache) forbidden k'))
  | Hproc.Close (owned, k) ->
      let close_step (step, k') =
        let step' =
          match step with
          | Step.Action a ->
              let used = Action.Ground.resources a in
              let extra =
                Resource.Set.diff owned used
                |> Resource.Set.elements
                |> List.map (fun r -> (r, 0))
              in
              Step.Action (Action.Ground.union a extra)
          | Step.Event _ | Step.Tau _ -> step
        in
        (step', Hproc.close (terms cache) owned k')
      in
      List.map close_step (h_steps_at cache depth defs k)
  | Hproc.If (g, k) -> (
      match Guard.eval ground_env g with
      | true -> h_steps_at cache depth defs k
      | false -> []
      | exception Expr.Unbound_parameter x ->
          raise (Not_closed (Fmt.str "guard: unbound parameter %s" x)))
  | Hproc.Call (name, args) ->
      if depth > max_unfold_depth then raise (Unguarded_recursion name);
      let values = List.map (eval_expr name) args in
      h_steps_at cache (depth + 1) defs (unfold_call cache defs name values)

and h_scope_steps cache depth defs (s : Hproc.scope) =
  let bound = Option.map (eval_expr "scope bound") s.Hproc.bound in
  match bound with
  | Some 0 -> h_steps_at cache depth defs s.Hproc.timeout
  | _ ->
      let decrement =
        match bound with
        | Some n -> Some (Expr.Int (n - 1))
        | None -> None
      in
      let of_body (step, body') =
        match (step, s.Hproc.exc) with
        | Step.Event (l, Event.Out, _), Some (l', handler)
          when Label.equal l l' ->
            [ (step, handler) ]
        | Step.Action _, _ ->
            [
              ( step,
                Hproc.scope (terms cache) ~body:body' ~bound:decrement
                  ~exc:s.Hproc.exc ~timeout:s.Hproc.timeout
                  ~interrupt:s.Hproc.interrupt );
            ]
        | (Step.Event _ | Step.Tau _), _ ->
            [
              ( step,
                Hproc.scope (terms cache) ~body:body' ~bound:s.Hproc.bound
                  ~exc:s.Hproc.exc ~timeout:s.Hproc.timeout
                  ~interrupt:s.Hproc.interrupt );
            ]
      in
      let body_steps =
        List.concat_map of_body (h_steps_at cache depth defs s.Hproc.body)
      in
      let interrupt_steps =
        match s.Hproc.interrupt with
        | Some handler -> h_steps_at cache depth defs handler
        | None -> []
      in
      body_steps @ interrupt_steps

(* A step set is compiled at the depth of the kernel that first needs
   it, so an unguarded recursion through nested [Par]s still reaches
   [max_unfold_depth].  A failed compilation (unguarded recursion,
   unbound parameter) stores nothing, so the diagnostics of the
   reference engine are preserved.  With a memo, a state whose key it
   keeps a plan for is built from that plan; any other state's plan is
   selected, kept, and built.  Without one the plan is selected past
   the kept ones and dropped once built. *)
and kernel cache depth defs ~prioritize ~views ~memo frame
    (slots : Node.t array) =
  let n = Array.length slots in
  (* compile the new nodes, and hash the key *)
  let h = ref 0 in
  for i = 0 to n - 1 do
    let node = slots.(i) in
    if node.steps == Node.uncompiled then
      Node.set_steps node
        (Node.compile cache.nodes (h_steps_at cache depth defs node.term));
    h := mix !h node.steps.code_id
  done;
  match memo with
  | None ->
      ignore (select cache ~prioritize ~views frame slots);
      build cache views slots cache.plans_len
  | Some m ->
      let h = finish !h in
      let p = lookup m slots h (h land m.mask) in
      if p >= 0 then begin
        m.hits <- m.hits + 1;
        build cache views slots (cell m.offsets p)
      end
      else begin
        m.misses <- m.misses + 1;
        let o = cache.plans_len in
        cache.plans_len <- select cache ~prioritize ~views frame slots;
        keep_plan m slots h (-1 - p) o;
        build cache views slots o
      end

(* The kernel on a term's own frame, its successors materialized. *)
and materialized cache depth defs ~prioritize p =
  let frame, slots = Frame.split cache.nodes p in
  List.map
    (fun (s, v) -> (s, Frame.materialize frame v))
    (kernel cache depth defs ~prioritize ~views:no_views ~memo:None frame
       slots)

(* The memo is made on the first call for a frame, views and
   [prioritize], and kept in the cache until a call for others. *)
let successors ~cache ~prioritize ~views defs frame =
  let memo =
    match cache.memo with
    | Some m as memo
      when m.frame == frame && m.views == views && m.prioritize = prioritize
      ->
        memo
    | Some _ | None ->
        let memo = Some (make_memo ~frame ~views ~prioritize) in
        cache.memo <- memo;
        memo
  in
  fun slots -> kernel cache 0 defs ~prioritize ~views ~memo frame slots

let h_steps ~cache defs p = materialized cache 0 defs ~prioritize:false p
let h_prioritized ~cache defs p = materialized cache 0 defs ~prioritize:true p
