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

type cache = {
  nodes : Node.table;
      (** one node per slot term, with its compiled step set.  Sound
          because a step set is a pure function of the term and the
          fixed [defs] the cache is used with.  The lock of its intern
          table guards [unfold] too. *)
  unfold : (string * int list, Hproc.t) Hashtbl.t;
}

let make_cache () =
  { nodes = Node.create (Hproc.create ()); unfold = Hashtbl.create 256 }

let nodes cache = cache.nodes
let terms cache = Node.terms cache.nodes

let unfold_call cache defs name values =
  let key = (name, values) and terms = terms cache in
  match Hproc.protect terms (fun () -> Hashtbl.find_opt cache.unfold key) with
  | Some h -> h
  | None ->
      (* instantiation is pure: the lock is not held during the
         expensive substitution, so other domains are not serialized
         behind it, and a race only duplicates idempotent work *)
      let h = Hproc.of_proc terms (Defs.instantiate defs name values) in
      Hproc.protect terms (fun () ->
          if not (Hashtbl.mem cache.unfold key) then
            Hashtbl.add cache.unfold key h);
      h

(* {2 The kernel}

   A translated system is [Restrict (L, P_0 || ... || P_{n-1})], and the
   explorer keeps each of its states as a vector of slot nodes over one
   fixed frame ([Frame]): the restriction and the Par spine never
   change, so they are neither rebuilt nor interned per successor.
   Following the binary Par rule down the tree would build a successor
   for every offer at every level, most of which the restriction (an
   unsynchronized event on a label of [L]) or preemption (a timed step
   beaten by another) then discard.  The kernel instead takes the n
   slots, each with its compiled step set, and composes labels only,
   remembering which slots move along which compiled edges:
   - each slot's event and tau steps, events on labels of [L] dropped
     (a byte read of the frame by label id);
   - each pair of complementary events in slots i < j, as [tau@l]
     (label ids compared as ints, and only in the slots whose mask of
     complementary offers has the label's bit);
   - each choice of one timed step per slot with pairwise-disjoint
     resources (none if some slot has no timed step).
   Every pair of leaves meets at exactly one Par node, so these are the
   binary rule's steps at the root, label for label and successor for
   successor.  Preemption is then applied to the labels, and only the
   survivors' successor vectors are built: a copy of the state's vector
   with one or two slots patched, or with every slot ticking, each
   target read off its edge.  Preemption reads the set of enabled
   labels alone, so filtering before sorting and deduplicating yields
   exactly the list the binary rule, [sort_uniq] and [Step.prioritize]
   give.  Rows are sorted by step, then slot by slot with
   [Hproc.compare_structural]: over one frame that is the order of the
   materialized terms, which mirrors the reference engine's
   [sort_uniq Stdlib.compare].

   With preemption on, an enabled tau of priority > 0 preempts every
   timed step, so the product of timed steps is not built at all.

   The kernel is the engine's only Par rule.  A slot whose term becomes
   a [Par] stays one opaque slot: its step set is compiled from
   [h_steps_at], which splits it into a frame of its own and runs the
   kernel on that frame's nodes, with no restriction and no preemption.
   A root that is not a system is a 1-slot frame, whose kernel result
   is that slot's own step set. *)

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
   view's order. *)
let row_compare views (s1, (v1 : Node.t array)) (s2, (v2 : Node.t array)) =
  let c = Stdlib.compare (s1 : Step.t) s2 in
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
let find v id =
  let rec go lo hi =
    if lo >= hi then -1
    else
      let mid = (lo + hi) lsr 1 in
      let s = Array.unsafe_get v.stored mid in
      if s = id then mid else if s < id then go (mid + 1) hi else go lo mid
  in
  go 0 (Array.length v.stored)

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

(* The kernel's loops call these on every tau and offer, and on every
   earlier slot a renamed offer is matched against: inlined, they cost a
   label that no view renames one test of the [renamed] byte map. *)
let[@inline] renamed_anywhere views id =
  let b = id - views.lo in
  b >= 0
  && b < Bytes.length views.renamed
  && Bytes.unsafe_get views.renamed b <> '\000'

(* The index of [id] in [v], or -1 when [v] does not rename [id].  Most
   ids a view is asked for are not its own (an offer is matched against
   every earlier slot), and its [bits] turn most of those away without a
   search. *)
let[@inline] renaming v id =
  if v.bits land Node.bit id = 0 then -1 else find v id

(* [v]'s real id for stored id [id]; a view renames through a swap, its
   own inverse, so this also maps real ids to stored ones. *)
let[@inline] real_id v id =
  let k = renaming v id in
  if k < 0 then id else Array.unsafe_get v.real k

type move =
  | One of int * Node.edge  (** slot i moves along the edge *)
  | Two of int * Node.edge * int * Node.edge  (** slots i < j synchronize *)
  | All of (int * Node.edge) list
      (** every slot ticks: along the listed edge for the slots with a
          choice of timed steps, along its only one for the others *)

(* Every choice of one timed step per slot, with pairwise-disjoint
   resources, as (combined action, the choices of the slots with more
   than one timed step, in slot order).  A slot with one timed step
   makes the same choice every time, so its action is merged into the
   base once; if the base is already contended, or some slot has no
   timed step, there is no choice at all. *)
let timed_product (slots : Node.t array) =
  let n = Array.length slots in
  let rec base i u =
    if i >= n then Some u
    else
      let timed = slots.(i).Node.steps.timed in
      match Array.length timed with
      | 0 -> None
      | 1 ->
          let a = timed.(0).action in
          if Action.Ground.disjoint a u then
            base (i + 1) (Action.Ground.union a u)
          else None
      | _ -> base (i + 1) u
  in
  let extend i acc (timed : Node.timed array) =
    Array.fold_left
      (fun out (t : Node.timed) ->
        List.fold_left
          (fun out (u, es) ->
            if Action.Ground.disjoint t.action u then
              (Action.Ground.union t.action u, (i, t.tick) :: es) :: out
            else out)
          out acc)
      [] timed
  in
  let rec go i acc =
    if i < 0 || acc = [] then acc
    else
      let timed = slots.(i).Node.steps.timed in
      go (i - 1) (if Array.length timed > 1 then extend i acc timed else acc)
  in
  match base 0 Action.Ground.idle with
  | None -> []
  | Some u -> go (n - 1) [ (u, []) ]

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
   reference engine are preserved.  Two domains may compile one node at
   once; both store equal sets. *)
and kernel cache depth defs ~prioritize ~views frame (slots : Node.t array) =
  let n = Array.length slots in
  for i = 0 to n - 1 do
    let node = slots.(i) in
    if node.steps == Node.uncompiled then
      Node.set_steps node
        (Node.compile cache.nodes (h_steps_at cache depth defs node.term))
  done;
  (* plain loops: this is the per-state path, and a closure per offer
     would cost more than the comparisons *)
  let cands = ref [] and urgent = ref false in
  (* the masks of the offers of slots [0, i), by direction *)
  let ins = ref 0 and outs = ref 0 in
  for i = 0 to n - 1 do
    let own = slots.(i).Node.steps in
    if own.urgent then urgent := true;
    let taus = own.taus in
    for t = 0 to Array.length taus - 1 do
      let e = taus.(t) and id = own.tau_ids.(t) in
      let k =
        if renamed_anywhere views id then renaming (view_of views i) id else -1
      in
      let step =
        match e.step with
        | Step.Tau (Some _, p) when k >= 0 ->
            Step.Tau (Some (view_of views i).labels.(k), p)
        | step -> step
      in
      cands := (step, One (i, e)) :: !cands
    done;
    let offers = own.offers in
    for a = 0 to Array.length offers - 1 do
      let o = offers.(a) in
      (* unless some view renames [o.id], it is stored as it is in every
         slot, and no view is looked at *)
      let any = renamed_anywhere views o.id in
      let k = if any then renaming (view_of views i) o.id else -1 in
      let id = if k < 0 then o.id else (view_of views i).real.(k)
      and label = if k < 0 then o.label else (view_of views i).labels.(k) in
      (* an offer no view renames pairs on its own id in every slot, so
         a clear bit in the complementary masks of slots [0, i) rules
         all of them out, and a clear bit in one slot's mask rules that
         slot out *)
      let bit = Node.bit id and inputs = o.dir = Event.Out in
      if any || (if inputs then !ins else !outs) land bit <> 0 then
        for j = 0 to i - 1 do
          let s = slots.(j).Node.steps in
          if any || (if inputs then s.ins else s.outs) land bit <> 0 then begin
            (* slot [j]'s offers on real label [id] are its stored offers
               on [want] *)
            let earlier = s.offers
            and want = if any then real_id (view_of views j) id else id in
            for b = 0 to Array.length earlier - 1 do
              let o' = earlier.(b) in
              if o'.id = want && o'.dir != o.dir then begin
                let p = o'.prio + o.prio in
                if p > 0 then urgent := true;
                cands :=
                  (Step.Tau (Some label, p), Two (j, o'.edge, i, o.edge))
                  :: !cands
              end
            done
          end
        done;
      if Frame.visible frame id then
        let step =
          if k < 0 then o.edge.step else Step.Event (label, o.dir, o.prio)
        in
        cands := (step, One (i, o.edge)) :: !cands
    done;
    ins := !ins lor own.ins;
    outs := !outs lor own.outs
  done;
  if not (prioritize && !urgent) then
    List.iter
      (fun (u, es) -> cands := (Step.Action u, All es) :: !cands)
      (timed_product slots);
  let survivors = if prioritize then Step.prioritize !cands else !cands in
  let target = Node.target cache.nodes in
  let successor = function
    | One (i, e) ->
        let v = Array.copy slots in
        v.(i) <- target e;
        v
    | Two (i, a, j, b) ->
        let v = Array.copy slots in
        v.(i) <- target a;
        v.(j) <- target b;
        v
    | All choices ->
        let v = Array.copy slots in
        Array.iteri
          (fun i (n : Node.t) ->
            let timed = n.steps.timed in
            if Array.length timed = 1 then v.(i) <- target timed.(0).tick)
          slots;
        List.iter (fun (i, e) -> v.(i) <- target e) choices;
        v
  in
  List.sort_uniq views.rows
    (List.map (fun (s, m) -> (s, successor m)) survivors)

(* The kernel on a term's own frame, its successors materialized. *)
and materialized cache depth defs ~prioritize p =
  let frame, slots = Frame.split cache.nodes p in
  List.map
    (fun (s, v) -> (s, Frame.materialize frame v))
    (kernel cache depth defs ~prioritize ~views:no_views frame slots)

let successors ~cache ~prioritize ~views defs frame slots =
  kernel cache 0 defs ~prioritize ~views frame slots

let h_steps ~cache defs p = materialized cache 0 defs ~prioritize:false p
let h_prioritized ~cache defs p = materialized cache 0 defs ~prioritize:true p
