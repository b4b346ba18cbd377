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
   term-for-term, which the test suite checks by property.  The payoff:
   deduplication and the LTS state table compare slots in O(1) instead
   of re-walking them.

   Call unfolding (substitute evaluated arguments through the definition
   body, then intern the result) is memoized per (name, arguments): the
   translated AADL models re-enter the same few definition instances at
   every state.  The cache is mutex-protected so the parallel explorer can
   share one across domains. *)

type cache = {
  lock : Mutex.t;
  unfold : (string * int list, Hproc.t) Hashtbl.t;
  steps_memo : (int, (Step.t * Hproc.t) list) Hashtbl.t;
      (** unprioritized step set per interned term id.  Sound because the
          step set is a pure function of the term (and the fixed [defs]
          the cache is used with), and hash-consing makes the key O(1).
          This is where hash-consing pays off most: the per-thread
          slots of a translated AADL system recur across nearly every
          global state, so their step sets are computed once instead of
          once per state.  The states of an exploration, slot vectors
          new in nearly every step, are not memoized (see [kernel]). *)
}

let make_cache () =
  {
    lock = Mutex.create ();
    unfold = Hashtbl.create 256;
    steps_memo = Hashtbl.create 4096;
  }

let memo_find cache id =
  Mutex.lock cache.lock;
  let r = Hashtbl.find_opt cache.steps_memo id in
  Mutex.unlock cache.lock;
  r

(* Computation happens outside the lock: on a race both domains compute
   the same (deterministic) list and the first add wins. *)
let memo_add cache id v =
  Mutex.lock cache.lock;
  if not (Hashtbl.mem cache.steps_memo id) then
    Hashtbl.add cache.steps_memo id v;
  Mutex.unlock cache.lock

let unfold_call cache defs name values =
  let key = (name, values) in
  Mutex.lock cache.lock;
  match Hashtbl.find_opt cache.unfold key with
  | Some h ->
      Mutex.unlock cache.lock;
      h
  | None ->
      (* instantiation is pure: release the lock during the expensive
         substitution so other domains are not serialized behind it, and
         tolerate the (idempotent) duplicated work on a race *)
      Mutex.unlock cache.lock;
      let h = Hproc.of_proc (Defs.instantiate defs name values) in
      Mutex.lock cache.lock;
      if not (Hashtbl.mem cache.unfold key) then Hashtbl.add cache.unfold key h;
      Mutex.unlock cache.lock;
      h

(* {2 The kernel}

   A translated system is [Restrict (L, P_0 || ... || P_{n-1})], and the
   explorer keeps each of its states as a slot vector over one fixed
   frame ([Frame]): the restriction and the Par spine never change, so
   they are neither rebuilt nor interned per successor.  Following the
   binary Par rule down the tree would build a successor for every offer
   at every level, most of which the restriction (an unsynchronized
   event on a label of [L]) or preemption (a timed step beaten by
   another) then discard.  The kernel instead takes the n slots, each
   with its memoized step set, and composes labels only, remembering
   which slots move and to what:
   - each slot's event and tau steps, events on labels of [L] dropped;
   - each pair of complementary events in slots i < j, as [tau@l];
   - each choice of one timed step per slot with pairwise-disjoint
     resources (none if some slot has no timed step).
   Every pair of leaves meets at exactly one Par node, so these are the
   binary rule's steps at the root, label for label and successor for
   successor.  Preemption is then applied to the labels, and only the
   survivors' successor vectors are built: a copy of the state's vector
   with one or two slots patched, or the timed product's slot list.
   Preemption reads the set of enabled labels alone, so filtering before
   sorting and deduplicating yields exactly the list the binary rule,
   [sort_uniq] and [Step.prioritize] give.  Rows are sorted by step, then
   slot by slot with [Hproc.compare_structural]: over one frame that is
   the order of the materialized terms, which mirrors the reference
   engine's [sort_uniq Stdlib.compare].

   With preemption on, an enabled tau of priority > 0 preempts every
   timed step, so the product of timed steps is not built at all.

   The kernel is the engine's only Par rule.  A slot whose term becomes
   a [Par] stays one opaque slot: its steps come from [h_steps_at],
   which splits it into a frame of its own and runs the kernel on it,
   with no restriction and no preemption, and memoizes the materialized
   result like any other composite subterm's.  A root that is not a
   system is a 1-slot frame, whose kernel result is that slot's own step
   set. *)

type move =
  | One of int * Hproc.t  (** slot i moves to the term *)
  | Two of int * Hproc.t * int * Hproc.t  (** slots i < j synchronize *)
  | All of Hproc.t list  (** every slot moves, in slot order *)

let row_compare (s1, v1) (s2, v2) =
  let c = Stdlib.compare (s1 : Step.t) s2 in
  if c <> 0 then c else Frame.compare v1 v2

(* Every choice of one timed step per slot, with pairwise-disjoint
   resources, as (combined action, successors in slot order).  Built
   from the last slot to the first so each successor list is consed in
   order. *)
let timed_product slot_steps =
  let extend acc steps =
    List.fold_left
      (fun out (s, k) ->
        match s with
        | Step.Action a ->
            List.fold_left
              (fun out (u, ks) ->
                if Action.Ground.disjoint a u then
                  (Action.Ground.union a u, k :: ks) :: out
                else out)
              out acc
        | Step.Event _ | Step.Tau _ -> out)
      [] steps
  in
  let rec go i acc =
    if i < 0 || acc = [] then acc else go (i - 1) (extend acc slot_steps.(i))
  in
  go (Array.length slot_steps - 1) [ (Action.Ground.idle, []) ]

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
  | _ -> (
      match memo_find cache (Hproc.id p) with
      | Some r -> r
      | None ->
          let r = h_steps_node cache depth defs p in
          memo_add cache (Hproc.id p) r;
          r)

(* The composite constructors, behind the memo.  A failed computation
   (unguarded recursion, unbound parameter) is never cached, so the
   diagnostics of the reference engine are preserved. *)
and h_steps_node cache depth (defs : Defs.t) (p : Hproc.t) :
    (Step.t * Hproc.t) list =
  match Hproc.node p with
  | Hproc.Nil | Hproc.Act _ | Hproc.Ev _ -> assert false (* handled above *)
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
      |> List.map (fun (s, k') -> (s, Hproc.restrict forbidden k'))
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
        (step', Hproc.close owned k')
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
                Hproc.scope ~body:body' ~bound:decrement ~exc:s.Hproc.exc
                  ~timeout:s.Hproc.timeout ~interrupt:s.Hproc.interrupt );
            ]
        | (Step.Event _ | Step.Tau _), _ ->
            [
              ( step,
                Hproc.scope ~body:body' ~bound:s.Hproc.bound ~exc:s.Hproc.exc
                  ~timeout:s.Hproc.timeout ~interrupt:s.Hproc.interrupt );
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

and kernel cache depth defs ~prioritize frame slots =
  let forbidden = Frame.restriction frame in
  let slot_steps = Array.map (h_steps_at cache depth defs) slots in
  let visible l =
    match forbidden with Some f -> not (Label.Set.mem l f) | None -> true
  in
  let cands = ref [] and urgent = ref false in
  let add s m = cands := (s, m) :: !cands in
  (* event offers of the slots before the current one, for syncs *)
  let offers = ref [] in
  Array.iteri
    (fun i steps ->
      let earlier = !offers in
      List.iter
        (fun ((s, k) as sk) ->
          match s with
          | Step.Event (l, d, p) ->
              List.iter
                (fun (j, (s', k')) ->
                  match s' with
                  | Step.Event (l', d', p') when d <> d' && Label.equal l l'
                    ->
                      if p' + p > 0 then urgent := true;
                      add (Step.Tau (Some l, p' + p)) (Two (j, k', i, k))
                  | Step.Event _ | Step.Action _ | Step.Tau _ -> ())
                earlier;
              offers := (i, sk) :: !offers;
              if visible l then add s (One (i, k))
          | Step.Tau (_, p) ->
              if p > 0 then urgent := true;
              add s (One (i, k))
          | Step.Action _ -> ())
        steps)
    slot_steps;
  if not (prioritize && !urgent) then
    List.iter
      (fun (u, ks) -> add (Step.Action u) (All ks))
      (timed_product slot_steps);
  let survivors = if prioritize then Step.prioritize !cands else !cands in
  let successor = function
    | One (i, k) ->
        let v = Array.copy slots in
        v.(i) <- k;
        v
    | Two (i, a, j, b) ->
        let v = Array.copy slots in
        v.(i) <- a;
        v.(j) <- b;
        v
    | All ks -> Array.of_list ks
  in
  List.sort_uniq row_compare
    (List.map (fun (s, m) -> (s, successor m)) survivors)

(* The kernel on a term's own frame, its successors materialized. *)
and materialized cache depth defs ~prioritize p =
  let frame, slots = Frame.split p in
  List.map
    (fun (s, v) -> (s, Frame.materialize frame v))
    (kernel cache depth defs ~prioritize frame slots)

let successors ~cache ~prioritize defs frame slots =
  kernel cache 0 defs ~prioritize frame slots

let h_steps ?cache defs p =
  let cache = match cache with Some c -> c | None -> make_cache () in
  materialized cache 0 defs ~prioritize:false p

let h_prioritized ?cache defs p =
  let cache = match cache with Some c -> c | None -> make_cache () in
  materialized cache 0 defs ~prioritize:true p

(* A process is time-stopped when no enabled (prioritized) step advances
   time; deadlocks are a special case.  Useful as a diagnostic. *)
let is_time_stopped defs p =
  not (List.exists (fun (s, _) -> Step.is_timed s) (prioritized defs p))
