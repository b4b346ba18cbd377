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
  lock : Mutex.t;
  unfold : (string * int list, Hproc.t) Hashtbl.t;
  nodes : Node.table;
      (** one node per slot term, with its compiled step set.  Sound
          because a step set is a pure function of the term and the
          fixed [defs] the cache is used with. *)
}

let make_cache () =
  {
    lock = Mutex.create ();
    unfold = Hashtbl.create 256;
    nodes = Node.create ();
  }

let nodes cache = cache.nodes

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
     (label ids compared as ints);
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

type move =
  | One of int * Node.edge  (** slot i moves along the edge *)
  | Two of int * Node.edge * int * Node.edge  (** slots i < j synchronize *)
  | All of (int * Node.edge) list
      (** every slot ticks: along the listed edge for the slots with a
          choice of timed steps, along its only one for the others *)

let row_compare (s1, v1) (s2, v2) =
  let c = Stdlib.compare (s1 : Step.t) s2 in
  if c <> 0 then c else Frame.compare v1 v2

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

(* A step set is compiled at the depth of the kernel that first needs
   it, so an unguarded recursion through nested [Par]s still reaches
   [max_unfold_depth].  A failed compilation (unguarded recursion,
   unbound parameter) stores nothing, so the diagnostics of the
   reference engine are preserved.  Two domains may compile one node at
   once; both store equal sets. *)
and kernel cache depth defs ~prioritize frame (slots : Node.t array) =
  let n = Array.length slots in
  for i = 0 to n - 1 do
    let node = slots.(i) in
    if node.steps == Node.uncompiled then
      Node.set_steps node (Node.compile (h_steps_at cache depth defs node.term))
  done;
  (* plain loops: this is the per-state path, and a closure per offer
     would cost more than the comparisons *)
  let cands = ref [] and urgent = ref false in
  for i = 0 to n - 1 do
    let own = slots.(i).Node.steps in
    if own.urgent then urgent := true;
    let taus = own.taus in
    for t = 0 to Array.length taus - 1 do
      let e = taus.(t) in
      cands := (e.step, One (i, e)) :: !cands
    done;
    let offers = own.offers in
    for a = 0 to Array.length offers - 1 do
      let o = offers.(a) in
      for j = 0 to i - 1 do
        let earlier = slots.(j).Node.steps.offers in
        for b = 0 to Array.length earlier - 1 do
          let o' = earlier.(b) in
          if o'.id = o.id && o'.dir != o.dir then begin
            let p = o'.prio + o.prio in
            if p > 0 then urgent := true;
            cands :=
              (Step.Tau (Some o.label, p), Two (j, o'.edge, i, o.edge))
              :: !cands
          end
        done
      done;
      if Frame.visible frame o.id then
        cands := (o.edge.step, One (i, o.edge)) :: !cands
    done
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
  List.sort_uniq row_compare
    (List.map (fun (s, m) -> (s, successor m)) survivors)

(* The kernel on a term's own frame, its successors materialized. *)
and materialized cache depth defs ~prioritize p =
  let frame, slots = Frame.split cache.nodes p in
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
