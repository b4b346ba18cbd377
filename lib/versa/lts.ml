(* Explicit labeled transition systems produced by state-space exploration
   of ACSR terms.

   States are closed process terms, interned into integer ids in BFS
   discovery order (the initial state has id 0).  Each state records its
   BFS parent and arriving step, so that shortest diagnostic traces can
   be rebuilt without re-exploration — this mirrors what the VERSA tool
   reports to the user (paper, Section 5).  Outgoing (step, successor)
   rows are kept only when the caller asks for edges.

   The root is split once into its frame ([Acsr.Frame]: the restriction
   and the Par spine) and every state is kept as its vector of slot
   nodes over that frame ([Acsr.Node]: one per distinct slot term of
   the exploration, from the node table of the build's
   [Semantics.cache]).  A node carries its term's hash and its compiled
   step set, so expanding a state reads node fields.  The visited set
   ([Visited]) is an open-addressed table of state ids over the stored
   vectors and their cached hashes: an intern mixes the slots' term
   hashes once, compares a cached hash before it compares slots by
   pointer, and never rebuilds or interns the spine.  Under orbit
   reduction the member slots hold their terms in their class
   representative's names (see [Sym] below).  A state's term is
   materialized only when a caller asks for it ([term], DOT export,
   trace replay).

   The exploration runs on the calling domain: one loop expands the
   queued states in id order and interns their successors, so ids,
   parents, rows, verdicts and traces are determined by the model and
   the configuration alone. *)

open Acsr

(* Every exploration publishes into the process-wide Obs registry at the
   end of the run: totals as counters (accumulating across runs in a
   batch/serve process), last-run shape as gauges.  The per-run [stats]
   record stays the per-result API; the registry is the cross-run,
   cross-layer view (`--stats`, the service `metrics` op, bench). *)
module Metrics = struct
  let runs =
    Obs.Counter.make ~help:"State-space explorations completed"
      "versa_explore_runs_total"

  let states =
    Obs.Counter.make ~help:"States discovered across all explorations"
      "versa_explore_states_total"

  let transitions =
    Obs.Counter.make ~help:"Transitions computed across all explorations"
      "versa_explore_transitions_total"

  let deadlocks =
    Obs.Counter.make ~help:"Deadlocked states discovered across all explorations"
      "versa_explore_deadlocks_total"

  let intern_hits =
    Obs.Counter.make ~help:"State interns that found an existing state"
      "versa_intern_hits_total"

  let intern_misses =
    Obs.Counter.make ~help:"State interns that discovered a new state"
      "versa_intern_misses_total"

  let deadline_expired =
    Obs.Counter.make ~help:"Explorations stopped by the wall-clock budget"
      "versa_explore_deadline_expired_total"

  let states_per_sec =
    Obs.Gauge.make ~help:"Discovery rate of the most recent exploration"
      "versa_explore_states_per_sec"

  let peak_frontier =
    Obs.Gauge.make ~help:"Peak frontier width of the most recent exploration"
      "versa_explore_peak_frontier"

  let depth_levels =
    Obs.Gauge.make ~help:"BFS levels of the most recent exploration"
      "versa_explore_depth_levels"

  let early_exit_depth =
    Obs.Gauge.make
      ~help:"BFS depth of the deadlock that stopped the most recent early-exit run"
      "versa_explore_early_exit_depth"

  let hashcons_nodes =
    Obs.Gauge.make ~help:"Hash-cons table size of the last exploration"
      "versa_hashcons_nodes"

  let store_bytes =
    Obs.Gauge.make
      ~help:"Estimated bytes retained by the last exploration's state store"
      "versa_store_bytes"

  let frontier =
    Obs.Histogram.make ~help:"Frontier width at each expansion step"
      ~buckets:[ 1.; 10.; 100.; 1_000.; 10_000.; 100_000. ]
      "versa_explore_frontier_size"

  let wall =
    Obs.Histogram.make ~help:"Exploration wall time (seconds)"
      "versa_explore_wall_seconds"

  let orbit_hits =
    Obs.Counter.make
      ~help:"Successor states folded onto a different orbit representative"
      "versa_orbit_hits_total"

  let orbit_misses =
    Obs.Counter.make
      ~help:"Successor states that were already orbit-canonical"
      "versa_orbit_misses_total"

  let orbit_size =
    Obs.Histogram.make
      ~help:"Members per interchangeable-component orbit class, per run"
      ~buckets:[ 2.; 4.; 8.; 16.; 32. ]
      "versa_orbit_size"

  let canon_seconds =
    Obs.Histogram.make
      ~help:"Wall time spent canonicalizing states, per exploration"
      "versa_canon_seconds"
end

type semantics = Prioritized | Unprioritized

type state_id = int

type stats = {
  wall_s : float;  (** total build time *)
  expand_s : float;  (** computing successor rows *)
  merge_s : float;  (** interning + BFS bookkeeping *)
  num_states : int;
  num_transitions : int;
  num_deadlocks : int;
  peak_frontier : int;  (** max discovered-but-unexpanded states *)
  depth_levels : int;  (** deepest BFS level reached + 1 *)
  intern_hits : int;  (** state interns that found an existing state *)
  intern_misses : int;  (** state interns that discovered a new state *)
  hashcons_nodes : int;  (** the exploration's hash-cons table size *)
  slot_nodes : int;  (** distinct slot terms the exploration met *)
  store_bytes : int;  (** estimated bytes retained by the state store *)
  early_exit_depth : int option;
      (** BFS depth of the deadlock that stopped an early-exit run *)
  deadline_expired : bool;
      (** the wall-clock budget ([config.deadline]) stopped the run *)
  orbit_hits : int;
      (** successors the symmetry reduction folded onto a different orbit
          representative; 0 when symmetry is off or trivial *)
  orbit_misses : int;  (** successors that were already canonical *)
  canon_s : float;  (** wall time spent canonicalizing states *)
}

let states_per_sec s =
  if s.wall_s > 0. then float_of_int s.num_states /. s.wall_s else 0.

(* One registry write-out per exploration, at the end of the run — hot
   loops never touch the registry except for the frontier histogram. *)
let publish_stats s =
  Obs.Counter.incr Metrics.runs;
  Obs.Counter.incr ~by:s.num_states Metrics.states;
  Obs.Counter.incr ~by:s.num_transitions Metrics.transitions;
  Obs.Counter.incr ~by:s.num_deadlocks Metrics.deadlocks;
  Obs.Counter.incr ~by:s.intern_hits Metrics.intern_hits;
  Obs.Counter.incr ~by:s.intern_misses Metrics.intern_misses;
  if s.deadline_expired then Obs.Counter.incr Metrics.deadline_expired;
  Obs.Gauge.set Metrics.states_per_sec (states_per_sec s);
  Obs.Gauge.set Metrics.peak_frontier (float_of_int s.peak_frontier);
  Obs.Gauge.set Metrics.depth_levels (float_of_int s.depth_levels);
  Option.iter
    (fun d -> Obs.Gauge.set Metrics.early_exit_depth (float_of_int d))
    s.early_exit_depth;
  Obs.Gauge.set Metrics.hashcons_nodes (float_of_int s.hashcons_nodes);
  Obs.Gauge.set Metrics.store_bytes (float_of_int s.store_bytes);
  Obs.Counter.incr ~by:s.orbit_hits Metrics.orbit_hits;
  Obs.Counter.incr ~by:s.orbit_misses Metrics.orbit_misses;
  if s.orbit_hits + s.orbit_misses > 0 then
    Obs.Histogram.observe Metrics.canon_seconds s.canon_s;
  Obs.Histogram.observe Metrics.wall s.wall_s

let step_function semantics cache ~views defs frame =
  Semantics.successors ~cache ~prioritize:(semantics = Prioritized) ~views defs
    frame

(* Symmetry (orbit) reduction.

   With a non-trivial [Symmetry.spec] (built by the translation layer:
   which parallel slots hold interchangeable components, with which
   generated names), every successor is canonicalized *before* the
   visited-set lookup, so the exploration visits one representative per
   orbit.  Canonicalization ([canon_row]) is part of computing a row.

   Soundness: each spec member is equal to its class representative up
   to a renaming of generated names, so permuting member slots while
   renaming accordingly is an automorphism of the transition system —
   the canonical state is reachable iff the original is, with the same
   BFS depth, and it deadlocks iff the original does.  Verdicts and
   counterexample *lengths* are therefore preserved exactly; the visited
   state count only shrinks.

   Every stored state keeps its member slots in the class
   representative's names ([Symmetry.swap] converts the root once), and
   the kernel reads them through the spec's label views, so the members
   of a class share nodes and a canonicalization only sorts member
   tuples.  The steps the kernel emits carry real position-space labels,
   exactly as an exploration of real terms would emit them.  When the
   frame does not fit the spec, there are no views and no conversion,
   and every canonicalization declines.

   Exploration keeps no witness: a canonicalization's only by-product
   is a slot permutation per class, and [canon_row] drops it.  Names are
   built only on the way out: [real] turns a stored state back into its
   real terms, and a trace is de-canonicalized by [decanon_steps]: the
   stored path's states are canonical representatives, and replaying
   the path while composing the permutations tells which real member
   sits at each canonical position, so raised scenarios still name the
   actual AADL threads. *)
module Sym = struct
  type t = {
    spec : Symmetry.spec;
    cache : Semantics.cache;  (* the build's: its nodes fill the store *)
    frame : Frame.t;
    views : Semantics.views;  (* none when the frame does not fit *)
    root : Node.t array;
        (* the root in the representative's names, not yet
           canonicalized; never mutated *)
    defs : Defs.t;
  }

  let of_spec spec ~cache ~frame ~raw_root ~defs =
    if Symmetry.is_empty spec then None
    else begin
      let root = Array.copy raw_root in
      Symmetry.swap spec (Semantics.nodes cache) frame root;
      Some
        { spec; cache; frame; views = Symmetry.views spec frame; root; defs }
    end

  let canon s v = Symmetry.canon s.spec s.frame v
  let canon_w s v = Symmetry.canon_w s.spec s.frame v

  (* A stored state's real terms. *)
  let real s v =
    let v = Array.copy v in
    Symmetry.swap s.spec (Semantics.nodes s.cache) s.frame v;
    v

  (* Canonicalization can alias two successors of the same state; keep
     the first occurrence so row order stays the deterministic raw
     order.  Aliased successors carry equal steps, which the kernel's
     row order keeps adjacent, so a successor is compared only with the
     kept successors of its own step ([run]). *)
  let dedup row =
    match row with
    | [] | [ _ ] -> row
    | _ ->
        let rec go acc run = function
          | [] -> List.rev acc
          | ((s, t) as edge) :: rest ->
              let run =
                match run with
                | (s', _) :: _ when Step.equal s s' -> run
                | _ -> []
              in
              if List.exists (fun (_, t') -> Frame.equal t t') run then
                go acc run rest
              else go (edge :: acc) (edge :: run) rest
        in
        go [] [] row

  (* Canonicalize one raw successor row; the kernel's successor vectors
     are fresh, so in place.  [hits] counts the successors moved onto a
     different representative, [misses] those already canonical. *)
  let canon_row s ~hits ~misses row =
    List.iter (fun (_, v) -> if canon s v then incr hits else incr misses) row;
    dedup row

  let canonical_root s =
    let v = Array.copy s.root in
    ignore (canon s v);
    v

  let observe_sizes s =
    List.iter
      (fun k -> Obs.Histogram.observe Metrics.orbit_size (float_of_int k))
      (Symmetry.class_sizes s.spec)

  (* De-canonicalize a stored path [(step, state); ...] from the root.

     Invariant maintained along the walk: [owners.(c).(j)] is the real
     member whose names class [c]'s position [j] of the current canonical
     state carries, on the actual (unreduced) run from [root].  For
     each stored edge we recompute the canonical state's *raw* successor
     row, find the successor whose canonical form is the stored child —
     one exists by construction, since the stored row was exactly that
     row canonicalized — rename the step through [owners], and compose
     the child's permutation into [owners]: its position [j] now holds
     the tuple of position [perm.(j)].  State ids are left as they are
     (they index the canonical store); only steps are renamed, which is
     all trace consumers read. *)
  let decanon_steps s ~semantics ~term_at path =
    (* the build's cache: recomputed vectors share the stored ones' nodes *)
    let next = step_function semantics s.cache ~views:s.views s.defs s.frame in
    let root = Array.copy s.root in
    let owners = ref (canon_w s root) in
    let cur = ref root in
    List.map
      (fun (step, id) ->
        let child = term_at id in
        let raw_row = next !cur in
        match
          List.find_map
            (fun (st, t) ->
              if not (Step.equal st step) then None
              else
                let perm = canon_w s t in
                if Frame.equal t child then Some perm else None)
            raw_row
        with
        | None ->
            (* unreachable by the invariant above; degrade to the
               canonical step rather than raise inside diagnostics *)
            cur := child;
            (step, id)
        | Some perm ->
            let real = Symmetry.rename_step s.spec !owners step in
            owners :=
              Array.map2 (fun o p -> Array.map (fun j -> o.(j)) p) !owners perm;
            cur := child;
            (real, id))
      path
end

(* The state store: flat growable arrays indexed by state id.  Per state
   it keeps the slot vector (pointers into the build's node table) and
   its hash, both in the visited set ([Visited]), and the BFS parent id
   and the arriving step — enough to rebuild every shortest
   counterexample path.  Successor rows, indexed by the expanded
   state's id, are kept only when the caller asks for edges; without
   them the store holds nothing per transition, which is what plain
   schedulability queries need. *)
module Store = struct
  type t = {
    visited : Visited.t;  (* slot vector <-> state id *)
    edges : bool;
    mutable pred : int array;  (* BFS parent; -1 for the root *)
    mutable steps : Step.t array;  (* step from pred; slot 0 is a dummy *)
    mutable rows : (Step.t * state_id) array array;
        (* successor rows of the expanded states; empty without edges *)
    mutable hits : int;
    mutable misses : int;
  }

  let dummy_step = Step.Tau (None, 0)

  let create ~edges =
    {
      visited = Visited.create ();
      edges;
      pred = Array.make 1024 (-1);
      steps = Array.make 1024 dummy_step;
      rows = (if edges then Array.make 1024 [||] else [||]);
      hits = 0;
      misses = 0;
    }

  let length st = Visited.length st.visited
  let state st id = Visited.get st.visited id

  let double dummy src =
    let n = Array.length src in
    let bigger = Array.make (2 * n) dummy in
    Array.blit src 0 bigger 0 n;
    bigger

  (* Intern a successor; parent/step are recorded only on first
     discovery, so the parent pointers always form the BFS tree. *)
  let intern st slots ~pred ~step =
    let fresh = length st in
    let id = Visited.intern st.visited slots in
    if id < fresh then begin
      st.hits <- st.hits + 1;
      id
    end
    else begin
      st.misses <- st.misses + 1;
      if id = Array.length st.pred then begin
        st.pred <- double (-1) st.pred;
        st.steps <- double dummy_step st.steps
      end;
      st.pred.(id) <- pred;
      st.steps.(id) <- step;
      id
    end

  (* Intern the successors of state [id], the next one to expand, in row
     order; with edges, also keep its row. *)
  let expand st id succs =
    if st.edges then begin
      let row =
        List.map (fun (step, v) -> (step, intern st v ~pred:id ~step)) succs
      in
      if id = Array.length st.rows then st.rows <- double [||] st.rows;
      st.rows.(id) <- Array.of_list row
    end
    else List.iter (fun (step, v) -> ignore (intern st v ~pred:id ~step)) succs
end

type t = {
  store : Store.t;
  frame : Frame.t;  (** every stored slot vector's, over the build's terms *)
  expanded : int;
      (** states [0, expanded) had their successors computed; the rest
          are the unexpanded frontier of a truncated exploration *)
  truncated : bool;  (** true if exploration stopped before exhaustion *)
  semantics : semantics;
  transitions : int;
  deadlock_ids : state_id list;  (** discovery order *)
  stats : stats;
  sym : Sym.t option;  (** present when symmetry reduction was active *)
}

let num_states lts = Store.length lts.store
let num_transitions lts = lts.transitions

let initial (_ : t) : state_id = 0
let term lts id =
  let v = Store.state lts.store id in
  let v = match lts.sym with None -> v | Some s -> Sym.real s v in
  Hproc.to_proc (Frame.materialize lts.frame v)
let has_edges lts = lts.store.Store.edges
let truncated lts = lts.truncated
let stats lts = lts.stats
let deadlocks lts = lts.deadlock_ids

let successors lts id =
  if not (has_edges lts) then
    invalid_arg "Lts.successors: explored without ~edges";
  if id < lts.expanded then lts.store.Store.rows.(id) else [||]

let is_deadlock lts id =
  id < lts.expanded && Array.length (successors lts id) = 0

let depth lts id =
  let rec up id d =
    let p = lts.store.Store.pred.(id) in
    if p < 0 then d else up p (d + 1)
  in
  up id 0

(* Rebuild the BFS-shortest path from the initial state to [id] as a list
   of (step, reached state). *)
let path_to lts id =
  let st = lts.store in
  let rec up id acc =
    let p = st.Store.pred.(id) in
    if p < 0 then acc else up p ((st.Store.steps.(id), id) :: acc)
  in
  let path = up id [] in
  match lts.sym with
  | None -> path
  | Some s ->
      Sym.decanon_steps s ~semantics:lts.semantics
        ~term_at:(Store.state st)
        path

type build_config = {
  max_states : int option;  (** stop after discovering this many states *)
  stop_at_deadlock : bool;
      (** stop expanding as soon as one deadlock has been discovered *)
  deadline : float option;
      (** absolute time on the ambient [Timed.Clock] scale past which
          the exploration stops and reports truncation — the time-domain
          twin of [max_states] *)
  poll : (unit -> bool) option;
      (** cooperative stop hook, checked before every expansion: returning
          [true] truncates the run (job cancellation in the service
          layer) *)
}

let default_config =
  { max_states = Some 2_000_000; stop_at_deadlock = false;
    deadline = None; poll = None }

(* The exploration's stop predicate, checked before every expansion.
   [deadline] and [poll] are [None] on the default path and then cost
   nothing. *)
let budget_stop config ~len ~deadline_hit () =
  (match config.max_states with Some m -> len >= m | None -> false)
  || (match config.deadline with
     | Some d when Timed.Clock.gettimeofday () > d ->
         deadline_hit := true;
         true
     | Some _ | None -> false)
  || (match config.poll with Some p -> p () | None -> false)

let pp_semantics ppf = function
  | Prioritized -> Fmt.string ppf "prioritized"
  | Unprioritized -> Fmt.string ppf "unprioritized"

let build ?(config = default_config) ?(semantics = Prioritized)
    ?(symmetry = Symmetry.empty) ?(edges = true) defs root =
  Obs.Span.with_
    ~name:(if edges then "lts.build" else "lts.check")
    ~attrs:[ ("semantics", Fmt.str "%a" pp_semantics semantics) ]
  @@ fun () ->
  let t_start = Timed.Clock.gettimeofday () in
  let cache = Semantics.make_cache () in
  let frame, raw_root =
    Frame.split (Semantics.nodes cache)
      (Hproc.of_proc (Semantics.terms cache) root)
  in
  let sym = Sym.of_spec symmetry ~cache ~frame ~raw_root ~defs in
  let raw_next =
    step_function semantics cache
      ~views:(match sym with None -> Semantics.no_views | Some s -> s.Sym.views)
      defs frame
  in
  let orbit_hits = ref 0 and orbit_misses = ref 0 and canon_s = ref 0. in
  let expand slots =
    let row = raw_next slots in
    match sym with
    | Some s when row <> [] ->
        let t0 = Timed.Clock.gettimeofday () in
        let row = Sym.canon_row s ~hits:orbit_hits ~misses:orbit_misses row in
        canon_s := !canon_s +. (Timed.Clock.gettimeofday () -. t0);
        row
    | Some _ | None -> row
  in
  let store = Store.create ~edges in
  let truncated = ref false in
  let deadlock_found = ref false in
  let deadlock_ids_rev = ref [] in
  let transitions = ref 0 in
  let peak_frontier = ref 0 in
  ignore
    (Store.intern store
       (match sym with None -> raw_root | Some s -> Sym.canonical_root s)
       ~pred:(-1) ~step:Store.dummy_step);
  let deadline_hit = ref false in
  let over_budget () =
    budget_stop config ~len:(Store.length store) ~deadline_hit ()
  in
  let expand_s = ref 0. in
  (* BFS levels are contiguous id ranges (ids are assigned in discovery
     order), so depth tracking needs two counters, not an array: when the
     merge crosses [level_end], every state of the current depth has been
     expanded and the states discovered so far are exactly the next
     level.  [depth_levels] therefore counts expanded levels only. *)
  let depth = ref 0 in
  let level_end = ref 1 in
  let early_exit_depth = ref None in
  let head = ref 0 in
  (* The BFS queue is implicit: the queue contents are exactly the ids
     [head .. len).  An exception from an expansion propagates from the
     state that raised it. *)
  let stop = ref false in
  while (not !stop) && !head < Store.length store do
    let frontier = Store.length store - !head in
    if frontier > !peak_frontier then peak_frontier := frontier;
    Obs.Histogram.observe Metrics.frontier (float_of_int frontier);
    if (config.stop_at_deadlock && !deadlock_found) || over_budget () then begin
      (* leave this state (and every later one) unexpanded; the
         exploration is incomplete *)
      truncated := true;
      stop := true
    end
    else begin
      let id = !head in
      if id >= !level_end then begin
        incr depth;
        level_end := Store.length store
      end;
      let t0 = Timed.Clock.gettimeofday () in
      let s = expand (Store.state store id) in
      expand_s := !expand_s +. (Timed.Clock.gettimeofday () -. t0);
      if s = [] then begin
        deadlock_found := true;
        deadlock_ids_rev := id :: !deadlock_ids_rev;
        if config.stop_at_deadlock && !early_exit_depth = None then
          early_exit_depth := Some !depth
      end;
      Store.expand store id s;
      transitions := !transitions + List.length s;
      incr head
    end
  done;
  let n = Store.length store in
  let wall_s = Timed.Clock.gettimeofday () -. t_start in
  let stats =
    {
      wall_s;
      expand_s = !expand_s;
      merge_s = wall_s -. !expand_s;
      num_states = n;
      num_transitions = !transitions;
      num_deadlocks = List.length !deadlock_ids_rev;
      peak_frontier = !peak_frontier;
      depth_levels = !depth + 1;
      intern_hits = store.Store.hits;
      intern_misses = store.Store.misses;
      hashcons_nodes = Hproc.size (Semantics.terms cache);
      slot_nodes = Node.size (Semantics.nodes cache);
      (* per state: the slot vector (a header and one word per slot)
         and the vector-pointer, cached-hash, pred and step array slots;
         the visited set's table, two to four slots per state; with
         edges, per expanded state a rows slot and a row header, per
         transition a row slot and a (step, id) tuple.  An estimate,
         counted in words. *)
      store_bytes =
        8
        * (((5 + Frame.width frame) * n)
          + Visited.capacity store.Store.visited
          + if edges then (2 * !head) + (4 * !transitions) else 0);
      early_exit_depth = !early_exit_depth;
      deadline_expired = !deadline_hit;
      orbit_hits = !orbit_hits;
      orbit_misses = !orbit_misses;
      canon_s = !canon_s;
    }
  in
  publish_stats stats;
  Option.iter Sym.observe_sizes sym;
  {
    store;
    frame;
    expanded = !head;
    truncated = !truncated;
    semantics;
    transitions = !transitions;
    deadlock_ids = List.rev !deadlock_ids_rev;
    stats;
    sym;
  }

(* A truncated run was stopped either by [stop_at_deadlock] (an early
   exit, which [early_exit_depth] records) or by a budget. *)
let pp_summary ppf lts =
  Fmt.pf ppf "%d states, %d transitions%s (%a semantics%s)" (num_states lts)
    (num_transitions lts)
    (if not lts.truncated then ""
     else if lts.stats.early_exit_depth <> None then " [early exit]"
     else " [truncated]")
    pp_semantics lts.semantics
    (if has_edges lts then "" else ", on-the-fly")
