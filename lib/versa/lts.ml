(* Explicit labeled transition systems produced by state-space exploration
   of ACSR terms.

   States are closed process terms, interned into integer ids in BFS
   discovery order (the initial state has id 0).  Each state records its
   BFS parent, so that shortest diagnostic traces can be rebuilt — this
   mirrors what the VERSA tool reports to the user (paper, Section 5).
   The step that arrives at a state is not stored: [path_to] finds it
   again by re-expanding the state's parent, once per step of the one
   path it is asked for.  Outgoing (step, successor) rows are kept only
   when the caller asks for edges.

   The root is split once into its frame ([Acsr.Frame]: the restriction
   and the Par spine) and every state is kept as its vector of slot
   nodes over that frame ([Acsr.Node]: one per distinct slot term of
   the exploration, from the node table of the build's
   [Semantics.cache]).  A node carries its term's hash and its compiled
   step set, so expanding a state reads node fields.  The visited set
   ([Visited]) keeps each vector as its slots' node ids in byte chunks
   the collector never scans, with an open-addressed table of state ids
   over them and their cached hashes: an intern mixes the slots' term
   hashes once, compares a cached hash before it compares node ids, and
   never rebuilds or interns the spine.  The store therefore holds no
   OCaml value per state (without edges), and the collector neither
   promotes nor scans it.  A state is expanded from the vector whose
   intern discovered it, kept until then in a bounded ring ([Ring]);
   only a state discovered while the ring was full is decoded from the
   store.  Under orbit reduction the member slots hold their terms in
   their class representative's names (see [Sym] below).  A state's
   term is materialized only when a caller asks for it ([term], DOT
   export, trace replay).

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
      ~help:
        "Bytes of the last exploration's state store buffers, successor rows \
         included"
      "versa_store_bytes"

  let plan_hits =
    Obs.Counter.make ~help:"Expansions built from a memoized successor plan"
      "versa_plan_hits_total"

  let plan_misses =
    Obs.Counter.make
      ~help:"Expansions whose successor plan was selected and memoized"
      "versa_plan_misses_total"

  let plan_bytes =
    Obs.Gauge.make
      ~help:"Bytes of the last exploration's successor plan buffers"
      "versa_plan_bytes"

  (* the frontier histogram's bounds, as integers for [build] *)
  let frontier_bounds = [| 1; 10; 100; 1_000; 10_000; 100_000 |]

  let frontier =
    Obs.Histogram.make ~help:"Frontier width at each expansion step"
      ~buckets:(Array.to_list (Array.map float_of_int frontier_bounds))
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
  expand_s : float;  (** computing successor rows, sampled; 0 untraced *)
  merge_s : float;  (** interning + BFS bookkeeping; 0 untraced *)
  num_states : int;
  num_transitions : int;
  num_deadlocks : int;
  peak_frontier : int;  (** max discovered-but-unexpanded states *)
  depth_levels : int;  (** deepest BFS level reached + 1 *)
  intern_hits : int;  (** state interns that found an existing state *)
  intern_misses : int;  (** state interns that discovered a new state *)
  hashcons_nodes : int;  (** the exploration's hash-cons table size *)
  slot_nodes : int;  (** distinct slot terms the exploration met *)
  store_bytes : int;  (** bytes of the state store's buffers *)
  early_exit_depth : int option;
      (** BFS depth of the deadlock that stopped an early-exit run *)
  deadline_expired : bool;
      (** the wall-clock budget ([config.deadline]) stopped the run *)
  orbit_hits : int;
      (** successors the symmetry reduction folded onto a different orbit
          representative; 0 when symmetry is off or trivial *)
  orbit_misses : int;  (** successors that were already canonical *)
  canon_s : float;  (** time spent canonicalizing states, real clock *)
  plan_hits : int;  (** expansions built from a memoized successor plan *)
  plan_misses : int;  (** expansions whose plan was selected *)
  plan_bytes : int;  (** bytes of the successor plan buffers *)
}

let states_per_sec s =
  if s.wall_s > 0. then float_of_int s.num_states /. s.wall_s else 0.

(* One registry write-out per exploration, at the end of the run: hot
   loops never touch the registry.  [build] adds the frontier histogram,
   which it counts into an array of its own. *)
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
  Obs.Counter.incr ~by:s.plan_hits Metrics.plan_hits;
  Obs.Counter.incr ~by:s.plan_misses Metrics.plan_misses;
  Obs.Gauge.set Metrics.plan_bytes (float_of_int s.plan_bytes);
  Obs.Counter.incr ~by:s.orbit_hits Metrics.orbit_hits;
  Obs.Counter.incr ~by:s.orbit_misses Metrics.orbit_misses;
  if s.orbit_hits + s.orbit_misses > 0 then
    Obs.Histogram.observe Metrics.canon_seconds s.canon_s;
  Obs.Histogram.observe Metrics.wall s.wall_s

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
  }

  let of_spec spec ~cache ~frame ~raw_root =
    if Symmetry.is_empty spec then None
    else begin
      let root = Array.copy raw_root in
      Symmetry.swap spec (Semantics.nodes cache) frame root;
      Some
        { spec; cache; frame; views = Symmetry.views spec frame; root }
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

  (* De-canonicalize a path from the root, given as the ids of the
     states it reaches, each the BFS child of the one before (the
     root's for the first).

     Invariant maintained along the walk: [owners.(c).(j)] is the real
     member whose names class [c]'s position [j] of the current canonical
     state carries, on the actual (unreduced) run from [root].  For each
     child we recompute the current state's *raw* successor row and take
     the first successor whose canonical form is the child: the build
     interned that row, canonicalized and deduplicated, in this order,
     so this is the entry that discovered the child, and its step is
     the arriving one.  We rename the step through [owners] and compose
     the child's permutation into [owners]: its position [j] now holds
     the tuple of position [perm.(j)].  State ids are left as they are
     (they index the canonical store); only steps are renamed, which is
     all trace consumers read. *)
  let decanon_steps s ~next ~state ids =
    let root = Array.copy s.root in
    let owners = ref (canon_w s root) in
    let cur = ref root in
    List.map
      (fun id ->
        let child = state id in
        let rec arriving = function
          | [] -> invalid_arg "Lts.path_to: no step reaches the child"
          | (step, t) :: rest ->
              let perm = canon_w s t in
              if Frame.equal t child then (step, perm) else arriving rest
        in
        let step, perm = arriving (next !cur) in
        let real = Symmetry.rename_step s.spec !owners step in
        owners :=
          Array.map2 (fun o p -> Array.map (fun j -> o.(j)) p) !owners perm;
        cur := child;
        (real, id))
      ids
end

(* The vectors of discovered, not yet expanded states, kept as their
   discovering intern received them: the kernel's fresh successor
   vector, canonicalized under symmetry.  Nothing mutates a vector
   after its intern, so it equals the state's stored one.  Entry
   [id land mask] holds the vector of [id], tagged with [id], from its
   discovery to its expansion.  The kept ids are the frontier's, so two
   of them share an entry only when the frontier is wider than the
   ring: the ring then doubles, from 16 entries up to [words] words of
   kept vectors (4,096 entries at 12 slots), which bounds what the
   collector sees of it on a wide frontier; at that size a state whose
   entry is taken is not kept, and is decoded from the store when it
   is expanded.  The ring belongs to one build and is dropped with
   it. *)
module Ring = struct
  type t = {
    mutable vectors : Node.t array array;  (* [||] where none is kept *)
    mutable ids : int array;  (* the id kept in each entry; -1 where none is *)
    mutable mask : int;
    most : int;  (* entries at most *)
  }

  let words = 65_536

  (* a kept vector costs its [width] slots and a header word *)
  let create ~width =
    let rec fit n = if 2 * n * (width + 1) <= words then fit (2 * n) else n in
    let most = fit 1 in
    let n = min 16 most in
    { vectors = Array.make n [||]; ids = Array.make n (-1); mask = n - 1; most }

  (* Twice the entries; kept ids differ in their bits under the old
     mask, so they do under the new one. *)
  let grow r =
    let n = 2 * (r.mask + 1) in
    let vectors = Array.make n [||] and ids = Array.make n (-1) in
    Array.iteri
      (fun i id ->
        if id >= 0 then begin
          vectors.(id land (n - 1)) <- r.vectors.(i);
          ids.(id land (n - 1)) <- id
        end)
      r.ids;
    r.vectors <- vectors;
    r.ids <- ids;
    r.mask <- n - 1

  (* Keep the vector of the state just discovered as [id]. *)
  let rec keep r id v =
    let i = id land r.mask in
    if r.ids.(i) < 0 then begin
      r.vectors.(i) <- v;
      r.ids.(i) <- id
    end
    else if r.mask + 1 < r.most then begin
      grow r;
      keep r id v
    end

  let holds r id = r.ids.(id land r.mask) = id

  (* The kept vector of [id], which [holds]; its entry is freed. *)
  let take r id =
    let i = id land r.mask in
    let v = r.vectors.(i) in
    r.vectors.(i) <- [||];
    r.ids.(i) <- -1;
    v
end

(* The state store, indexed by state id.  Per state it keeps the slot
   vector and its hash, in the visited set ([Visited]), and the BFS
   parent id, in [pred]: int32 cells in byte chunks, which the
   collector never scans and a growing store never copies.  That is
   enough to rebuild every shortest counterexample path: the arriving
   steps are not kept, [path_to] recomputes them.  Successor rows,
   indexed by the expanded state's id, are kept only when the caller
   asks for edges; without them the store holds no OCaml value per
   state or per transition, which is what plain schedulability queries
   need. *)
module Store = struct
  type t = {
    visited : Visited.t;  (* slot vector <-> state id *)
    edges : bool;
    pred : Visited.Chunks.t;  (* BFS parent by id; -1 for the root *)
    mutable rows : (Step.t * state_id) array array;
        (* successor rows of the expanded states; empty without edges *)
    mutable hits : int;
    mutable misses : int;
  }

  let create nodes ~width ~edges =
    {
      visited = Visited.create nodes ~width;
      edges;
      pred = Visited.Chunks.create ~stride:1;
      rows = (if edges then Array.make 64 [||] else [||]);
      hits = 0;
      misses = 0;
    }

  let length st = Visited.length st.visited
  let state st id = Visited.get st.visited id

  let pred st id =
    if id < 0 || id >= length st then invalid_arg "Lts.Store.pred";
    Visited.Chunks.get st.pred id 0

  (* Intern a successor; its parent is recorded, and its vector kept in
     [ring], only on first discovery, so the parent pointers always
     form the BFS tree. *)
  let intern st ring slots ~pred =
    let fresh = length st in
    let id = Visited.intern st.visited slots in
    if id < fresh then begin
      st.hits <- st.hits + 1;
      id
    end
    else begin
      st.misses <- st.misses + 1;
      Visited.Chunks.reserve st.pred id;
      Visited.Chunks.set st.pred id 0 pred;
      Ring.keep ring id slots;
      id
    end

  (* Intern the successors of state [id], the next one to expand, in row
     order; with edges, also keep its row.  The number of successors. *)
  let rec intern_row st ring id n = function
    | [] -> n
    | (_, v) :: rest ->
        ignore (intern st ring v ~pred:id);
        intern_row st ring id (n + 1) rest

  let expand st ring id succs =
    if st.edges then begin
      let row =
        Array.of_list
          (List.map (fun (step, v) -> (step, intern st ring v ~pred:id)) succs)
      in
      if id = Array.length st.rows then begin
        let bigger = Array.make (2 * id) [||] in
        Array.blit st.rows 0 bigger 0 id;
        st.rows <- bigger
      end;
      st.rows.(id) <- row;
      Array.length row
    end
    else intern_row st ring id 0 succs

  (* The buffers' bytes: the visited set's and [pred]'s chunks in use;
     with edges, the rows array's slots and, per row, a header word, and
     per transition a row slot and a three-word (step, id) tuple.  The
     steps themselves are shared with the node table's compiled step
     sets, or carry a renamed label. *)
  let bytes st ~expanded ~transitions =
    Visited.bytes st.visited
    + Visited.Chunks.bytes st.pred
    + if st.edges then 8 * (Array.length st.rows + expanded + (4 * transitions))
      else 0
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
  next : Node.t array -> (Step.t * Node.t array) list;
      (** the build's raw successor function, over its cache and views:
          [path_to] re-expands with it *)
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
    let p = Store.pred lts.store id in
    if p < 0 then d else up p (d + 1)
  in
  up id 0

(* Rebuild the BFS-shortest path from the initial state to [id] as a list
   of (step, reached state).  The parent pointers give the states; each
   step is found again by re-expanding the parent: the build interned
   the parent's row in row order and recorded the parent on first
   discovery, so the first row entry whose successor is the child is
   the one that discovered it, and its step is the arriving one.  Under
   symmetry [Sym.decanon_steps] does the same on the raw rows, matching
   successors by their canonical form. *)
let path_to lts id =
  let st = lts.store in
  let rec up id acc =
    let p = Store.pred st id in
    if p < 0 then acc else up p (id :: acc)
  in
  let ids = up id [] in
  match lts.sym with
  | None ->
      let parent = ref 0 in
      List.map
        (fun id ->
          let child = Store.state st id in
          let step, _ =
            List.find
              (fun (_, v) -> Frame.equal v child)
              (lts.next (Store.state st !parent))
          in
          parent := id;
          (step, id))
        ids
  | Some s -> Sym.decanon_steps s ~next:lts.next ~state:(Store.state st) ids

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
  (* Splitting [expand_s] from [merge_s] costs two clock reads per
     timed expansion, so only a traced run pays for it, and on the real
     clock: a trace never moves a deadline's expiry on a virtual one.
     It times one expansion in [sample_every] and scales the sum to all
     of them; timing every one cost tracing 8% of [e6_unsched 6]. *)
  let traced = Obs.Trace.active () and sample_every = 8 in
  let t_real = if traced then Timed.Clock.now Timed.Clock.real else 0. in
  let cache = Semantics.make_cache () in
  let frame, raw_root =
    Frame.split (Semantics.nodes cache)
      (Hproc.of_proc (Semantics.terms cache) root)
  in
  let sym = Sym.of_spec symmetry ~cache ~frame ~raw_root in
  let raw_next =
    Semantics.successors ~cache ~prioritize:(semantics = Prioritized)
      ~views:(match sym with None -> Semantics.no_views | Some s -> s.Sym.views)
      defs frame
  in
  let orbit_hits = ref 0 and orbit_misses = ref 0 and canon_s = ref 0. in
  (* canonicalization is timed on the real clock, as [expand_s] is: a
     per-state read of the ambient one would move a virtual deadline *)
  let expand slots =
    let row = raw_next slots in
    match sym with
    | Some s when row != [] ->
        let t0 = Timed.Clock.now Timed.Clock.real in
        let row = Sym.canon_row s ~hits:orbit_hits ~misses:orbit_misses row in
        canon_s := !canon_s +. (Timed.Clock.now Timed.Clock.real -. t0);
        row
    | Some _ | None -> row
  in
  let width = Frame.width frame in
  let store = Store.create (Semantics.nodes cache) ~width ~edges in
  let ring = Ring.create ~width in
  let truncated = ref false in
  let deadlock_found = ref false in
  let deadlock_ids_rev = ref [] in
  let transitions = ref 0 in
  let peak_frontier = ref 0 in
  ignore
    (Store.intern store ring
       (match sym with None -> raw_root | Some s -> Sym.canonical_root s)
       ~pred:(-1));
  let deadline_hit = ref false in
  let over_budget () =
    budget_stop config ~len:(Store.length store) ~deadline_hit ()
  in
  let expand_s = ref 0. (* over the timed expansions *) in
  (* the frontier histogram, counted here and published with the other
     statistics; the overflow bucket is the last *)
  let bounds = Metrics.frontier_bounds in
  let frontier_counts = Array.make (Array.length bounds + 1) 0 in
  (* the first bucket whose bound covers [n], from [b] on *)
  let rec bucket n b =
    if b < Array.length bounds && n > Array.unsafe_get bounds b then
      bucket n (b + 1)
    else b
  in
  let frontier_sum = ref 0 in
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
    let b = bucket frontier 0 in
    frontier_counts.(b) <- frontier_counts.(b) + 1;
    frontier_sum := !frontier_sum + frontier;
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
      let slots =
        if Ring.holds ring id then Ring.take ring id else Store.state store id
      in
      let s =
        if not traced || id mod sample_every <> 0 then expand slots
        else begin
          let t0 = Timed.Clock.now Timed.Clock.real in
          let s = expand slots in
          expand_s := !expand_s +. (Timed.Clock.now Timed.Clock.real -. t0);
          s
        end
      in
      if s == [] then begin
        deadlock_found := true;
        deadlock_ids_rev := id :: !deadlock_ids_rev;
        if config.stop_at_deadlock && !early_exit_depth = None then
          early_exit_depth := Some !depth
      end;
      transitions := !transitions + Store.expand store ring id s;
      incr head
    end
  done;
  let n = Store.length store in
  let wall_s = Timed.Clock.gettimeofday () -. t_start in
  (* ids 0, [sample_every], ... below [head] were timed *)
  let expand_s =
    !expand_s *. float_of_int !head
    /. float_of_int (max 1 ((!head + sample_every - 1) / sample_every))
  in
  let plans = Semantics.plan_stats cache in
  let stats =
    {
      wall_s;
      expand_s;
      merge_s =
        (if traced then
           Float.max 0. (Timed.Clock.now Timed.Clock.real -. t_real -. expand_s)
         else 0.);
      num_states = n;
      num_transitions = !transitions;
      num_deadlocks = List.length !deadlock_ids_rev;
      peak_frontier = !peak_frontier;
      depth_levels = !depth + 1;
      intern_hits = store.Store.hits;
      intern_misses = store.Store.misses;
      hashcons_nodes = Hproc.size (Semantics.terms cache);
      slot_nodes = Node.size (Semantics.nodes cache);
      store_bytes =
        Store.bytes store ~expanded:!head ~transitions:!transitions;
      early_exit_depth = !early_exit_depth;
      deadline_expired = !deadline_hit;
      orbit_hits = !orbit_hits;
      orbit_misses = !orbit_misses;
      canon_s = !canon_s;
      plan_hits = plans.Semantics.plan_hits;
      plan_misses = plans.Semantics.plan_misses;
      plan_bytes = plans.Semantics.plan_bytes;
    }
  in
  publish_stats stats;
  Obs.Histogram.add Metrics.frontier ~counts:frontier_counts
    ~sum:(float_of_int !frontier_sum);
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
    next = raw_next;
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
