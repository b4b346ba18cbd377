(* Tests for the hash-consed explorer.

   Two families of guarantees:
   - exploring without successor rows agrees with the full build on
     state numbering, deadlocks and shortest traces, on the reference
     models and on random terms;
   - the hash-consed semantics engine agrees term-for-term with the
     reference engine ([Semantics.steps]/[prioritized]), and the [Hproc]
     layer is a faithful embedding of [Proc]. *)

open Acsr

let cpu = Resource.make "cpu"

let e_int n = Expr.Int n

let action accesses =
  Action.of_list (List.map (fun (r, p) -> (r, e_int p)) accesses)

(* {1 Reference models} *)

let tr_of text =
  let tr = Translate.Pipeline.translate (Aadl.Instantiate.of_string text) in
  (tr.Translate.Pipeline.defs, tr.Translate.Pipeline.system)

let reference_models () =
  let exhaustive =
    {
      Versa.Lts.default_config with
      max_states = Some 100_000;
      stop_at_deadlock = false;
    }
  in
  let stop =
    {
      Versa.Lts.default_config with
      max_states = Some 100_000;
      stop_at_deadlock = true;
    }
  in
  let tiny =
    {
      Versa.Lts.default_config with
      max_states = Some 40;
      stop_at_deadlock = false;
    }
  in
  let cruise = tr_of (Gen.cruise_control ()) in
  let overload = tr_of (Gen.cruise_control ~overload:true ()) in
  let crossover = tr_of (Gen.periodic_system Gen.crossover_set) in
  [
    ( "fig3",
      (Gen.Paper_figs.fig3_defs, Gen.Paper_figs.fig3_system),
      exhaustive );
    ("cruise control", cruise, exhaustive);
    ("cruise control truncated", cruise, tiny);
    ("cruise control overloaded", overload, stop);
    ("crossover set", crossover, stop);
  ]

(* {1 Hash-consed semantics vs the reference engine, on LTS states}

   The explorer splits the root once into a frame and keeps every state
   as a vector of slot terms over it.  [Lts.build] must reproduce a
   breadth-first search over the reference engine on [Proc.t] terms —
   the same states in the same order, with the same rows — and on each
   state [h_prioritized] must return what [prioritized] does.  Besides
   two reference models, the inputs cover two frame shapes translated
   models never reach: a slot that unfolds through a [Call] into a [Par]
   (it must stay one opaque slot whose steps compose its own
   components), and a root that is not a system (a 1-slot frame whose
   successors may be systems). *)

let reference_bfs defs root =
  let ids = Hashtbl.create 64 and order = ref [] and queue = Queue.create () in
  let intern p =
    match Hashtbl.find_opt ids p with
    | Some id -> id
    | None ->
        let id = Hashtbl.length ids in
        Hashtbl.add ids p id;
        order := p :: !order;
        Queue.add p queue;
        id
  in
  ignore (intern root);
  let rows = ref [] in
  while not (Queue.is_empty queue) do
    let p = Queue.pop queue in
    rows :=
      List.map (fun (s, q) -> (s, intern q)) (Semantics.prioritized defs p)
      :: !rows
  done;
  (Array.of_list (List.rev !order), Array.of_list (List.rev !rows))

(* The number of leaves of a term's parallel tree, under its
   restriction if it has one. *)
let width p =
  let rec leaves = function
    | Proc.Par (a, b) -> leaves a + leaves b
    | _ -> 1
  in
  match p with Proc.Restrict (_, k) -> leaves k | _ -> leaves p

let bus = Resource.make "bus"
let lbl = Label.make
let labels l = Label.set_of_list (List.map lbl l)

(* [Pair] is a three-component [Par]: its first component offers [a]
   to slot 1 of the system or runs on the cpu, its other two
   synchronize on [c] with each other (an urgent tau) after a bus step.
   Slot 0 calls it from the start, slot 2 after an idle step, possibly
   once slot 0 has moved. *)
let call_into_par () =
  let idle = Proc.call "Idle" [] in
  let loop name p =
    (name, [], Proc.choice p (Proc.act Action.idle (Proc.call name [])))
  in
  let defs =
    Defs.of_list
      [
        ("Idle", [], Proc.act Action.idle idle);
        loop "P1" (Proc.send (lbl "a") (Proc.act (action [ (cpu, 1) ]) idle));
        loop "P2"
          (Proc.act
             (action [ (bus, 1) ])
             (Proc.send ~prio:(e_int 1) (lbl "c") idle));
        loop "P3"
          (Proc.receive (lbl "c") (Proc.act (action [ (bus, 2) ]) idle));
        ( "Pair",
          [],
          Proc.par_list
            [ Proc.call "P1" []; Proc.call "P2" []; Proc.call "P3" [] ] );
        loop "S1"
          (Proc.receive (lbl "a")
             (Proc.choice
                (Proc.send (lbl "b") idle)
                (Proc.act (action [ (cpu, 2) ]) idle)));
        ( "S2",
          [],
          Proc.choice
            (Proc.act Action.idle (Proc.call "Pair" []))
            (Proc.receive (lbl "b") idle) );
      ]
  in
  let root =
    Proc.restrict (labels [ "a"; "b"; "c" ])
      (Proc.par_list
         [ Proc.call "Pair" []; Proc.call "S1" []; Proc.call "S2" [] ])
  in
  (defs, root)

(* A choice under a restriction is a 1-slot frame; its timed branch
   leads to a restricted composition, whose taus and timed steps the
   1-slot frame must prioritize as a whole. *)
let non_system_root () =
  let root =
    Proc.restrict (labels [ "c" ])
      (Proc.choice_list
         [
           Proc.send (lbl "a") Proc.nil;
           Proc.act
             (action [ (cpu, 1) ])
             (Proc.par_list
                [
                  Proc.choice
                    (Proc.send ~prio:(e_int 1) (lbl "c")
                       (Proc.act (action [ (cpu, 1) ]) Proc.nil))
                    (Proc.act (action [ (cpu, 2) ]) Proc.nil);
                  Proc.receive (lbl "c")
                    (Proc.act (action [ (bus, 1) ]) Proc.nil);
                  Proc.choice
                    (Proc.act Action.idle (Proc.send (lbl "c") Proc.nil))
                    (Proc.send (lbl "d") Proc.nil);
                ]);
         ])
  in
  (Defs.empty, root)

let test_engines_agree_on_reachable_states () =
  let exhaustive =
    { Versa.Lts.default_config with stop_at_deadlock = false }
  in
  List.iter
    (fun (name, (defs, system), config) ->
      let lts = Versa.Lts.build ~config defs system in
      let states, rows = reference_bfs defs system in
      Alcotest.(check int)
        (name ^ ": states") (Array.length states) (Versa.Lts.num_states lts);
      let cache = Semantics.make_cache () in
      Array.iteri
        (fun id t ->
          if Versa.Lts.term lts id <> t then
            Alcotest.failf "%s: state %d differs" name id;
          if Array.to_list (Versa.Lts.successors lts id) <> rows.(id) then
            Alcotest.failf "%s: row of state %d differs" name id;
          let hashconsed =
            List.map
              (fun (s, h) -> (s, Hproc.to_proc h))
              (Semantics.h_prioritized ~cache defs
                 (Hproc.of_proc (Semantics.terms cache) t))
          in
          if Semantics.prioritized defs t <> hashconsed then
            Alcotest.failf "%s: engines disagree on state %d" name id)
        states)
    [
      List.nth (reference_models ()) 0;
      List.nth (reference_models ()) 1;
      ("slot unfolding into a Par", call_into_par (), exhaustive);
      ("non-system root", non_system_root (), exhaustive);
    ];
  let reaches what (defs, root) pred =
    Alcotest.(check bool) what true
      (Array.exists pred (fst (reference_bfs defs root)))
  in
  reaches "both calls unfold into a Par" (call_into_par ()) (fun p ->
      width p = 7);
  reaches "a successor of the 1-slot root is a system" (non_system_root ())
    (fun p -> width p > 1)

(* {1 Interned nodes per state}

   States are slot vectors over the root's fixed frame, so exploring
   [e6_model 5] interns no [Par] spine and no restriction per state:
   only the slot terms the threads and dispatchers move through, 0.84
   nodes per state over its 473 states.  Interning the spine of every
   surviving successor cost 5.2 nodes per state; following the binary
   Par rule level by level, about 24. *)

let test_nodes_per_state () =
  let defs, system = tr_of (Gen.e6_model 5) in
  let lts =
    Versa.Lts.build
      ~config:{ Versa.Lts.default_config with stop_at_deadlock = false }
      ~edges:false defs system
  in
  let per_state =
    float_of_int (Versa.Lts.stats lts).Versa.Lts.hashcons_nodes
    /. float_of_int (Versa.Lts.num_states lts)
  in
  if per_state > 1. then
    Alcotest.failf "%.2f hash-cons nodes per state over %d states (at most 1)"
      per_state (Versa.Lts.num_states lts)

(* {1 Allocation per state}

   The successor kernel records its candidates and the timed product's
   combinations as integers in scratch arrays its exploration owns, and
   builds only the rows that survive preemption, so an exploration's
   minor allocation per state is mostly those rows: 111 words per state
   on [e6_model 5] (473 states) and 1,672 on a 16-thread replicated
   family explored with the orbit reduction (66 states), where a kernel
   that built every candidate and every combination as lists allocated
   213 and 2,231.  An expansion reads its state from the vector its
   discovering intern kept, not from a fresh decode of the store, and
   interns a row without a closure, so the exhaustive [e6_unsched 6]
   run (31,537 states) allocates 36 words per state, where decoding
   every expanded state allocated 57.  [Gc.minor_words] repeats exactly
   on one domain; the first two bounds leave about a third and a sixth
   of headroom, the third fails a store that decodes every state.  The
   second of two identical runs is measured. *)

let minor_words_per_state text =
  let tr = Translate.Pipeline.translate (Aadl.Instantiate.of_string text) in
  let run () =
    Versa.Lts.build ~symmetry:tr.Translate.Pipeline.symmetry ~edges:false
      tr.Translate.Pipeline.defs tr.Translate.Pipeline.system
  in
  ignore (run ());
  let before = Gc.minor_words () in
  let lts = run () in
  (Gc.minor_words () -. before) /. float_of_int (Versa.Lts.num_states lts)

let test_allocation_per_state () =
  List.iter
    (fun (name, text, bound) ->
      let words = minor_words_per_state text in
      if words > bound then
        Alcotest.failf "%s: %.1f minor words per state (at most %.0f)" name
          words bound)
    [
      ("e6_model 5", Gen.e6_model 5, 150.);
      ( "16-thread family, reduced",
        Gen.replicated_family ~threads:16 ~utilization:0.9 (),
        2_000. );
      ("e6_unsched 6", Gen.e6_unsched 6, 50.);
    ]

(* {1 What the store keeps}

   The visited set keeps each state as its slots' node ids in byte
   chunks the collector never scans, and the parent pointers and hashes
   beside it; the
   arriving steps are not kept at all.  So a run without edges
   promotes almost nothing per state: 0.85 words on the second
   exhaustive run of [e6_unsched 6] (31,537 states), where a store of
   node-pointer vectors and boxed steps promoted 18.  Its buffers come
   to about 71 bytes per state there, against 152 for the pointer
   store.  Both are read on the second of two identical runs, after a
   minor collection. *)

let e6_unsched_6_second_run () =
  let defs, system = tr_of (Gen.e6_unsched 6) in
  let run () =
    Versa.Lts.build
      ~config:{ Versa.Lts.default_config with stop_at_deadlock = false }
      ~edges:false defs system
  in
  ignore (run ());
  Gc.minor ();
  let before = (Gc.quick_stat ()).Gc.promoted_words in
  let lts = run () in
  Gc.minor ();
  let promoted = (Gc.quick_stat ()).Gc.promoted_words -. before in
  (lts, promoted)

let test_promoted_per_state () =
  let lts, promoted = e6_unsched_6_second_run () in
  let per_state = promoted /. float_of_int (Versa.Lts.num_states lts) in
  if per_state > 3. then
    Alcotest.failf "%.2f promoted words per state over %d states (at most 3)"
      per_state (Versa.Lts.num_states lts)

let test_store_bytes_per_state () =
  let lts, _ = e6_unsched_6_second_run () in
  let per_state =
    float_of_int (Versa.Lts.stats lts).Versa.Lts.store_bytes
    /. float_of_int (Versa.Lts.num_states lts)
  in
  if per_state > 100. then
    Alcotest.failf "%.1f store bytes per state over %d states (at most 100)"
      per_state (Versa.Lts.num_states lts)

(* The successor memo keeps one plan per vector of slot code ids, and
   the translated models re-enter a few vectors in nearly every state:
   on the exhaustive [e6_unsched 6] run, 29,203 of the 31,537
   expansions are built from a kept plan.  Every expansion is a hit or
   a miss, and a kept plan is never selected again. *)
let test_plan_hits () =
  let lts, _ = e6_unsched_6_second_run () in
  let s = Versa.Lts.stats lts and n = Versa.Lts.num_states lts in
  Alcotest.(check int) "one hit or miss per expansion" n
    (s.Versa.Lts.plan_hits + s.Versa.Lts.plan_misses);
  if float_of_int s.Versa.Lts.plan_hits < 0.92 *. float_of_int n then
    Alcotest.failf "%d plan hits over %d expansions (at least 92%%)"
      s.Versa.Lts.plan_hits n

(* Timed preemption on hand-made products, against the reference
   engine.  Each system has a slot with a choice of two timed steps and
   a slot with one, so the product has two combinations:
   - [{r:1}] against [{r:0, s:2}]: neither preempts the other, since the
     second uses [r] at a lower priority, though it is higher on [s];
   - [{r:1}] against [{r:1, s:1}]: the second preempts the first, being
     strictly higher on [s], a resource the first does not use;
   - [{r:1}] against [{r:2}]: the second preempts the first on [r]. *)
let test_timed_preemption_cases () =
  let r = Resource.make "r" and s = Resource.make "s"
  and t = Resource.make "t" in
  let system a b =
    Proc.par_list
      [
        Proc.choice
          (Proc.act (action a) Proc.nil)
          (Proc.act (action b) Proc.nil);
        Proc.act (action [ (t, 0) ]) Proc.nil;
      ]
  in
  List.iter
    (fun (name, a, b, expected) ->
      let p = system a b in
      let cache = Semantics.make_cache () in
      let hashconsed =
        List.map
          (fun (st, h) -> (st, Hproc.to_proc h))
          (Semantics.h_prioritized ~cache Defs.empty
             (Hproc.of_proc (Semantics.terms cache) p))
      in
      let reference = Semantics.prioritized Defs.empty p in
      Alcotest.(check int) (name ^ ": surviving combinations") expected
        (List.length reference);
      if hashconsed <> reference then
        Alcotest.failf "%s: the kernel disagrees with the reference" name)
    [
      ("lower on a shared resource", [ (r, 1) ], [ (r, 0); (s, 2) ], 2);
      ("strictly higher outside", [ (r, 1) ], [ (r, 1); (s, 1) ], 1);
      ("higher on the same resource", [ (r, 1) ], [ (r, 2) ], 1);
    ]

(* {1 Node tables belong to one exploration}

   Every exploration compiles the step sets of its slot terms into its
   own node table.  A [Call] name means different things under
   different definitions, so a table shared between two explorations
   would hand one of them the other's step sets.  Two definition environments give [P] different bodies;
   explored back to back, and concurrently on two domains as the
   service's workers do, each run must match the reference engine's BFS
   under its own definitions: states, rows, counts and verdict. *)

let two_meanings () =
  let root =
    Proc.restrict (labels [ "a" ])
      (Proc.par (Proc.call "P" []) (Proc.call "Q" []))
  in
  let q =
    Proc.choice
      (Proc.receive (lbl "a") (Proc.act Action.idle (Proc.call "Q" [])))
      (Proc.act Action.idle (Proc.call "Q" []))
  in
  let defs p = Defs.of_list [ ("P", [], p); ("Q", [], q) ] in
  [
    ( "ping",
      defs (Proc.send (lbl "a") (Proc.act Action.idle (Proc.call "P" []))),
      root );
    ( "stall",
      defs (Proc.act (action [ (cpu, 1) ]) (Proc.act Action.idle Proc.nil)),
      root );
  ]

let check_against_reference name defs root (res : Versa.Explorer.result) =
  let states, rows = reference_bfs defs root in
  let lts = res.Versa.Explorer.lts in
  Alcotest.(check int)
    (name ^ ": states") (Array.length states) (Versa.Lts.num_states lts);
  Array.iteri
    (fun id t ->
      if Versa.Lts.term lts id <> t then
        Alcotest.failf "%s: state %d differs" name id;
      if Array.to_list (Versa.Lts.successors lts id) <> rows.(id) then
        Alcotest.failf "%s: row of state %d differs" name id)
    states;
  let deadlocks =
    List.filter (fun id -> rows.(id) = [])
      (List.init (Array.length rows) Fun.id)
  in
  Alcotest.(check (list int)) (name ^ ": deadlocks") deadlocks
    (Versa.Explorer.deadlocks res);
  Alcotest.(check bool)
    (name ^ ": verdict") (deadlocks = [])
    (Versa.Explorer.is_deadlock_free res)

let test_node_tables_per_exploration () =
  let explore (_, defs, root) =
    Versa.Explorer.check_deadlock ~engine:Versa.Explorer.Full
      ~stop_at_deadlock:false defs root
  in
  let models = two_meanings () in
  let sizes =
    List.map (fun (_, defs, root) -> fst (reference_bfs defs root)) models
  in
  Alcotest.(check bool) "the two meanings differ" true
    (List.nth sizes 0 <> List.nth sizes 1);
  let check runs =
    List.iter2
      (fun (name, defs, root) res ->
        check_against_reference name defs root res)
      models runs
  in
  (* back to back, in both orders *)
  check (List.map explore models);
  check (List.rev (List.map explore (List.rev models)));
  (* concurrently, one exploration per domain *)
  let other = Domain.spawn (fun () -> explore (List.nth models 1)) in
  let first = explore (List.nth models 0) in
  check [ first; Domain.join other ]

(* {1 Exploring with and without edges}

   [Lts.build ~edges:false] keeps no successor rows but must agree with
   [~edges:true] under the same config on everything else: visited-state
   and transition counts, truncation, deadlock ids, shortest
   counterexample paths, terms, the summary label and every non-timing
   [stats] field except [store_bytes].  Inputs include a budget-truncated
   run, five small schedulable and unschedulable models explored
   with early exit on and off, and a state with two steps to one
   successor, which a path must take by the first. *)

let two_steps_to_one_state () =
  let next = Proc.act (action [ (cpu, 1) ]) Proc.nil in
  ( Defs.empty,
    Proc.choice (Proc.send (lbl "b") next) (Proc.send (lbl "a") next) )

let agreement_inputs () =
  let models =
    [
      ("cruise", Gen.cruise_control ());
      ("cruise_overloaded", Gen.cruise_control ~overload:true ());
      ("crossover", Gen.periodic_system Gen.crossover_set);
      ("e6_four_threads", Gen.e6_model 4);
      ("e6_four_unsched", Gen.e6_unsched 4);
    ]
  in
  reference_models ()
  @ ( "two steps to one state",
      two_steps_to_one_state (),
      { Versa.Lts.default_config with stop_at_deadlock = false } )
    :: List.concat_map
      (fun (name, text) ->
        let tr = tr_of text in
        List.map
          (fun stop ->
            ( Fmt.str "%s stop_at_deadlock=%b" name stop,
              tr,
              { Versa.Lts.default_config with stop_at_deadlock = stop } ))
          [ true; false ])
      models

(* The [stats] fields that do not measure time or memory. *)
let stats_fingerprint (s : Versa.Lts.stats) =
  let open Versa.Lts in
  ( [
      s.num_states;
      s.num_transitions;
      s.num_deadlocks;
      s.peak_frontier;
      s.depth_levels;
      s.intern_hits;
      s.intern_misses;
      s.hashcons_nodes;
      s.slot_nodes;
      s.orbit_hits;
      s.orbit_misses;
    ],
    s.early_exit_depth,
    s.deadline_expired )

let check_edges_agree name (full : Versa.Lts.t) (compact : Versa.Lts.t) =
  Alcotest.(check bool) (name ^ ": edges kept") true
    (Versa.Lts.has_edges full);
  Alcotest.(check bool) (name ^ ": no edges") false
    (Versa.Lts.has_edges compact);
  Alcotest.(check int)
    (name ^ ": states") (Versa.Lts.num_states full)
    (Versa.Lts.num_states compact);
  Alcotest.(check int)
    (name ^ ": transitions")
    (Versa.Lts.num_transitions full)
    (Versa.Lts.num_transitions compact);
  Alcotest.(check bool)
    (name ^ ": truncated") (Versa.Lts.truncated full)
    (Versa.Lts.truncated compact);
  Alcotest.(check (list int))
    (name ^ ": deadlocks") (Versa.Lts.deadlocks full)
    (Versa.Lts.deadlocks compact);
  List.iter
    (fun d ->
      if Versa.Lts.path_to full d <> Versa.Lts.path_to compact d then
        Alcotest.failf "%s: shortest path to deadlock %d differs" name d)
    (Versa.Lts.deadlocks full);
  (* a path is recomputed, not stored: it must end at its state, take
     [depth] steps, and arrive at each state by the step of the first
     entry of its parent's kept row that reaches it, the entry whose
     intern discovered it *)
  List.iter
    (fun d ->
      let path = Versa.Lts.path_to compact d in
      if List.length path <> Versa.Lts.depth full d then
        Alcotest.failf "%s: path to %d is not %d steps" name d
          (Versa.Lts.depth full d);
      (match List.rev path with
      | [] when d <> 0 -> Alcotest.failf "%s: empty path to %d" name d
      | (_, last) :: _ when last <> d ->
          Alcotest.failf "%s: path to %d ends at %d" name d last
      | _ -> ());
      ignore
        (List.fold_left
           (fun parent (step, id) ->
             (match
                Array.find_opt
                  (fun (_, c) -> c = id)
                  (Versa.Lts.successors full parent)
              with
             | Some (first, _) when Step.equal first step -> ()
             | _ ->
                 Alcotest.failf
                   "%s: path to %d arrives at %d by another step than its \
                    discovering row entry"
                   name d id);
             id)
           0 path))
    (List.init (min 21 (Versa.Lts.num_states full)) Fun.id
    @ Versa.Lts.deadlocks full);
  for id = 0 to min 20 (Versa.Lts.num_states full - 1) do
    if Versa.Lts.term full id <> Versa.Lts.term compact id then
      Alcotest.failf "%s: term of state %d differs" name id;
    if Versa.Lts.depth full id <> Versa.Lts.depth compact id then
      Alcotest.failf "%s: depth of state %d differs" name id
  done;
  let full_summary = Fmt.str "%a" Versa.Lts.pp_summary full in
  Alcotest.(check string)
    (name ^ ": summary")
    (String.sub full_summary 0 (String.length full_summary - 1)
    ^ ", on-the-fly)")
    (Fmt.str "%a" Versa.Lts.pp_summary compact);
  if
    stats_fingerprint (Versa.Lts.stats full)
    <> stats_fingerprint (Versa.Lts.stats compact)
  then Alcotest.failf "%s: non-timing stats differ" name

let test_check_matches_build () =
  List.iter
    (fun (name, (defs, system), config) ->
      let full = Versa.Lts.build ~config defs system in
      let compact = Versa.Lts.build ~config ~edges:false defs system in
      check_edges_agree name full compact)
    (agreement_inputs ())

(* An exploration interns its terms and numbers its labels in tables of
   its own, so what it reports cannot depend on what the process explored
   before: model A, then 20 other models (thread names of their own),
   then A again give identical stats, interned node counts included. *)
let test_stats_independent_of_history () =
  let config = { Versa.Lts.default_config with stop_at_deadlock = false } in
  let explore (defs, system) =
    Versa.Lts.stats (Versa.Lts.build ~config ~edges:false defs system)
  in
  let a = tr_of (Gen.e6_model 4) in
  let first = explore a in
  for seed = 1 to 20 do
    ignore
      (explore
         (tr_of
            (Gen.periodic_system
               (List.map
                  (fun (s : Gen.periodic_spec) ->
                    { s with Gen.name = Fmt.str "h%d_%s" seed s.Gen.name })
                  (Gen.random_specs ~seed ~n:4 ~u:0.7)))))
  done;
  if stats_fingerprint first <> stats_fingerprint (explore a) then
    Alcotest.fail "the second exploration of one model reports other stats"

(* The summary says which stop fired: [early exit] only when
   [stop_at_deadlock] ended the run, [truncated] when the state budget
   did, even after deadlocks were found. *)
(* An exception from an expansion surfaces at the state that raised it.
   [X] is an unguarded definition, so expanding the state [X] raises:
   the exploration raises when it reaches that state, unwrapped, and
   not at all when a stop check ends the run first. *)
let test_expansion_exception_placement () =
  let defs = Defs.of_list [ ("X", [], Proc.call "X" []) ] in
  let x = Proc.call "X" [] in
  let ev l p = Proc.send (Label.make l) p in
  let explore ?(stop_at_deadlock = false) ?max_states root =
    let config =
      { Versa.Lts.default_config with stop_at_deadlock; max_states }
    in
    Versa.Lts.build ~config ~edges:false defs root
  in
  (* states: 0 root, 1 [e!.nil], 2 [d!.nil], 3 [X]; expanding 1 raises
     nothing, expanding 3 raises *)
  let deep =
    Proc.choice_list
      [ ev "a" (ev "e" Proc.nil); ev "b" (ev "d" Proc.nil); ev "c" x ]
  in
  Alcotest.check_raises "exhaustive run raises"
    (Semantics.Unguarded_recursion "X")
    (fun () -> ignore (explore deep));
  (* expanding state 1 discovers state 4, which exhausts a budget of 5
     before the loop reaches states 2 and 3 *)
  let budget = explore ~max_states:5 deep in
  Alcotest.(check bool)
    "budget stops before X" true
    (Versa.Lts.truncated budget && Versa.Lts.num_states budget = 5);
  (* state 1 [nil] deadlocks before the loop reaches state 2 [X] *)
  let early =
    explore ~stop_at_deadlock:true (Proc.choice (ev "a" Proc.nil) (ev "c" x))
  in
  Alcotest.(check (list int)) "early exit before X" [ 1 ]
    (Versa.Lts.deadlocks early)

let test_summary_labels () =
  let defs, system = tr_of (Gen.e6_unsched 4) in
  let check name ~stop ~max_states label =
    let config =
      {
        Versa.Lts.default_config with
        stop_at_deadlock = stop;
        max_states = Some max_states;
      }
    in
    let lts = Versa.Lts.build ~config ~edges:false defs system in
    Alcotest.(check bool) (name ^ ": deadlocks found") true
      (Versa.Lts.deadlocks lts <> []);
    Alcotest.(check string) name
      (Fmt.str "%d states, %d transitions%s (prioritized semantics, on-the-fly)"
         (Versa.Lts.num_states lts)
         (Versa.Lts.num_transitions lts)
         label)
      (Fmt.str "%a" Versa.Lts.pp_summary lts)
  in
  let all = Versa.Lts.num_states (Versa.Lts.build ~edges:false defs system) in
  check "early exit" ~stop:true ~max_states:(2 * all) " [early exit]";
  check "budget after deadlocks" ~stop:false ~max_states:(all / 2)
    " [truncated]";
  check "exhaustive" ~stop:false ~max_states:(2 * all) ""

(* {1 With and without edges on every example AADL model}

   [Explorer.check_deadlock] with [Full] and [On_the_fly] must report
   the same verdict, the same raised AADL scenario and — explored
   exhaustively — the same deadlocks, on every model shipped in
   examples/models. *)

let example_models_dir () =
  List.find_opt Sys.file_exists
    [ "../examples/models"; "examples/models" ]

let read_model dir file =
  let ic = open_in_bin (Filename.concat dir file) in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let test_example_models_agree () =
  match example_models_dir () with
  | None -> Alcotest.fail "examples/models not found (missing dune deps?)"
  | Some dir ->
      let models =
        Sys.readdir dir |> Array.to_list
        |> List.filter (fun f -> Filename.check_suffix f ".aadl")
        |> List.sort compare
      in
      Alcotest.(check bool) "found example models" true (models <> []);
      List.iter
        (fun file ->
          let root = Aadl.Instantiate.of_string (read_model dir file) in
          let tr = Translate.Pipeline.translate root in
          let run engine ~all =
            Versa.Explorer.check_deadlock ~engine ~max_states:300_000
              ~stop_at_deadlock:(not all)
              ~symmetry:tr.Translate.Pipeline.symmetry
              tr.Translate.Pipeline.defs tr.Translate.Pipeline.system
          in
          let describe (r : Versa.Explorer.result) =
            match r.Versa.Explorer.verdict with
            | Versa.Explorer.Deadlock_free -> "schedulable"
            | Versa.Explorer.Deadlock { state; trace } ->
                let scenario =
                  Analysis.Raise_trace.raise_trace
                    ~registry:tr.Translate.Pipeline.registry trace
                in
                Fmt.str "NOT schedulable at state %d: %a (steps %a)" state
                  Analysis.Raise_trace.pp scenario
                  Fmt.(list ~sep:semi Acsr.Step.pp)
                  (Versa.Trace.steps trace)
            | Versa.Explorer.Inconclusive why -> "inconclusive: " ^ why
          in
          let full = run Versa.Explorer.Full ~all:false in
          let otf = run Versa.Explorer.On_the_fly ~all:false in
          Alcotest.(check string)
            (file ^ ": verdict and scenario") (describe full) (describe otf);
          (* exhaustively: same violation states *)
          let full_x = run Versa.Explorer.Full ~all:true in
          let otf_x = run Versa.Explorer.On_the_fly ~all:true in
          Alcotest.(check (list int))
            (file ^ ": deadlock ids (exhaustive)")
            (Versa.Explorer.deadlocks full_x)
            (Versa.Explorer.deadlocks otf_x);
          Alcotest.(check int)
            (file ^ ": states (exhaustive)")
            (Versa.Explorer.num_states full_x)
            (Versa.Explorer.num_states otf_x))
        models

(* {1 Property-based tests} *)

(* A generator covering every [Proc] constructor except [Call] (the terms
   must stay closed under an empty environment): actions, events, choice,
   parallel, restriction, closure, guards and temporal scopes.  Events
   carry priorities, so synchronizations yield taus that preempt timed
   steps. *)
let gen_proc_full : Proc.t QCheck2.Gen.t =
  let open QCheck2.Gen in
  sized_size (int_range 0 6)
  @@ fix (fun self n ->
         if n = 0 then return Proc.nil
         else
           frequency
             [
               (2, return Proc.nil);
               ( 3,
                 let* p = self (n - 1) in
                 let* prio = int_range 0 2 in
                 return (Proc.act (action [ (cpu, prio) ]) p) );
               ( 2,
                 let* p = self (n - 1) in
                 return (Proc.act Action.idle p) );
               ( 2,
                 let* p = self (n - 1) in
                 let* l = oneofl [ "a"; "b" ] in
                 let* out = bool in
                 let* prio = int_range 0 2 in
                 let prio = e_int prio in
                 return
                   (if out then Proc.send ~prio (Label.make l) p
                    else Proc.receive ~prio (Label.make l) p) );
               ( 2,
                 let* p = self (n / 2) in
                 let* q = self (n / 2) in
                 return (Proc.choice p q) );
               ( 2,
                 let* p = self (n / 2) in
                 let* q = self (n / 2) in
                 return (Proc.par p q) );
               ( 1,
                 let* p = self (n - 1) in
                 let* l = oneofl [ "a"; "b" ] in
                 return (Proc.restrict (Label.set_of_list [ Label.make l ]) p)
               );
               ( 1,
                 let* p = self (n - 1) in
                 return (Proc.close (Resource.set_of_list [ cpu ]) p) );
               ( 1,
                 (* [Proc.If] directly: the [if_] smart constructor folds
                    constant guards away *)
                 let* p = self (n - 1) in
                 let* a = int_range 0 2 in
                 let* b = int_range 0 2 in
                 return (Proc.If (Guard.lt (e_int a) (e_int b), p)) );
               ( 1,
                 let* body = self (n / 2) in
                 let* timeout = self (n / 3) in
                 let* bound = int_range 0 3 in
                 let* with_exc = bool in
                 let* handler = self (n / 3) in
                 let* with_interrupt = bool in
                 let* intr = self (n / 3) in
                 return
                   (Proc.scope ~bound:(e_int bound)
                      ?exc:
                        (if with_exc then Some (Label.make "a", handler)
                         else None)
                      ?interrupt:(if with_interrupt then Some intr else None)
                      ~timeout body) );
             ])

let prop_roundtrip =
  QCheck2.Test.make ~name:"to_proc (of_proc p) = p" ~count:500 gen_proc_full
    (fun p -> Hproc.to_proc (Hproc.of_proc (Hproc.create ()) p) = p)

let prop_interning =
  QCheck2.Test.make ~name:"of_proc p == of_proc q iff p = q" ~count:500
    QCheck2.Gen.(pair gen_proc_full gen_proc_full)
    (fun (p, q) ->
      let terms = Hproc.create () in
      Hproc.equal (Hproc.of_proc terms p) (Hproc.of_proc terms q) = (p = q))

let prop_hash_respects_equality =
  QCheck2.Test.make ~name:"equal terms have equal memoized hashes" ~count:500
    QCheck2.Gen.(pair gen_proc_full gen_proc_full)
    (fun (p, q) ->
      let terms = Hproc.create () in
      p <> q
      || Hproc.hash (Hproc.of_proc terms p) = Hproc.hash (Hproc.of_proc terms q))

let prop_compare_structural_mirrors_stdlib =
  QCheck2.Test.make
    ~name:"compare_structural has the sign of Stdlib.compare" ~count:500
    QCheck2.Gen.(pair gen_proc_full gen_proc_full)
    (fun (p, q) ->
      let sign c = Stdlib.compare c 0 and terms = Hproc.create () in
      sign
        (Hproc.compare_structural (Hproc.of_proc terms p)
           (Hproc.of_proc terms q))
      = sign (Stdlib.compare p q))

(* An orbit reduction orders member terms kept in their representative's
   names as their real images compare; [compare_renamed] must give the
   order of the renamed terms without building them.  The renaming
   swaps the generator's two labels, and two definition names that head
   a choice, so it reverses their orders. *)
let prop_compare_renamed_mirrors_images =
  let swap =
    Symmetry.renaming
      ~labels:[ ("a", "b"); ("b", "a") ]
      ~calls:[ ("A", "B"); ("B", "A") ]
  in
  let gen_headed =
    QCheck2.Gen.(
      let* p = gen_proc_full and* call = oneofl [ None; Some "A"; Some "B" ] in
      return
        (match call with
        | None -> p
        | Some c -> Proc.choice (Proc.call c []) p))
  in
  QCheck2.Test.make
    ~name:"compare_renamed = compare_structural of the renamed terms"
    ~count:500
    QCheck2.Gen.(pair gen_headed gen_headed)
    (fun (p, q) ->
      let terms = Hproc.create () in
      let image p = Hproc.of_proc terms (Symmetry.apply_proc swap p) in
      Symmetry.compare_renamed swap (Hproc.of_proc terms p)
        (Hproc.of_proc terms q)
      = Hproc.compare_structural (image p) (image q))

(* The hash-consed engine returns, term for term, what the reference
   engine returns; the term is interned in the table of the cache the
   engine is given. *)
let engines_agree ?(prepare = ignore) ~name ~count ~reference ~hashconsed gen
    =
  QCheck2.Test.make ~name ~count gen (fun p ->
      let cache = Semantics.make_cache () in
      prepare (Semantics.terms cache);
      reference Defs.empty p
      = List.map
          (fun (s, h) -> (s, Hproc.to_proc h))
          (hashconsed ~cache Defs.empty
             (Hproc.of_proc (Semantics.terms cache) p)))

let prop_h_steps_agree =
  engines_agree ~name:"h_steps = steps (term for term)" ~count:300
    ~reference:Semantics.steps
    ~hashconsed:Semantics.h_steps
    gen_proc_full

let prop_h_prioritized_agree =
  engines_agree ~name:"h_prioritized = prioritized" ~count:300
    ~reference:Semantics.prioritized
    ~hashconsed:Semantics.h_prioritized
    gen_proc_full

(* System-shaped roots, the shape the successor kernel takes:
   [Restrict (L, tree)] over 2-6 random slots, the tree left-deep,
   right-deep or balanced.  Every slot draws its events from the labels
   [a] and [b], so non-adjacent slots synchronize; [L] is empty (a bare
   tree), [{a}] or [{a, b}].  Most slots also offer an event, a timed
   step and a tau of their own (from a Par inside the slot) at the top,
   so that a timed product, synchronizations and taus are often enabled
   together. *)
let gen_system : Proc.t QCheck2.Gen.t =
  let open QCheck2.Gen in
  let gen_slot i =
    let* p = gen_proc_full in
    let* event =
      option
        (let* l = oneofl [ "a"; "b" ] in
         let* out = bool in
         let* prio = int_range 0 1 in
         let* k = gen_proc_full in
         let prio = e_int prio in
         return
           (if out then Proc.send ~prio (Label.make l) k
            else Proc.receive ~prio (Label.make l) k))
    in
    (* on the shared cpu, or on a resource of the slot's own, so that
       timed products are often non-empty *)
    let* timed =
      option
        (let* prio = int_range 0 2 in
         let* r = oneofl [ cpu; Resource.make (Printf.sprintf "r%d" i) ] in
         let* k = gen_proc_full in
         return (Proc.act (action [ (r, prio) ]) k))
    in
    (* a Par inside the slot, which synchronizes into a slot-level tau;
       in a third of the slots only, since a tau of priority 1 preempts
       every timed step *)
    let* nested =
      frequency
        [
          (2, return None);
          ( 1,
            let* prio = int_range 0 1 in
            let* k = gen_proc_full in
            let c = Label.make "c" in
            return
              (Some
                 (Proc.restrict (Label.set_of_list [ c ])
                    (Proc.par
                       (Proc.send ~prio:(e_int prio) c k)
                       (Proc.receive c Proc.nil)))) );
        ]
    in
    return
      (List.fold_left Proc.choice p
         (List.filter_map Fun.id [ event; timed; nested ]))
  in
  let* n = int_range 2 6 in
  let* slots = flatten_l (List.init n gen_slot) in
  let* shape = oneofl [ `Left; `Right; `Balanced ] in
  let* restricted = oneofl [ []; [ "a" ]; [ "a"; "b" ] ] in
  let rec right = function
    | [ p ] -> p
    | p :: ps -> Proc.par p (right ps)
    | [] -> assert false
  in
  let rec balanced = function
    | [ p ] -> p
    | ps ->
        let k = List.length ps / 2 in
        Proc.par
          (balanced (List.filteri (fun i _ -> i < k) ps))
          (balanced (List.filteri (fun i _ -> i >= k) ps))
  in
  let tree =
    match shape with
    | `Left -> Proc.par_list slots
    | `Right -> right slots
    | `Balanced -> balanced slots
  in
  return
    (Proc.restrict (Label.set_of_list (List.map Label.make restricted)) tree)

let prop_kernel_steps_agree =
  engines_agree ~name:"system kernel: h_steps = steps" ~count:500
    ~reference:Semantics.steps
    ~hashconsed:Semantics.h_steps
    gen_system

let prop_kernel_prioritized_agree =
  engines_agree ~name:"system kernel: h_prioritized = prioritized"
    ~count:500 ~reference:Semantics.prioritized
    ~hashconsed:Semantics.h_prioritized
    gen_system

(* More label ids than an offer mask has bits ([Node.bit]).  Forty
   labels are numbered before the engine runs, so [l00]/[l32],
   [l01]/[l33] and [l02]/[l34] share a mask bit without being one label.
   Slots offer events on these six labels only, in both directions, so
   the kernel meets complementary offers on one label, which must pair,
   offers on two labels that share a bit, which must not, and offers on
   labels that share nothing. *)
let wide_labels = List.init 40 (fun i -> Label.make (Printf.sprintf "l%02d" i))

let number_wide_labels terms =
  List.iter (fun l -> ignore (Hproc.label_id terms l)) wide_labels;
  let bit name = Node.bit (Hproc.label_id terms (Label.make name)) in
  if bit "l00" <> bit "l32" || bit "l00" = bit "l01" then
    failwith "wide labels: l00 and l32 must share a mask bit, l01 not"

let gen_wide_system : Proc.t QCheck2.Gen.t =
  let open QCheck2.Gen in
  let pool =
    List.map Label.make [ "l00"; "l01"; "l02"; "l32"; "l33"; "l34" ]
  in
  let gen_offer =
    let* l = oneofl pool in
    let* out = bool in
    let* prio = map e_int (int_range 0 1) in
    let* k = frequency [ (1, return Proc.nil); (2, gen_proc_full) ] in
    return (if out then Proc.send ~prio l k else Proc.receive ~prio l k)
  in
  let gen_slot i =
    let* offers = list_size (int_range 1 3) gen_offer in
    let* timed =
      option
        (return
           (Proc.act
              (action [ (Resource.make (Printf.sprintf "r%d" i), 0) ])
              Proc.nil))
    in
    return (Proc.choice_list (offers @ Option.to_list timed))
  in
  let* n = int_range 2 6 in
  let* slots = flatten_l (List.init n gen_slot) in
  let* restricted = list_size (int_range 0 6) (oneofl pool) in
  return (Proc.restrict (Label.set_of_list restricted) (Proc.par_list slots))

let prop_wide_labels_steps_agree =
  engines_agree ~prepare:number_wide_labels
    ~name:"more labels than mask bits: h_steps = steps" ~count:500
    ~reference:Semantics.steps ~hashconsed:Semantics.h_steps gen_wide_system

let prop_wide_labels_prioritized_agree =
  engines_agree ~prepare:number_wide_labels
    ~name:"more labels than mask bits: h_prioritized = prioritized"
    ~count:500 ~reference:Semantics.prioritized
    ~hashconsed:Semantics.h_prioritized gen_wide_system

(* More resource ids than a resource mask has bits
   ([Node.resource_bit]).  Seventy resources are numbered before the
   engine runs, so [q00]/[q63], [q01]/[q64] and [q02]/[q65] share a mask
   bit without being one resource.  Timed steps claim one or two of
   these six, so the timed product meets actions that share a bit and a
   resource, which must not combine, and actions that share a bit only,
   which must.  Every slot offers on [x], the first three in: both
   directions, input only, output only; so each offer meets
   complementary offers in at least two other slots, earlier and
   later. *)
let by_resource (a, _) (b, _) = Resource.compare a b

let many_resources =
  List.init 70 (fun i -> Resource.make (Printf.sprintf "q%02d" i))

let number_many_resources terms =
  List.iter (fun r -> ignore (Hproc.resource_id terms r)) many_resources;
  let bit name =
    Node.resource_bit (Hproc.resource_id terms (Resource.make name))
  in
  if bit "q00" <> bit "q63" || bit "q00" = bit "q01" then
    failwith "many resources: q00 and q63 must share a mask bit, q01 not"

let gen_many_resources_system : Proc.t QCheck2.Gen.t =
  let open QCheck2.Gen in
  let pool =
    List.map Resource.make [ "q00"; "q01"; "q02"; "q63"; "q64"; "q65" ]
  in
  let x = Label.make "x" in
  let gen_cont = frequency [ (2, return Proc.nil); (1, gen_proc_full) ] in
  let gen_offer out =
    let* prio = map e_int (int_range 0 1) in
    let* k = gen_cont in
    return (if out then Proc.send ~prio x k else Proc.receive ~prio x k)
  in
  let gen_timed =
    let* claims =
      list_size (int_range 0 2) (pair (oneofl pool) (int_range 0 2))
    in
    let claims = List.sort_uniq by_resource claims in
    let* k = gen_cont in
    return (Proc.act (action claims) k)
  in
  let gen_slot i =
    let* dirs =
      match i with
      | 0 -> return [ true; false ]
      | 1 -> return [ false ]
      | 2 -> return [ true ]
      | _ -> oneofl [ [ true ]; [ false ]; [ true; false ]; [] ]
    in
    let* offers = flatten_l (List.map gen_offer dirs) in
    let* timed = list_size (int_range 1 3) gen_timed in
    return (Proc.choice_list (offers @ timed))
  in
  let* n = int_range 3 6 in
  let* slots = flatten_l (List.init n gen_slot) in
  let* restricted = bool in
  return
    (Proc.restrict
       (Label.set_of_list (if restricted then [ x ] else []))
       (Proc.par_list slots))

let prop_many_resources_steps_agree =
  engines_agree ~prepare:number_many_resources
    ~name:"more resources than mask bits: h_steps = steps" ~count:500
    ~reference:Semantics.steps ~hashconsed:Semantics.h_steps
    gen_many_resources_system

let prop_many_resources_prioritized_agree =
  engines_agree ~prepare:number_many_resources
    ~name:"more resources than mask bits: h_prioritized = prioritized"
    ~count:500 ~reference:Semantics.prioritized
    ~hashconsed:Semantics.h_prioritized gen_many_resources_system

(* {2 Memoized plans}

   [Semantics.successors] keeps the plan it selects for each vector of
   slot code ids and builds every later state with the same codes from
   that plan.  Every row a memoized exploration builds must be the row
   that a fresh cache, which has no plan to reuse, selects and builds
   for the same state: here, the prioritized steps of the state's real
   term on a fresh cache, term for term and in order.  The exploration
   runs breadth-first over the raw (uncanonicalized) states, up to
   [bound] of them, through the orbit reduction's views when [symmetry]
   is given. *)
let memo_agrees ?(prepare = ignore) ?(symmetry = Symmetry.empty)
    ?(bound = 120) defs root =
  let cache = Semantics.make_cache () in
  prepare (Semantics.terms cache);
  let nodes = Semantics.nodes cache in
  let frame, raw =
    Frame.split nodes (Hproc.of_proc (Semantics.terms cache) root)
  in
  let to_real v =
    let v = Array.copy v in
    if not (Symmetry.is_empty symmetry) then
      Symmetry.swap symmetry nodes frame v;
    v
  in
  (* the swap is its own inverse: it also takes the real root to the
     representative's names *)
  let root = to_real raw in
  let views =
    if Symmetry.is_empty symmetry then Semantics.no_views
    else Symmetry.views symmetry frame
  in
  let term v = Hproc.to_proc (Frame.materialize frame (to_real v)) in
  let next = Semantics.successors ~cache ~prioritize:true ~views defs frame in
  let seen = Hashtbl.create 64 and queue = Queue.create () in
  let visit v =
    let key = Array.map (fun (n : Node.t) -> n.id) v in
    if Hashtbl.length seen < bound && not (Hashtbl.mem seen key) then begin
      Hashtbl.add seen key ();
      Queue.add v queue
    end
  in
  visit root;
  let ok = ref true in
  while !ok && not (Queue.is_empty queue) do
    let v = Queue.pop queue in
    let rows = next v in
    let fresh = Semantics.make_cache () in
    prepare (Semantics.terms fresh);
    let expected =
      List.map
        (fun (s, h) -> (s, Hproc.to_proc h))
        (Semantics.h_prioritized ~cache:fresh defs
           (Hproc.of_proc (Semantics.terms fresh) (term v)))
    in
    ok := List.map (fun (s, w) -> (s, term w)) rows = expected;
    List.iter (fun (_, w) -> visit w) rows
  done;
  !ok

let prop_memo_systems =
  QCheck2.Test.make ~name:"memoized rows = fresh select+build (systems)"
    ~count:150 gen_system (fun p -> memo_agrees Defs.empty p)

let prop_memo_wide_labels =
  QCheck2.Test.make
    ~name:"memoized rows = fresh select+build (more labels than mask bits)"
    ~count:150 gen_wide_system (fun p ->
      memo_agrees ~prepare:number_wide_labels Defs.empty p)

let prop_memo_many_resources =
  QCheck2.Test.make
    ~name:
      "memoized rows = fresh select+build (more resources than mask bits)"
    ~count:150 gen_many_resources_system (fun p ->
      memo_agrees ~prepare:number_many_resources Defs.empty p)

(* Replicated families, explored through the orbit reduction's views:
   the members' slots hold their terms in the representative's names,
   so members in equal local states share code ids while their steps
   carry different real labels. *)
let prop_memo_symmetric =
  QCheck2.Test.make
    ~name:"memoized rows = fresh select+build (families, through views)"
    ~count:12
    QCheck2.Gen.(pair (int_range 2 5) (int_range 60 130))
    (fun (threads, u_pct) ->
      let utilization = float_of_int u_pct /. 100. in
      let tr =
        Translate.Pipeline.translate
          (Aadl.Instantiate.of_string
             (Gen.replicated_family ~threads ~utilization ()))
      in
      (not (Symmetry.is_empty tr.Translate.Pipeline.symmetry))
      && memo_agrees ~symmetry:tr.Translate.Pipeline.symmetry ~bound:200
           tr.Translate.Pipeline.defs tr.Translate.Pipeline.system)

(* [Step.compare] is written out; it must order steps as
   [Stdlib.compare] does, which the reference engine sorts by. *)
let gen_step : Step.t QCheck2.Gen.t =
  let open QCheck2.Gen in
  let gen_label = map Label.make (oneofl [ "a"; "b"; "ab"; "b0" ]) in
  let gen_prio = int_range (-1) 2 in
  oneof
    [
      (let* claims =
         list_size (int_range 0 3)
           (pair
              (map Resource.make (oneofl [ "cpu"; "bus"; "cpu2"; "c" ]))
              gen_prio)
       in
       return
         (Step.Action
            (List.sort_uniq by_resource claims)));
      (let* l = gen_label in
       let* d = oneofl [ Event.In; Event.Out ] in
       let* p = gen_prio in
       return (Step.Event (l, d, p)));
      (let* l = option gen_label in
       let* p = gen_prio in
       return (Step.Tau (l, p)));
    ]

let prop_step_compare =
  QCheck2.Test.make ~name:"Step.compare has the sign of Stdlib.compare"
    ~count:2000 (QCheck2.Gen.pair gen_step gen_step) (fun (a, b) ->
      Int.compare (Step.compare a b) 0 = Int.compare (Stdlib.compare a b) 0)

let prop_check_agrees_with_build =
  QCheck2.Test.make ~name:"check = build on random terms" ~count:50
    gen_proc_full (fun p ->
      let lts = Versa.Lts.build Defs.empty p in
      let c = Versa.Lts.build ~edges:false Defs.empty p in
      Versa.Lts.num_states lts = Versa.Lts.num_states c
      && Versa.Lts.num_transitions lts = Versa.Lts.num_transitions c
      && Versa.Lts.deadlocks lts = Versa.Lts.deadlocks c
      && List.for_all
           (fun d -> Versa.Lts.path_to lts d = Versa.Lts.path_to c d)
           (Versa.Lts.deadlocks lts))

let prop_check_early_exit_sound =
  (* with [stop_at_deadlock] the checker may stop early, but any deadlock
     it reports must be the first one of the exhaustive exploration *)
  QCheck2.Test.make ~name:"early-exit deadlock = first exhaustive deadlock"
    ~count:50 gen_proc_full (fun p ->
      let stop =
        { Versa.Lts.default_config with stop_at_deadlock = true }
      in
      let c = Versa.Lts.build ~config:stop ~edges:false Defs.empty p in
      let lts = Versa.Lts.build Defs.empty p in
      match (Versa.Lts.deadlocks c, Versa.Lts.deadlocks lts) with
      | [], [] -> true
      | d :: _, d' :: _ ->
          d = d' && Versa.Lts.path_to c d = Versa.Lts.path_to lts d'
      | [], _ :: _ | _ :: _, [] -> false)

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_roundtrip;
      prop_interning;
      prop_hash_respects_equality;
      prop_compare_structural_mirrors_stdlib;
      prop_compare_renamed_mirrors_images;
      prop_h_steps_agree;
      prop_h_prioritized_agree;
      prop_kernel_steps_agree;
      prop_kernel_prioritized_agree;
      prop_wide_labels_steps_agree;
      prop_wide_labels_prioritized_agree;
      prop_many_resources_steps_agree;
      prop_many_resources_prioritized_agree;
      prop_step_compare;
      prop_check_agrees_with_build;
      prop_check_early_exit_sound;
      prop_memo_systems;
      prop_memo_wide_labels;
      prop_memo_many_resources;
      prop_memo_symmetric;
    ]

(* {1 The visited set} *)

(* Vectors whose hashes agree in their low 12 bits share a probe
   sequence in every table of up to 4,096 slots, so interning them walks
   collision clusters; filler vectors, interleaved with them, take the
   table through two growths, and every growth re-places the colliding
   ids by their cached hashes. *)
let test_visited_collisions_and_growth () =
  let cache = Semantics.make_cache () in
  let terms = Semantics.terms cache in
  let pool =
    Array.init 16 (fun i ->
        Node.get (Semantics.nodes cache)
          (Hproc.of_proc terms
             (Proc.act
                (action [ (Resource.make (Printf.sprintf "r%d" i), 0) ])
                Proc.nil)))
  in
  let vectors =
    List.init 65536 (fun k ->
        Array.init 4 (fun s -> pool.((k lsr (4 * s)) land 15)))
  in
  let classes = Hashtbl.create 4096 in
  List.iter
    (fun v ->
      let low = Frame.hash v land 4095 in
      Hashtbl.replace classes low
        (v :: Option.value ~default:[] (Hashtbl.find_opt classes low)))
    vectors;
  let colliding =
    Hashtbl.fold
      (fun _ vs best -> if List.length vs > List.length best then vs else best)
      classes []
  in
  let c = List.length colliding in
  Alcotest.(check bool) "a class of at least 16 colliding vectors" true (c >= 16);
  let fillers =
    List.filteri (fun i _ -> i < 3000)
      (List.filter (fun v -> not (List.memq v colliding)) vectors)
  in
  (* one colliding vector every [3000 / c] fillers *)
  let gap = 3000 / c in
  let order =
    List.concat
      (List.mapi
         (fun i v ->
           v :: List.filteri (fun j _ -> j >= i * gap && j < (i + 1) * gap)
                  fillers)
         colliding)
    @ List.filteri (fun j _ -> j >= c * gap) fillers
  in
  let t = Versa.Visited.create (Semantics.nodes cache) ~width:4 in
  let initial = Versa.Visited.capacity t in
  List.iteri
    (fun i v ->
      Alcotest.(check int) "new vectors get dense ids in discovery order" i
        (Versa.Visited.intern t v))
    order;
  let n = List.length order in
  Alcotest.(check int) "every vector interned once" (c + 3000) n;
  Alcotest.(check int) "length" n (Versa.Visited.length t);
  Alcotest.(check bool) "grew at least twice" true
    (Versa.Visited.capacity t >= 4 * initial);
  Alcotest.(check bool) "at most half full" true
    (2 * n <= Versa.Visited.capacity t);
  List.iteri
    (fun i v ->
      Alcotest.(check int) "an equal vector finds its id" i
        (Versa.Visited.intern t (Array.copy v));
      Alcotest.(check bool) "the id holds its vector" true
        (Frame.equal v (Versa.Visited.get t i)))
    order;
  Alcotest.(check int) "re-interning adds nothing" n (Versa.Visited.length t);
  (* [Hashtbl.hash] reads only the first ten arguments of a call, so
     these two slot terms hash alike, and two vectors that differ only
     in their last slot collide on the whole hash: the arena's compare
     of node ids must still tell them apart *)
  let twin k =
    let call =
      Proc.call "P" (List.init 12 (fun i -> e_int (if i = 11 then k else i)))
    in
    Array.init 4 (fun s ->
        if s < 3 then pool.(s)
        else Node.get (Semantics.nodes cache) (Hproc.of_proc terms call))
  in
  Alcotest.(check bool) "the twins differ" false
    (Frame.equal (twin 0) (twin 1));
  Alcotest.(check int) "the twins hash alike" (Frame.hash (twin 0))
    (Frame.hash (twin 1));
  Alcotest.(check int) "a twin gets the next id" n
    (Versa.Visited.intern t (twin 0));
  Alcotest.(check int) "its colliding twin gets its own id" (n + 1)
    (Versa.Visited.intern t (twin 1));
  Alcotest.(check int) "and each finds its own again" n
    (Versa.Visited.intern t (twin 0))

(* {1 Pinned explorations}

   An expansion reads its state's vector from the ring of vectors kept
   at discovery, or decodes it from the arena when the ring was full;
   the arena, the hashes and the parent ids sit in fixed-size chunks.
   These runs pin what an exploration computes, with and without
   edges, on models that exercise both: a raw 12-thread family and an
   unschedulable raw 9-thread one, whose peak frontiers (5,544 and
   5,840 states) exceed the ring, and [e6_unsched 6], whose 31,537
   states cross many chunk edges.  Each pin holds the state and
   transition counts, the BFS levels, the deadlock ids (their count,
   first, last and digest) and, per traced state, the length and
   digest of its [path_to] trace; a family without deadlocks has some
   of its states traced instead.  The values were computed by the store
   that decoded every expanded state from a doubling arena. *)

type pin = {
  states : int;
  transitions : int;
  levels : int;
  deadlocks : int * int * int * string;  (* count, first, last, digest *)
  traces : (int * int * string) list;  (* id, path length, digest *)
}

let digest_of text = Digest.to_hex (Digest.string text)

let pin_of lts ids =
  let s = Versa.Lts.stats lts and d = Versa.Lts.deadlocks lts in
  let trace id =
    let path = Versa.Lts.path_to lts id in
    ( id,
      List.length path,
      digest_of
        (Fmt.str "%a" Fmt.(list ~sep:semi (pair ~sep:comma Step.pp int)) path)
    )
  in
  {
    states = s.Versa.Lts.num_states;
    transitions = s.Versa.Lts.num_transitions;
    levels = s.Versa.Lts.depth_levels;
    deadlocks =
      ( List.length d,
        (match d with [] -> -1 | id :: _ -> id),
        List.fold_left (fun _ id -> id) (-1) d,
        digest_of (String.concat "," (List.map string_of_int d)) );
    traces = List.map trace ids;
  }

let pp_pin ppf p =
  let n, first, last, digest = p.deadlocks in
  Fmt.pf ppf
    "{ states = %d; transitions = %d; levels = %d;@ deadlocks = (%d, %d, %d, \
     %S);@ traces = [ %a ] }"
    p.states p.transitions p.levels n first last digest
    Fmt.(
      list ~sep:semi (fun ppf (id, len, d) -> pf ppf "(%d, %d, %S)" id len d))
    p.traces

let check_pinned name ?(peak_above = 0) text ~traced expected =
  let defs, system = tr_of text in
  let config = { Versa.Lts.default_config with stop_at_deadlock = false } in
  List.iter
    (fun edges ->
      let lts = Versa.Lts.build ~config ~edges defs system in
      let s = Versa.Lts.stats lts in
      if s.Versa.Lts.peak_frontier <= peak_above then
        Alcotest.failf "%s: peak frontier %d, not above %d" name
          s.Versa.Lts.peak_frontier peak_above;
      let got = pin_of lts (traced lts) in
      if got <> expected then
        Alcotest.failf "%s (edges %b):@ got %a" name edges pp_pin got)
    [ true; false ]

(* the first, a third, the middle and the last of the deadlocks, or
   of the states when there is no deadlock *)
let some_deadlocks lts =
  let ids =
    match Versa.Lts.deadlocks lts with
    | [] -> List.init (Versa.Lts.num_states lts) Fun.id
    | d -> d
  in
  let n = List.length ids in
  List.sort_uniq compare (List.map (List.nth ids) [ 0; n / 3; n / 2; n - 1 ])

let test_wide_frontier () =
  check_pinned "12-thread family, raw" ~peak_above:4096
    (Gen.replicated_family ~threads:12 ~utilization:0.96 ())
    ~traced:some_deadlocks
    {
      states = 36862;
      transitions = 98305;
      levels = 49;
      deadlocks = (0, -1, -1, "d41d8cd98f00b204e9800998ecf8427e");
      traces =
        [
          (0, 0, "d41d8cd98f00b204e9800998ecf8427e");
          (12287, 22, "f5b51278ee6937f5de50b36ed89f1058");
          (18431, 24, "4145b5315e02556ab75fb4eaed82e593");
          (36861, 48, "0aa562717eef5892950a85ec7ff9a75b");
        ];
    };
  check_pinned "unschedulable 9-thread family, raw" ~peak_above:4096
    (Gen.replicated_family ~threads:9 ~utilization:1.3 ())
    ~traced:some_deadlocks
    {
      states = 23684;
      transitions = 87138;
      levels = 31;
      deadlocks = (36, 23648, 23683, "0d3307a3c16dd917d3c04787fb0a5480");
      traces =
        [
          (23648, 30, "73b3b05cc1b195737c9d8787e16cef8c");
          (23660, 30, "48a753507eefa7d9bab967c218c5ad0b");
          (23666, 30, "6ec602323f3db831f7d8d6f386c93b8e");
          (23683, 30, "e080233c785e81d1fa89e7966c56ab21");
        ];
    }

let test_chunk_edges () =
  check_pinned "e6_unsched 6" (Gen.e6_unsched 6) ~traced:some_deadlocks
    {
      states = 31537;
      transitions = 52775;
      levels = 2184;
      deadlocks = (741, 141, 31528, "6f1902b9f67ce20f3abaada347500215");
      traces =
        [
          (141, 21, "61b11618ac17dda3a16929bbe5fa4afe");
          (10599, 748, "f8953277a0601a1177a7519d8e0e0c80");
          (15828, 1115, "de158cfb8a5541c5f66b61130efdfdbc");
          (31528, 2182, "f997e058af80e099cfbc77fee487016b");
        ];
    }

(* {1 Wall-clock budgets and cooperative cancellation} *)

let test_deadline_budget_truncates () =
  let defs, system = tr_of (Gen.cruise_control ()) in
  let expired =
    {
      Versa.Lts.default_config with
      stop_at_deadlock = false;
      deadline = Some (Timed.Clock.gettimeofday () -. 1.);
    }
  in
  (* an already-expired budget: with or without edges the run must
     truncate at the first merge step and flag it in the stats, never
     hang *)
  let lts = Versa.Lts.build ~config:expired defs system in
  Alcotest.(check bool) "build truncated" true (Versa.Lts.truncated lts);
  Alcotest.(check bool)
    "build stats flag" true
    (Versa.Lts.stats lts).Versa.Lts.deadline_expired;
  let c = Versa.Lts.build ~config:expired ~edges:false defs system in
  Alcotest.(check bool) "check truncated" true (Versa.Lts.truncated c);
  Alcotest.(check bool)
    "check stats flag" true
    (Versa.Lts.stats c).Versa.Lts.deadline_expired;
  (* a generous budget must not perturb the exploration *)
  let roomy =
    {
      Versa.Lts.default_config with
      stop_at_deadlock = false;
      deadline = Some (Timed.Clock.gettimeofday () +. 3600.);
    }
  in
  let full = Versa.Lts.build ~config:roomy defs system in
  Alcotest.(check bool) "roomy not truncated" false (Versa.Lts.truncated full);
  Alcotest.(check bool)
    "roomy flag clear" false
    (Versa.Lts.stats full).Versa.Lts.deadline_expired

(* A second-precision budget on the virtual clock: with every clock
   observation costing 10 virtual ms, a 1 s deadline expires after
   exactly 100 observations.  The exploration observes the clock once
   per expansion, to check the deadline, so that is partway through
   [cruise_control]'s 164 states — the truncation point is
   deterministic, and the whole test runs in wall-clock
   milliseconds. *)
let test_virtual_deadline_is_deterministic () =
  let defs, system = tr_of (Gen.cruise_control ()) in
  let explore () =
    let sim = Timed.Sim.create ~auto_advance:0.01 () in
    Timed.Sim.with_clock sim @@ fun () ->
    let config =
      {
        Versa.Lts.default_config with
        stop_at_deadlock = false;
        deadline = Some (Timed.Clock.gettimeofday () +. 1.);
      }
    in
    let c = Versa.Lts.build ~config ~edges:false defs system in
    ( Versa.Lts.truncated c,
      (Versa.Lts.stats c).Versa.Lts.deadline_expired,
      Versa.Lts.num_states c )
  in
  let t0 = Timed.Clock.now Timed.Clock.real in
  let truncated, expired, states = explore () in
  let truncated', expired', states' = explore () in
  let wall = Timed.Clock.now Timed.Clock.real -. t0 in
  Alcotest.(check bool) "virtual deadline truncates" true truncated;
  Alcotest.(check bool) "flagged as a deadline" true expired;
  Alcotest.(check bool) "replay truncates too" true truncated';
  Alcotest.(check bool) "replay flag" true expired';
  Alcotest.(check int) "identical truncation point" states states';
  Alcotest.(check bool) "states were explored before expiry" true (states > 0);
  Alcotest.(check bool) "2x 1s of virtual budget in real ms" true (wall < 2.0)

(* An exploration reads the ambient clock a fixed number of times per
   run, for its wall time, plus once before every expansion when a
   deadline is set, to check it, and at no other point per state: a
   per-state read would cost every run, and would move a virtual
   deadline's expiry.  Under a simulator whose every observation
   advances virtual time by one second, the virtual time a run consumes
   is its number of reads.  Without a trace the loop does not split
   successor computation from interning, so [expand_s] and [merge_s]
   read 0; with one it times expansions on the real clock, so a trace
   adds only its span's reads to a run, whatever its size.  An orbit
   reduction times its canonicalizations on the real clock too, so a
   symmetric run reads the ambient clock as often as any other. *)
let test_clock_reads_per_run () =
  let config = { Versa.Lts.default_config with stop_at_deadlock = false } in
  let explore ?(traced = false) ?deadline text =
    let tr = Translate.Pipeline.translate (Aadl.Instantiate.of_string text) in
    let sim = Timed.Sim.create ~auto_advance:1. () in
    Timed.Sim.with_clock sim @@ fun () ->
    if traced then Obs.Trace.start ();
    let before = Timed.Sim.now sim in
    let lts =
      Versa.Lts.build ~config:{ config with deadline }
        ~symmetry:tr.Translate.Pipeline.symmetry ~edges:false
        tr.Translate.Pipeline.defs tr.Translate.Pipeline.system
    in
    let reads = int_of_float (Timed.Sim.now sim -. before) in
    if traced then Obs.Trace.stop ();
    (lts, reads)
  in
  let small, small_reads = explore (Gen.cruise_control ()) in
  let large, large_reads = explore (Gen.e6_model 5) in
  Alcotest.(check bool) "models of different sizes" true
    (Versa.Lts.num_states small <> Versa.Lts.num_states large);
  Alcotest.(check int) "reads per run, whatever the size" small_reads
    large_reads;
  Alcotest.(check int) "two reads per run" 2 small_reads;
  let span_reads =
    List.map
      (fun (text, lts) ->
        let timed, reads = explore ~deadline:1e12 text in
        Alcotest.(check bool) "a far deadline does not truncate" false
          (Versa.Lts.truncated timed);
        Alcotest.(check int) "one more read per expansion with a deadline"
          (small_reads + Versa.Lts.num_states lts)
          reads;
        let s = Versa.Lts.stats lts in
        Alcotest.(check (float 0.)) "untraced expand_s" 0. s.Versa.Lts.expand_s;
        Alcotest.(check (float 0.)) "untraced merge_s" 0. s.Versa.Lts.merge_s;
        let traced, traced_reads = explore ~traced:true ~deadline:1e12 text in
        Alcotest.(check int) "a trace explores the same states"
          (Versa.Lts.num_states lts)
          (Versa.Lts.num_states traced);
        (traced, traced_reads - reads))
      [ (Gen.cruise_control (), small); (Gen.e6_model 5, large) ]
  in
  (match span_reads with
  | [ (_, small_extra); (traced_large, large_extra) ] ->
      Alcotest.(check int) "a trace adds as many reads to a small run as to \
        a large one" small_extra large_extra;
      Alcotest.(check bool) "traced expand_s" true
        ((Versa.Lts.stats traced_large).Versa.Lts.expand_s > 0.)
  | _ -> assert false);
  let family = Gen.replicated_family ~threads:4 ~utilization:0.9 () in
  let sym, sym_reads = explore family in
  let s = Versa.Lts.stats sym in
  Alcotest.(check bool) "the family is explored reduced" true
    (s.Versa.Lts.orbit_hits > 0);
  Alcotest.(check int) "two reads per symmetric run" 2 sym_reads;
  let timed, reads = explore ~deadline:1e12 family in
  Alcotest.(check int) "a far deadline explores the same states"
    (Versa.Lts.num_states sym) (Versa.Lts.num_states timed);
  Alcotest.(check int)
    "one more read per expansion of a symmetric run with a deadline"
    (sym_reads + Versa.Lts.num_states sym)
    reads

let test_poll_cancels () =
  let defs, system = tr_of (Gen.cruise_control ()) in
  let config =
    {
      Versa.Lts.default_config with
      stop_at_deadlock = false;
      poll = Some (fun () -> true);
    }
  in
  let lts = Versa.Lts.build ~config defs system in
  Alcotest.(check bool) "cancelled build truncated" true
    (Versa.Lts.truncated lts);
  Alcotest.(check bool)
    "cancellation is not a deadline" false
    (Versa.Lts.stats lts).Versa.Lts.deadline_expired;
  let c = Versa.Lts.build ~config ~edges:false defs system in
  Alcotest.(check bool) "cancelled check truncated" true
    (Versa.Lts.truncated c)

let () =
  Alcotest.run "explore"
    [
      ( "engines",
        [
          Alcotest.test_case "agree on reachable states" `Quick
            test_engines_agree_on_reachable_states;
          Alcotest.test_case "nodes interned per state" `Quick
            test_nodes_per_state;
          Alcotest.test_case "minor words per state" `Quick
            test_allocation_per_state;
          Alcotest.test_case "node tables belong to one exploration" `Quick
            test_node_tables_per_exploration;
          Alcotest.test_case "stats independent of earlier explorations"
            `Quick test_stats_independent_of_history;
          Alcotest.test_case "promoted words per state" `Quick
            test_promoted_per_state;
          Alcotest.test_case "store bytes per state" `Quick
            test_store_bytes_per_state;
          Alcotest.test_case "plan hits per expansion" `Quick test_plan_hits;
          Alcotest.test_case "timed preemption cases" `Quick
            test_timed_preemption_cases;
        ] );
      ( "on-the-fly",
        [
          Alcotest.test_case "check matches build" `Quick
            test_check_matches_build;
          Alcotest.test_case "exception surfaces at its state" `Quick
            test_expansion_exception_placement;
          Alcotest.test_case "summary names the stop" `Quick
            test_summary_labels;
          Alcotest.test_case "engines agree on example models" `Slow
            test_example_models_agree;
        ] );
      ( "budgets",
        [
          Alcotest.test_case "deadline truncates" `Quick
            test_deadline_budget_truncates;
          Alcotest.test_case "virtual deadline is deterministic" `Quick
            test_virtual_deadline_is_deterministic;
          Alcotest.test_case "poll cancels" `Quick test_poll_cancels;
          Alcotest.test_case "clock reads per run" `Quick
            test_clock_reads_per_run;
        ] );
      ( "visited",
        [
          Alcotest.test_case "collisions and growth" `Quick
            test_visited_collisions_and_growth;
        ] );
      ( "store",
        [
          Alcotest.test_case "wide frontier" `Quick test_wide_frontier;
          Alcotest.test_case "chunk edges" `Quick test_chunk_edges;
        ] );
      ("properties", qcheck_cases);
    ]
