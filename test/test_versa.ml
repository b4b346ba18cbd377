(* Tests for the VERSA substrate: LTS construction, deadlock detection with
   diagnostic traces, trace timelines, and bisimulation reduction.  Includes
   the Figure 3 composition of the paper (Simple || SimpleDriver). *)

open Acsr

let cpu = Resource.make "cpu"
let bus = Resource.make "bus"

let e_int n = Expr.Int n

let action accesses =
  Action.of_list (List.map (fun (r, p) -> (r, e_int p)) accesses)

(* Simple = {(cpu,1)} : {(cpu,1),(bus,1)} : done!.Simple *)
let simple_defs =
  Defs.of_list
    [
      ( "Simple",
        [],
        Proc.(
          act
            (action [ (cpu, 1) ])
            (act
               (action [ (cpu, 1); (bus, 1) ])
               (send (Label.make "done") (call "Simple" [])))) );
    ]

(* {1 LTS construction} *)

let test_lts_simple_cycle () =
  let lts = Versa.Lts.build simple_defs (Proc.call "Simple" []) in
  Alcotest.(check int) "three states" 3 (Versa.Lts.num_states lts);
  Alcotest.(check int) "three transitions" 3 (Versa.Lts.num_transitions lts);
  Alcotest.(check bool) "not truncated" false (Versa.Lts.truncated lts);
  Alcotest.(check (list int)) "no deadlocks" [] (Versa.Lts.deadlocks lts)

let test_lts_deadlock_and_path () =
  let p = Proc.(act (action [ (cpu, 1) ]) (act (action [ (cpu, 1) ]) nil)) in
  let lts = Versa.Lts.build Defs.empty p in
  Alcotest.(check int) "three states" 3 (Versa.Lts.num_states lts);
  (match Versa.Lts.deadlocks lts with
  | [ d ] ->
      Alcotest.(check int) "deadlock at depth 2" 2 (Versa.Lts.depth lts d);
      let path = Versa.Lts.path_to lts d in
      Alcotest.(check int) "path length 2" 2 (List.length path)
  | _ -> Alcotest.fail "expected exactly one deadlock")

let test_lts_max_states_truncates () =
  (* Counter(n) = {} : Counter(n+1) — infinite state space. *)
  let defs =
    Defs.of_list
      [
        ( "Counter",
          [ "n" ],
          Proc.(
            act Action.idle
              (call "Counter" [ Expr.Add (Expr.Var "n", Expr.Int 1) ])) );
      ]
  in
  let config =
    {
      Versa.Lts.default_config with
      max_states = Some 50;
      stop_at_deadlock = false;
    }
  in
  let lts = Versa.Lts.build ~config defs (Proc.call "Counter" [ e_int 0 ]) in
  Alcotest.(check bool) "truncated" true (Versa.Lts.truncated lts);
  Alcotest.(check bool) "around 50 states" true
    (Versa.Lts.num_states lts >= 50 && Versa.Lts.num_states lts <= 52);
  Alcotest.(check (list int)) "frontier states are not deadlocks" []
    (Versa.Lts.deadlocks lts)

let test_lts_unprioritized_larger () =
  (* Under prioritized semantics the high-priority contender suppresses the
     low-priority one, so the unprioritized LTS has at least as many
     transitions. *)
  let contender prio =
    Proc.(choice (act (action [ (cpu, prio) ]) nil) (act Action.idle nil))
  in
  let p = Proc.par (contender 2) (contender 1) in
  let pr = Versa.Lts.build ~semantics:Versa.Lts.Prioritized Defs.empty p in
  let un = Versa.Lts.build ~semantics:Versa.Lts.Unprioritized Defs.empty p in
  Alcotest.(check bool) "unprioritized has more transitions" true
    (Versa.Lts.num_transitions un > Versa.Lts.num_transitions pr)

(* {1 Explorer verdicts} *)

let test_explorer_deadlock_free () =
  let r = Versa.Explorer.check_deadlock simple_defs (Proc.call "Simple" []) in
  Alcotest.(check bool) "deadlock free" true (Versa.Explorer.is_deadlock_free r)

let test_explorer_finds_shortest_counterexample () =
  (* A choice between a short and a long path to deadlock: BFS must report
     the short one. *)
  let tick p = Proc.act Action.idle p in
  let p = Proc.(choice (tick nil) (tick (tick (tick nil)))) in
  let r =
    Versa.Explorer.check_deadlock ~stop_at_deadlock:false Defs.empty p
  in
  match r.Versa.Explorer.verdict with
  | Versa.Explorer.Deadlock { trace; _ } ->
      Alcotest.(check int) "shortest trace" 1 (Versa.Trace.length trace)
  | _ -> Alcotest.fail "expected a deadlock"

let test_explorer_stop_at_deadlock_truncates () =
  let tick p = Proc.act Action.idle p in
  let p = Proc.(choice (tick nil) (tick (tick (tick nil)))) in
  let r = Versa.Explorer.check_deadlock ~stop_at_deadlock:true Defs.empty p in
  match r.Versa.Explorer.verdict with
  | Versa.Explorer.Deadlock _ -> ()
  | _ -> Alcotest.fail "expected a deadlock even when stopping early"

(* {1 Figure 3: Simple || SimpleDriver} *)

(* The driver of Fig. 3: its first action uses bus at priority 2 but is
   disjoint from Simple's first step; its second action preempts Simple's
   cpu+bus step for one quantum; afterwards it either forces an interrupt
   or keeps preempting, driving Simple into its exception alternative. *)
let fig3_defs =
  let interrupt = Label.make "interrupt" in
  let done_l = Label.make "done" in
  let exc = Label.make "exception" in
  (* Simple', as in Fig. 3: first iteration as Fig. 2, second iteration
     within a scope with exception and interrupt exits. *)
  let compute_body =
    Proc.(
      choice
        (act
           (action [ (cpu, 1) ])
           (act (action [ (cpu, 1); (bus, 1) ]) (send done_l nil)))
        (act Action.idle (send exc nil)))
  in
  let simple' =
    Proc.scope
      ~exc:(exc, Proc.send (Label.make "exception_handled") Proc.nil)
      ~interrupt:
        (Proc.receive interrupt
           (Proc.send (Label.make "interrupt_handled") Proc.nil))
      compute_body
  in
  let simple =
    Proc.(
      act
        (action [ (cpu, 1) ])
        (act (action [ (cpu, 1); (bus, 1) ]) (send done_l simple')))
  in
  let driver =
    Proc.(
      act
        (action [ (bus, 2) ])
        (act
           (action [ (bus, 2) ])
           (receive done_l
              (choice
                 (act (action [ (bus, 2) ]) (send interrupt nil))
                 (act (action [ (bus, 2) ]) (act (action [ (bus, 2) ]) nil))))))
  in
  let system =
    Proc.restrict
      (Label.Set.of_list [ done_l; interrupt ])
      (Proc.par simple driver)
  in
  (Defs.empty, system)

let test_fig3_bus_preemption () =
  let defs, system = fig3_defs in
  (* quantum 0: {(cpu,1)} and {(bus,2)} are disjoint and proceed together *)
  match Semantics.prioritized defs system with
  | [ (Step.Action a, s1) ] ->
      Alcotest.(check int) "cpu used" 1 (Action.Ground.priority_of a cpu);
      Alcotest.(check int) "bus at driver priority" 2
        (Action.Ground.priority_of a bus);
      (* quantum 1: Simple wants {(cpu,1),(bus,1)} but the driver claims
         {(bus,2)}: resource conflict — Simple cannot run this quantum.
         With no idling alternative in this reduced model, the composition
         deadlocks... unless Simple's step waits.  Here the driver's bus
         access excludes Simple's, so no joint step exists. *)
      Alcotest.(check bool) "second quantum blocks Simple" true
        (Semantics.prioritized defs s1 = [])
  | _ -> Alcotest.fail "expected one joint first step"

let test_fig3_full_exploration () =
  let defs, system = fig3_defs in
  let lts = Versa.Lts.build defs system in
  Alcotest.(check bool) "has states" true (Versa.Lts.num_states lts > 1)

(* {1 Trace timelines} *)

let test_trace_duration_counts_ticks () =
  let a = Label.make "a" in
  let p =
    Proc.(
      send a (act (action [ (cpu, 1) ]) (act (action [ (cpu, 1) ]) nil)))
  in
  let lts = Versa.Lts.build Defs.empty p in
  match Versa.Lts.deadlocks lts with
  | [ d ] ->
      let trace = Versa.Trace.to_deadlock lts d in
      Alcotest.(check int) "three steps" 3 (Versa.Trace.length trace);
      Alcotest.(check int) "two quanta" 2 (Versa.Trace.duration trace);
      let quanta = Versa.Trace.quanta trace in
      Alcotest.(check int) "two groups" 2 (List.length quanta);
      (match quanta with
      | q0 :: _ ->
          Alcotest.(check int) "first group at t=0" 0 q0.Versa.Trace.at_time;
          Alcotest.(check int) "event then tick" 1
            (List.length q0.Versa.Trace.instant)
      | [] -> Alcotest.fail "no quanta")
  | _ -> Alcotest.fail "expected one deadlock"

(* {1 Bisimulation} *)

let test_bisim_collapses_duplicate_branches () =
  (* a!.NIL + a!.NIL explored unprioritized has duplicate structure that
     quotients to the same blocks as a!.NIL. *)
  let p1 = Proc.(choice (send (Label.make "a") nil) (send (Label.make "a") nil)) in
  let p2 = Proc.send (Label.make "a") Proc.nil in
  let l1 = Versa.Lts.build Defs.empty p1 in
  let l2 = Versa.Lts.build Defs.empty p2 in
  Alcotest.(check bool) "bisimilar" true (Versa.Bisim.equivalent l1 l2);
  let q = Versa.Bisim.quotient l1 in
  Alcotest.(check int) "two blocks" 2 q.Versa.Bisim.num_states

let test_bisim_distinguishes_labels () =
  let p1 = Proc.send (Label.make "a") Proc.nil in
  let p2 = Proc.send (Label.make "b") Proc.nil in
  let l1 = Versa.Lts.build Defs.empty p1 in
  let l2 = Versa.Lts.build Defs.empty p2 in
  Alcotest.(check bool) "not bisimilar" false (Versa.Bisim.equivalent l1 l2)

let test_bisim_quotient_preserves_deadlock () =
  let p =
    Proc.(
      choice
        (act (action [ (cpu, 1) ]) nil)
        (act (action [ (cpu, 1) ]) (act (action [ (cpu, 1) ]) nil)))
  in
  let lts = Versa.Lts.build ~semantics:Versa.Lts.Unprioritized Defs.empty p in
  let q = Versa.Bisim.quotient lts in
  let has_deadlock_block =
    Array.exists (fun row -> row = []) q.Versa.Bisim.edges
  in
  Alcotest.(check bool) "deadlock block exists" true has_deadlock_block;
  Alcotest.(check bool) "fewer or equal states" true
    (q.Versa.Bisim.num_states <= Versa.Lts.num_states lts)

(* {1 Weak bisimulation} *)

let test_weak_abstracts_internal_steps () =
  (* a! reached through an internal synchronization ~weak~ a! directly *)
  let b = Label.make "b" in
  let a = Label.make "a" in
  let with_tau =
    Proc.(
      restrict (Label.set_of_list [ b ])
        (par (send b (send a nil)) (receive b nil)))
  in
  let direct = Proc.send a (Proc.par Proc.nil Proc.nil) in
  let l1 = Versa.Lts.build Defs.empty with_tau in
  let l2 = Versa.Lts.build Defs.empty direct in
  Alcotest.(check bool) "not strongly bisimilar" false
    (Versa.Bisim.equivalent l1 l2);
  Alcotest.(check bool) "weakly bisimilar" true
    (Versa.Bisim.Weak.equivalent l1 l2)

let test_weak_distinguishes_observables () =
  let l1 = Versa.Lts.build Defs.empty (Proc.send (Label.make "a") Proc.nil) in
  let l2 = Versa.Lts.build Defs.empty (Proc.send (Label.make "b") Proc.nil) in
  Alcotest.(check bool) "different labels stay apart" false
    (Versa.Bisim.Weak.equivalent l1 l2)

let test_weak_refine_no_larger_than_strong () =
  let p =
    Proc.(
      choice
        (send (Label.make "a") nil)
        (restrict (Label.set_of_list [ Label.make "c" ])
           (par (send (Label.make "c") (send (Label.make "a") nil))
              (receive (Label.make "c") nil))))
  in
  let lts = Versa.Lts.build Defs.empty p in
  let strong = Versa.Bisim.refine lts in
  let weak = Versa.Bisim.Weak.refine lts in
  Alcotest.(check bool) "weak partition is coarser or equal" true
    (weak.Versa.Bisim.num_blocks <= strong.Versa.Bisim.num_blocks)

(* {1 DOT export} *)

let test_dot_export () =
  let p = Proc.(act (action [ (cpu, 1) ]) nil) in
  let lts = Versa.Lts.build Defs.empty p in
  let dot = Versa.Dot.to_string ~show_terms:true lts in
  let contains sub =
    let n = String.length dot and m = String.length sub in
    let rec go i = i + m <= n && (String.sub dot i m = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "digraph" true (contains "digraph lts");
  Alcotest.(check bool) "initial arrow" true (contains "init -> s0");
  Alcotest.(check bool) "deadlock highlighted" true (contains "doublecircle");
  Alcotest.(check bool) "edge labeled with the action" true
    (contains "{(cpu,1)}")

(* {1 Property-based tests} *)

(* Random guarded process generator over a tiny alphabet; depth-bounded so
   the state space is finite. *)
let gen_proc : Proc.t QCheck2.Gen.t =
  let open QCheck2.Gen in
  sized_size (int_range 0 5) @@ fix (fun self n ->
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
              return
                (if out then Proc.send (Label.make l) p
                 else Proc.receive (Label.make l) p) );
            ( 2,
              let* p = self (n / 2) in
              let* q = self (n / 2) in
              return (Proc.choice p q) );
            ( 1,
              let* p = self (n / 2) in
              let* q = self (n / 2) in
              return (Proc.par p q) );
          ])

let prop_prioritized_subset_of_steps =
  QCheck2.Test.make ~name:"prioritized steps are a subset" ~count:200 gen_proc
    (fun p ->
      let all = Semantics.steps Defs.empty p in
      let pr = Semantics.prioritized Defs.empty p in
      List.for_all (fun s -> List.mem s all) pr)

let prop_prioritized_nonempty_when_steps =
  QCheck2.Test.make ~name:"prioritization never empties a state" ~count:200
    gen_proc (fun p ->
      let all = Semantics.steps Defs.empty p in
      all = [] || Semantics.prioritized Defs.empty p <> [])

let prop_lts_deterministic =
  QCheck2.Test.make ~name:"exploration is deterministic" ~count:100 gen_proc
    (fun p ->
      let l1 = Versa.Lts.build Defs.empty p in
      let l2 = Versa.Lts.build Defs.empty p in
      Versa.Lts.num_states l1 = Versa.Lts.num_states l2
      && Versa.Lts.num_transitions l1 = Versa.Lts.num_transitions l2)

let prop_quotient_no_larger =
  QCheck2.Test.make ~name:"bisimulation quotient is no larger" ~count:100
    gen_proc (fun p ->
      let lts = Versa.Lts.build Defs.empty p in
      let q = Versa.Bisim.quotient lts in
      q.Versa.Bisim.num_states <= Versa.Lts.num_states lts)

(* {2 Algebraic laws, checked up to strong bisimilarity} *)

let lts_of p = Versa.Lts.build ~semantics:Versa.Lts.Unprioritized Defs.empty p

let prop_par_commutative =
  QCheck2.Test.make ~name:"P || Q ~ Q || P" ~count:100
    QCheck2.Gen.(pair gen_proc gen_proc)
    (fun (p, q) ->
      Versa.Bisim.equivalent (lts_of (Proc.Par (p, q))) (lts_of (Proc.Par (q, p))))

let prop_choice_commutative =
  QCheck2.Test.make ~name:"P + Q ~ Q + P" ~count:100
    QCheck2.Gen.(pair gen_proc gen_proc)
    (fun (p, q) ->
      Versa.Bisim.equivalent
        (lts_of (Proc.Choice (p, q)))
        (lts_of (Proc.Choice (q, p))))

let prop_choice_idempotent =
  QCheck2.Test.make ~name:"P + P ~ P" ~count:100 gen_proc (fun p ->
      Versa.Bisim.equivalent (lts_of (Proc.Choice (p, p))) (lts_of p))

let prop_choice_associative =
  QCheck2.Test.make ~name:"(P + Q) + R ~ P + (Q + R)" ~count:60
    QCheck2.Gen.(triple gen_proc gen_proc gen_proc)
    (fun (p, q, r) ->
      Versa.Bisim.equivalent
        (lts_of (Proc.Choice (Proc.Choice (p, q), r)))
        (lts_of (Proc.Choice (p, Proc.Choice (q, r)))))

let prop_par_associative =
  QCheck2.Test.make ~name:"(P || Q) || R ~ P || (Q || R)" ~count:40
    QCheck2.Gen.(triple gen_proc gen_proc gen_proc)
    (fun (p, q, r) ->
      Versa.Bisim.equivalent
        (lts_of (Proc.Par (Proc.Par (p, q), r)))
        (lts_of (Proc.Par (p, Proc.Par (q, r)))))

let prop_restrict_union =
  QCheck2.Test.make ~name:"(P\\F)\\G ~ P\\(F u G)" ~count:100 gen_proc
    (fun p ->
      let f = Label.set_of_list [ Label.make "a" ] in
      let g = Label.set_of_list [ Label.make "b" ] in
      let fg = Label.set_of_list [ Label.make "a"; Label.make "b" ] in
      Versa.Bisim.equivalent
        (lts_of (Proc.Restrict (g, Proc.Restrict (f, p))))
        (lts_of (Proc.Restrict (fg, p))))

let prop_self_bisimilar =
  QCheck2.Test.make ~name:"every LTS is bisimilar to itself" ~count:100
    gen_proc (fun p ->
      let lts = Versa.Lts.build Defs.empty p in
      Versa.Bisim.equivalent lts lts)

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_prioritized_subset_of_steps;
      prop_prioritized_nonempty_when_steps;
      prop_lts_deterministic;
      prop_quotient_no_larger;
      prop_par_commutative;
      prop_choice_commutative;
      prop_choice_idempotent;
      prop_choice_associative;
      prop_par_associative;
      prop_restrict_union;
      prop_self_bisimilar;
    ]

(* {1 Pool failure attribution}

   [Pool.run] reports a failure on a worker domain as [Worker_error]
   with that worker's index and re-raises a failure on the calling
   domain unwrapped.  Each case makes exactly one side raise: the other
   side holds its batch index until the raise has happened, so the
   caller cannot drain the whole batch alone and the worker cannot
   finish it early. *)

exception Boom

let test_pool_worker_attribution () =
  let pool = Versa.Pool.create 1 in
  let caller = Domain.self () in
  let raised = Atomic.make false in
  (match
     Versa.Pool.run pool 2 (fun _ ->
         if Domain.self () = caller then
           while not (Atomic.get raised) do
             Domain.cpu_relax ()
           done
         else begin
           Atomic.set raised true;
           raise Boom
         end)
   with
  | () -> Alcotest.fail "expected Worker_error from the worker domain"
  | exception Versa.Pool.Worker_error { index; error = Boom } ->
      Alcotest.(check int) "raising worker's index" 0 index);
  Versa.Pool.shutdown pool

let test_pool_caller_unwrapped () =
  let pool = Versa.Pool.create 1 in
  let caller = Domain.self () in
  let raised = Atomic.make false in
  (match
     Versa.Pool.run pool 2 (fun _ ->
         if Domain.self () = caller then begin
           Atomic.set raised true;
           raise Boom
         end
         else
           while not (Atomic.get raised) do
             Domain.cpu_relax ()
           done)
   with
  | () -> Alcotest.fail "expected Boom from the calling domain"
  | exception Boom -> ());
  Versa.Pool.shutdown pool

let () =
  Alcotest.run "versa"
    [
      ( "lts",
        [
          Alcotest.test_case "simple cycle" `Quick test_lts_simple_cycle;
          Alcotest.test_case "deadlock and path" `Quick
            test_lts_deadlock_and_path;
          Alcotest.test_case "max_states truncates" `Quick
            test_lts_max_states_truncates;
          Alcotest.test_case "unprioritized larger" `Quick
            test_lts_unprioritized_larger;
        ] );
      ( "explorer",
        [
          Alcotest.test_case "deadlock free" `Quick test_explorer_deadlock_free;
          Alcotest.test_case "shortest counterexample" `Quick
            test_explorer_finds_shortest_counterexample;
          Alcotest.test_case "stop at deadlock" `Quick
            test_explorer_stop_at_deadlock_truncates;
        ] );
      ( "fig3",
        [
          Alcotest.test_case "bus preemption" `Quick test_fig3_bus_preemption;
          Alcotest.test_case "full exploration" `Quick
            test_fig3_full_exploration;
        ] );
      ( "trace",
        [
          Alcotest.test_case "duration counts ticks" `Quick
            test_trace_duration_counts_ticks;
        ] );
      ( "weak bisim",
        [
          Alcotest.test_case "abstracts internal steps" `Quick
            test_weak_abstracts_internal_steps;
          Alcotest.test_case "distinguishes observables" `Quick
            test_weak_distinguishes_observables;
          Alcotest.test_case "coarser than strong" `Quick
            test_weak_refine_no_larger_than_strong;
        ] );
      ( "dot",
        [ Alcotest.test_case "export" `Quick test_dot_export ] );
      ( "pool",
        [
          Alcotest.test_case "worker failure attribution" `Quick
            test_pool_worker_attribution;
          Alcotest.test_case "caller failure unwrapped" `Quick
            test_pool_caller_unwrapped;
        ] );
      ( "bisim",
        [
          Alcotest.test_case "collapses duplicates" `Quick
            test_bisim_collapses_duplicate_branches;
          Alcotest.test_case "distinguishes labels" `Quick
            test_bisim_distinguishes_labels;
          Alcotest.test_case "preserves deadlock" `Quick
            test_bisim_quotient_preserves_deadlock;
        ] );
      ("properties", qcheck_cases);
    ]
