(* Tests for the AADL-to-ACSR translation: workload extraction, priority
   assignment policies, thread skeletons (Fig. 5), dispatchers (Fig. 6),
   queue processes (Section 4.4) and whole-model translation (Algorithm 1,
   checked against the paper's own count for the cruise-control model). *)

open Translate

let quantum = Aadl.Time.of_ms 1

let workload_of text =
  Workload.extract ~quantum (Aadl.Instantiate.of_string text)

let light = Gen.periodic_system Gen.light_set
let crossover = Gen.periodic_system Gen.crossover_set

(* {1 Workload extraction} *)

let test_workload_basic () =
  let wl = workload_of light in
  Alcotest.(check int) "two tasks" 2 (List.length wl.Workload.tasks);
  let t1 = Option.get (Workload.find_task wl [ "t1_i" ]) in
  Alcotest.(check (option int)) "period 4 quanta" (Some 4) t1.Workload.period;
  Alcotest.(check int) "cmax 1" 1 t1.Workload.cmax;
  Alcotest.(check int) "deadline 4" 4 t1.Workload.deadline;
  Alcotest.(check (list string)) "bound" [ "cpu1" ] t1.Workload.processor

let test_workload_rounding () =
  (* cet rounds up, period/deadline round down *)
  let text =
    Gen.periodic_system
      [
        {
          Gen.name = "t1";
          period_ms = 7;
          cet_min_ms = 3;
          cet_max_ms = 3;
          deadline_ms = 7;
        };
      ]
  in
  let wl =
    Workload.extract ~quantum:(Aadl.Time.of_ms 2)
      (Aadl.Instantiate.of_string text)
  in
  let t1 = List.hd wl.Workload.tasks in
  Alcotest.(check int) "cet 3ms -> 2 quanta (up)" 2 t1.Workload.cmax;
  Alcotest.(check (option int)) "period 7ms -> 3 quanta (down)" (Some 3)
    t1.Workload.period;
  Alcotest.(check int) "deadline 7ms -> 3 quanta (down)" 3 t1.Workload.deadline

let test_workload_rejects_infeasible () =
  let text =
    Gen.periodic_system
      [
        {
          Gen.name = "t1";
          period_ms = 4;
          cet_min_ms = 3;
          cet_max_ms = 3;
          deadline_ms = 2;
        };
      ]
  in
  Alcotest.(check bool) "cmax > deadline rejected" true
    (try
       ignore (workload_of text);
       false
     with Aadl.Diag.Error _ -> true)

let test_workload_utilization () =
  let wl = workload_of crossover in
  let u = Workload.utilization wl.Workload.tasks in
  Alcotest.(check bool) "U ~ 0.971" true (abs_float (u -. 0.9714) < 0.001)

let test_suggest_quantum () =
  let root = Aadl.Instantiate.of_string (Gen.cruise_control ()) in
  let q = Workload.suggest_quantum root in
  Alcotest.(check int) "gcd of 100/50/10/20 ms" 10_000_000 (Aadl.Time.to_ns q)

(* {1 Priority assignment} *)

let tasks_of text = (workload_of text).Workload.tasks

let static_prio assignments name =
  let a =
    List.find
      (fun (a : Sched_policy.assignment) ->
        a.Sched_policy.task.Workload.path = [ name ])
      assignments
  in
  match a.Sched_policy.cpu_priority with
  | Acsr.Expr.Int n -> n
  | e -> Alcotest.fail (Fmt.str "expected static priority, got %a" Acsr.Expr.pp e)

let test_rm_ordering () =
  let assignments = Sched_policy.rate_monotonic (tasks_of crossover) in
  Alcotest.(check bool) "shorter period higher priority" true
    (static_prio assignments "t1_i" > static_prio assignments "t2_i")

let test_dm_ordering () =
  let text =
    Gen.periodic_system
      [
        {
          Gen.name = "t1";
          period_ms = 10;
          cet_min_ms = 1;
          cet_max_ms = 1;
          deadline_ms = 3;
        };
        {
          Gen.name = "t2";
          period_ms = 5;
          cet_min_ms = 1;
          cet_max_ms = 1;
          deadline_ms = 5;
        };
      ]
  in
  let assignments = Sched_policy.deadline_monotonic (tasks_of text) in
  Alcotest.(check bool) "shorter deadline wins despite longer period" true
    (static_prio assignments "t1_i" > static_prio assignments "t2_i")

let test_static_priorities_distinct () =
  let specs =
    List.init 5 (fun i ->
        Gen.simple_spec
          ~name:(Printf.sprintf "t%d" (i + 1))
          ~period_ms:10 ~cet_ms:1 ())
  in
  let assignments =
    Sched_policy.rate_monotonic (tasks_of (Gen.periodic_system specs))
  in
  let prios =
    List.map
      (fun (a : Sched_policy.assignment) ->
        match a.Sched_policy.cpu_priority with
        | Acsr.Expr.Int n -> n
        | _ -> -1)
      assignments
  in
  Alcotest.(check int) "all distinct" 5
    (List.length (List.sort_uniq Int.compare prios))

let test_edf_expression () =
  let assignments = Sched_policy.edf (tasks_of crossover) in
  (* t1: d=5, dmax=7 -> base 3; t2: d=7 -> base 1 *)
  let expr_of name =
    (List.find
       (fun (a : Sched_policy.assignment) ->
         a.Sched_policy.task.Workload.path = [ name ])
       assignments)
      .Sched_policy.cpu_priority
  in
  let eval name t =
    Acsr.Expr.eval
      Acsr.Expr.Env.(empty |> add "t" t |> add "e" 0)
      (expr_of name)
  in
  Alcotest.(check int) "t1 at t=0" 3 (eval "t1_i" 0);
  Alcotest.(check int) "t2 at t=0" 1 (eval "t2_i" 0);
  (* as t2's deadline approaches, it overtakes a fresh t1 dispatch *)
  Alcotest.(check bool) "t2 overtakes at t=3" true (eval "t2_i" 3 > eval "t1_i" 0);
  Alcotest.(check bool) "priorities stay positive" true (eval "t2_i" 0 >= 1)

let test_llf_expression () =
  let assignments = Sched_policy.llf (tasks_of crossover) in
  let expr_of name =
    (List.find
       (fun (a : Sched_policy.assignment) ->
         a.Sched_policy.task.Workload.path = [ name ])
       assignments)
      .Sched_policy.cpu_priority
  in
  let eval name t e =
    Acsr.Expr.eval
      Acsr.Expr.Env.(empty |> add "t" t |> add "e" e)
      (expr_of name)
  in
  (* laxity of t2 at dispatch: 7 - 4 = 3; executing reduces priority growth *)
  let at_dispatch = eval "t2_i" 0 0 in
  let after_preemption = eval "t2_i" 2 0 in
  let after_execution = eval "t2_i" 2 2 in
  Alcotest.(check bool) "preemption raises priority" true
    (after_preemption > at_dispatch);
  Alcotest.(check bool) "execution keeps laxity constant" true
    (after_execution = at_dispatch)

(* {1 Hierarchical scheduling (extension, paper Section 7)} *)

let hier_assignments text =
  let root = Aadl.Instantiate.of_string text in
  let tr = Pipeline.translate root in
  List.concat_map snd tr.Pipeline.assignments

let eval_prio env_t env_e e =
  Acsr.Expr.eval Acsr.Expr.Env.(empty |> add "t" env_t |> add "e" env_e) e

let test_hierarchical_banding () =
  let assignments = hier_assignments (Gen.hierarchical_system ()) in
  let prio_of name =
    (List.find
       (fun (a : Sched_policy.assignment) ->
         a.Sched_policy.task.Workload.path = name)
       assignments)
      .Sched_policy.cpu_priority
  in
  (* every critical priority exceeds every best-effort value, for any
     parameter valuation within bounds (t <= deadline 8) *)
  let crit_min =
    min (eval_prio 0 0 (prio_of [ "crit"; "h1" ]))
      (eval_prio 0 0 (prio_of [ "crit"; "h2" ]))
  in
  let be_max =
    max
      (eval_prio 8 0 (prio_of [ "bg"; "be1" ]))
      (eval_prio 8 0 (prio_of [ "bg"; "be2" ]))
  in
  Alcotest.(check bool) "critical band strictly above" true (crit_min > be_max);
  (* within the critical group, RM ordering: h1 (period 4) above h2 *)
  Alcotest.(check bool) "local RM order" true
    (eval_prio 0 0 (prio_of [ "crit"; "h1" ])
    > eval_prio 0 0 (prio_of [ "crit"; "h2" ]))

let test_hierarchical_verdicts () =
  let ok =
    Analysis.Schedulability.analyze
      (Aadl.Instantiate.of_string (Gen.hierarchical_system ()))
  in
  Alcotest.(check bool) "critical on top: schedulable" true
    (Analysis.Schedulability.is_schedulable ok);
  let flipped =
    Analysis.Schedulability.analyze
      (Aadl.Instantiate.of_string
         (Gen.hierarchical_system ~critical_rank:1 ~besteffort_rank:10 ()))
  in
  Alcotest.(check bool) "best-effort on top: starves h1" false
    (Analysis.Schedulability.is_schedulable flipped)

let test_local_bounds () =
  let tasks = tasks_of (Gen.periodic_system Gen.crossover_set) in
  Alcotest.(check int) "static bound = member count" 2
    (Sched_policy.local_bound Aadl.Props.Rate_monotonic tasks);
  Alcotest.(check int) "edf bound = dmax + 1" 8
    (Sched_policy.local_bound Aadl.Props.Edf tasks);
  Alcotest.(check int) "llf bound = dmax + cmax + 1" 12
    (Sched_policy.local_bound Aadl.Props.Llf tasks)

let test_flat_assign_rejects_hierarchical () =
  let tasks = tasks_of (Gen.periodic_system Gen.light_set) in
  Alcotest.(check bool) "assign raises" true
    (try
       ignore (Sched_policy.assign Aadl.Props.Hierarchical tasks);
       false
     with Aadl.Diag.Error _ -> true)

(* {1 Skeleton structure (Fig. 5)} *)

let skeleton_for text name =
  let wl = workload_of text in
  let task = Option.get (Workload.find_task wl [ name ]) in
  let registry = Naming.create_registry () in
  Skeleton.generate ~completion_probes:[] ~registry ~task
    ~cpu_priority:(Acsr.Expr.Int 1) ()

let test_skeleton_defs () =
  let sk = skeleton_for light "t1_i" in
  Alcotest.(check int) "await/compute/emit" 3 (List.length sk.Skeleton.defs);
  let names = List.map (fun (n, _, _) -> n) sk.Skeleton.defs in
  Alcotest.(check bool) "compute def present" true
    (List.mem "Th_t1_i_compute" names)

let test_skeleton_compute_params () =
  let sk = skeleton_for light "t1_i" in
  let _, formals, _ =
    List.find (fun (n, _, _) -> n = "Th_t1_i_compute") sk.Skeleton.defs
  in
  Alcotest.(check (list string)) "parameters e and t" [ "e"; "t" ] formals

let test_skeleton_behaviour () =
  (* cet = 2: dispatch, two computing quanta, completion event *)
  let text =
    Gen.periodic_system [ Gen.simple_spec ~name:"t1" ~period_ms:6 ~cet_ms:2 () ]
  in
  let sk = skeleton_for text "t1_i" in
  let defs =
    List.fold_left
      (fun env (name, formals, body) -> Acsr.Defs.add env ~name ~formals body)
      Acsr.Defs.empty sk.Skeleton.defs
  in
  (* drive the skeleton manually: dispatch then compute *)
  let steps p = Acsr.Semantics.steps defs p in
  let initial = sk.Skeleton.initial in
  let after_dispatch =
    List.find_map
      (fun (s, p) ->
        match s with
        | Acsr.Step.Event (l, Acsr.Event.In, _)
          when Acsr.Label.equal l sk.Skeleton.dispatch ->
            Some p
        | _ -> None)
      (steps initial)
    |> Option.get
  in
  (* first quantum: computing (continue) or preempted-idle *)
  let computing =
    List.filter_map
      (fun (s, p) ->
        match s with
        | Acsr.Step.Action a when not (Acsr.Action.Ground.is_idle a) -> Some p
        | _ -> None)
      (steps after_dispatch)
  in
  Alcotest.(check int) "one computing continuation at e=0" 1
    (List.length computing);
  (* second quantum: the completing step leads to emit *)
  let second = steps (List.hd computing) in
  let to_emit =
    List.exists
      (fun (s, p) ->
        match (s, p) with
        | Acsr.Step.Action a, Acsr.Proc.Call (n, [])
          when not (Acsr.Action.Ground.is_idle a) ->
            n = "Th_t1_i_emit"
        | _ -> false)
      second
  in
  Alcotest.(check bool) "completing step reaches emit" true to_emit

let test_skeleton_nondeterministic_cet () =
  (* cet range [1,2]: after the first computing quantum both "continue"
     and "complete" must be offered *)
  let text =
    Gen.periodic_system
      [
        {
          Gen.name = "t1";
          period_ms = 6;
          cet_min_ms = 1;
          cet_max_ms = 2;
          deadline_ms = 6;
        };
      ]
  in
  let sk = skeleton_for text "t1_i" in
  let defs =
    List.fold_left
      (fun env (name, formals, body) -> Acsr.Defs.add env ~name ~formals body)
      Acsr.Defs.empty sk.Skeleton.defs
  in
  let after_dispatch =
    Acsr.Defs.instantiate defs "Th_t1_i_compute" [ 0; 0 ]
  in
  let timed =
    List.filter
      (fun (s, _) ->
        match s with
        | Acsr.Step.Action a -> not (Acsr.Action.Ground.is_idle a)
        | _ -> false)
      (Acsr.Semantics.steps defs after_dispatch)
  in
  Alcotest.(check int) "continue and complete both offered" 2
    (List.length timed)

(* {1 Dispatcher semantics at the ACSR level} *)

(* In any reachable path, two dispatches of a sporadic thread are
   separated by at least its minimum separation. *)
let test_sporadic_min_separation () =
  let root = Aadl.Instantiate.of_string (Gen.event_driven ()) in
  let tr = Pipeline.translate root in
  let lts = Versa.Lts.build tr.Pipeline.defs tr.Pipeline.system in
  let dispatch_label = Acsr.Label.name (Naming.dispatch_label [ "handler" ]) in
  let is_handler_dispatch (step : Acsr.Step.t) =
    match step with
    | Acsr.Step.Tau (Some l, _) -> Acsr.Label.name l = dispatch_label
    | _ -> false
  in
  (* DFS over the LTS carrying the time since the last handler dispatch
     (capped to avoid unboundedness); visited on (state, capped time) *)
  let minsep = 4 (* quanta: handler Period => 4 ms at 1 ms quantum *) in
  let cap = minsep + 1 in
  let visited = Hashtbl.create 1024 in
  let violations = ref 0 in
  let rec dfs state since =
    let key = (state, since) in
    if not (Hashtbl.mem visited key) then begin
      Hashtbl.add visited key ();
      Array.iter
        (fun (step, target) ->
          if is_handler_dispatch step then begin
            if since < minsep then incr violations;
            dfs target 0
          end
          else if Acsr.Step.is_timed step then
            dfs target (min cap (since + 1))
          else dfs target since)
        (Versa.Lts.successors lts state)
    end
  in
  dfs (Versa.Lts.initial lts) cap;
  Alcotest.(check int) "no dispatch before the minimum separation" 0
    !violations

(* Urgency arbitrates between two ready queues: the dispatcher consumes
   the higher-urgency connection first. *)
let test_urgency_arbitration () =
  let text =
    {|
processor cpu
properties
  Scheduling_Protocol => RATE_MONOTONIC_PROTOCOL;
end cpu;
device src_a
features
  p: out event port;
properties
  Period => 8 ms;
end src_a;
device src_b
features
  p: out event port;
properties
  Period => 8 ms;
end src_b;
thread worker
features
  hi: in event port { Urgency => 5; };
  lo: in event port { Urgency => 2; };
properties
  Dispatch_Protocol => Aperiodic;
  Compute_Execution_Time => 1 ms;
  Compute_Deadline => 8 ms;
end worker;
system s
end s;
system implementation s.impl
subcomponents
  cpu1: processor cpu;
  a: device src_a;
  b: device src_b;
  w: thread worker;
connections
  c1: port a.p -> w.hi { Urgency => 5; };
  c2: port b.p -> w.lo { Urgency => 2; };
properties
  Actual_Processor_Binding => reference (cpu1) applies to w;
end s.impl;
|}
  in
  let root = Aadl.Instantiate.of_string text in
  let tr = Pipeline.translate root in
  let lts = Versa.Lts.build tr.Pipeline.defs tr.Pipeline.system in
  (* find a state where both dequeue taus are enabled: the low-urgency one
     must be preempted (absent) whenever the high-urgency one is offered *)
  let deq_prio (step : Acsr.Step.t) =
    match step with
    | Acsr.Step.Tau (Some l, p) ->
        let n = Acsr.Label.name l in
        let has_suffix suffix =
          let ls = String.length suffix and ln = String.length n in
          ln >= ls && String.sub n (ln - ls) ls = suffix
        in
        if has_suffix "_hi_deq" then Some (`Hi, p)
        else if has_suffix "_lo_deq" then Some (`Lo, p)
        else None
    | _ -> None
  in
  let saw_hi = ref false and coexistence = ref 0 in
  for s = 0 to Versa.Lts.num_states lts - 1 do
    let steps =
      Array.to_list (Versa.Lts.successors lts s)
      |> List.filter_map (fun (st, _) -> deq_prio st)
    in
    let his = List.filter (fun (k, _) -> k = `Hi) steps in
    let los = List.filter (fun (k, _) -> k = `Lo) steps in
    if his <> [] then saw_hi := true;
    if his <> [] && los <> [] then incr coexistence
  done;
  Alcotest.(check bool) "high-urgency dequeues occur" true !saw_hi;
  Alcotest.(check int)
    "low urgency never offered alongside high urgency" 0 !coexistence

(* {1 Whole-model translation} *)

let test_cruise_control_counts () =
  (* The paper (Section 4.1): "the translation produces six ACSR processes
     that represent threads and six ACSR processes that represent
     dispatchers ... no queue processes are introduced." *)
  let root = Aadl.Instantiate.of_string (Gen.cruise_control ()) in
  let tr = Pipeline.translate root in
  Alcotest.(check int) "six thread processes" 6 tr.Pipeline.num_thread_processes;
  Alcotest.(check int) "six dispatchers" 6 tr.Pipeline.num_dispatchers;
  Alcotest.(check int) "no queues" 0 tr.Pipeline.num_queues;
  Alcotest.(check int) "no stimuli" 0 tr.Pipeline.num_stimuli

let test_event_driven_counts () =
  let root = Aadl.Instantiate.of_string (Gen.event_driven ()) in
  let tr = Pipeline.translate root in
  Alcotest.(check int) "three thread processes" 3 tr.Pipeline.num_thread_processes;
  Alcotest.(check int) "two queues" 2 tr.Pipeline.num_queues;
  Alcotest.(check int) "one stimulus" 1 tr.Pipeline.num_stimuli

let test_translation_closed () =
  let root = Aadl.Instantiate.of_string (Gen.cruise_control ()) in
  let tr = Pipeline.translate root in
  Alcotest.(check bool) "system term is closed" true
    (Acsr.Proc.is_ground tr.Pipeline.system);
  (* every definition must be registered and instantiable *)
  Acsr.Defs.fold
    (fun d () ->
      Alcotest.(check bool)
        (d.Acsr.Defs.name ^ " instantiable") true
        (try
           ignore
             (Acsr.Defs.instantiate tr.Pipeline.defs d.Acsr.Defs.name
                (List.map (fun _ -> 0) d.Acsr.Defs.formals));
           true
         with _ -> false))
    tr.Pipeline.defs ()

let test_untranslatable_rejected () =
  let text = "processor cpu\nend cpu;\nsystem s\nend s;\nsystem implementation s.impl\nsubcomponents\n  cpu1: processor cpu;\nend s.impl;" in
  let root = Aadl.Instantiate.of_string text in
  Alcotest.(check bool) "no threads -> Error" true
    (try
       ignore (Pipeline.translate root);
       false
     with Aadl.Diag.Error _ -> true)

let test_force_protocol_changes_priorities () =
  let root = Aadl.Instantiate.of_string crossover in
  let rm = Pipeline.translate root in
  let edf =
    Pipeline.translate
      ~options:
        {
          Pipeline.default_options with
          force_protocol = Some Aadl.Props.Edf;
        }
      root
  in
  let static_only tr =
    List.for_all
      (fun (a : Sched_policy.assignment) ->
        match a.Sched_policy.cpu_priority with
        | Acsr.Expr.Int _ -> true
        | _ -> false)
      (List.concat_map snd tr.Pipeline.assignments)
  in
  Alcotest.(check bool) "RM static" true (static_only rm);
  Alcotest.(check bool) "EDF dynamic" false (static_only edf)

(* The dispatcher and the scheduling policy reject a thread at the
   thread instance's position in the AADL text.  [check] rejects an
   aperiodic thread without incoming events before translation, so these
   sites are driven directly. *)
let test_located_rejections () =
  let text =
    {|
processor cpu
properties
  Scheduling_Protocol => RATE_MONOTONIC_PROTOCOL;
end cpu;
thread worker
properties
  Dispatch_Protocol => Aperiodic;
  Compute_Execution_Time => 1 ms;
  Compute_Deadline => 8 ms;
end worker;
system s
end s;
system implementation s.impl
subcomponents
  cpu1: processor cpu;
  w: thread worker;
properties
  Actual_Processor_Binding => reference (cpu1) applies to w;
end s.impl;
|}
  in
  let task = List.hd (workload_of text).Workload.tasks in
  let expected = Some { Aadl.Ast.line = 17; col = 3 } in
  let located what f =
    match f () with
    | () -> Alcotest.failf "%s: not rejected" what
    | exception Aadl.Diag.Error d ->
        Alcotest.(check bool)
          (what ^ ": at the thread instance")
          true (d.Aadl.Diag.loc = expected);
        Alcotest.(check (list string)) (what ^ ": subject") [ "w" ]
          d.Aadl.Diag.subject
  in
  located "aperiodic without incoming events" (fun () ->
      ignore
        (Dispatcher.generate ~dispatch_probes:[]
           ~registry:(Naming.create_registry ()) ~task
           ~dispatch:(Acsr.Label.make "d") ~done_:(Acsr.Label.make "e") ()));
  located "no priority assigned" (fun () ->
      ignore (Sched_policy.find [] task))

let () =
  Alcotest.run "translate"
    [
      ( "workload",
        [
          Alcotest.test_case "basic" `Quick test_workload_basic;
          Alcotest.test_case "rounding" `Quick test_workload_rounding;
          Alcotest.test_case "infeasible rejected" `Quick
            test_workload_rejects_infeasible;
          Alcotest.test_case "utilization" `Quick test_workload_utilization;
          Alcotest.test_case "suggest quantum" `Quick test_suggest_quantum;
        ] );
      ( "policy",
        [
          Alcotest.test_case "rm ordering" `Quick test_rm_ordering;
          Alcotest.test_case "dm ordering" `Quick test_dm_ordering;
          Alcotest.test_case "distinct statics" `Quick
            test_static_priorities_distinct;
          Alcotest.test_case "edf expression" `Quick test_edf_expression;
          Alcotest.test_case "llf expression" `Quick test_llf_expression;
        ] );
      ( "hierarchical",
        [
          Alcotest.test_case "priority banding" `Quick
            test_hierarchical_banding;
          Alcotest.test_case "verdicts" `Quick test_hierarchical_verdicts;
          Alcotest.test_case "local bounds" `Quick test_local_bounds;
          Alcotest.test_case "flat assign rejects" `Quick
            test_flat_assign_rejects_hierarchical;
        ] );
      ( "skeleton",
        [
          Alcotest.test_case "defs" `Quick test_skeleton_defs;
          Alcotest.test_case "compute params" `Quick
            test_skeleton_compute_params;
          Alcotest.test_case "behaviour" `Quick test_skeleton_behaviour;
          Alcotest.test_case "nondeterministic cet" `Quick
            test_skeleton_nondeterministic_cet;
        ] );
      ( "dispatcher semantics",
        [
          Alcotest.test_case "sporadic min separation" `Quick
            test_sporadic_min_separation;
          Alcotest.test_case "urgency arbitration" `Quick
            test_urgency_arbitration;
          Alcotest.test_case "located rejections" `Quick
            test_located_rejections;
        ] );
      ( "pipeline",
        [
          Alcotest.test_case "cruise control counts (paper 4.1)" `Quick
            test_cruise_control_counts;
          Alcotest.test_case "event driven counts" `Quick
            test_event_driven_counts;
          Alcotest.test_case "translation closed" `Quick
            test_translation_closed;
          Alcotest.test_case "untranslatable rejected" `Quick
            test_untranslatable_rejected;
          Alcotest.test_case "force protocol" `Quick
            test_force_protocol_changes_priorities;
        ] );
    ]
