(* Unit and property tests for the ACSR kernel: expressions, guards, timed
   actions, the preemption relation, and the operational semantics,
   including the behaviours of Figures 2 and 3 of the paper. *)

open Acsr

let cpu = Resource.make "cpu"
let bus = Resource.make "bus"

let e_int n = Expr.Int n

let action accesses =
  Action.of_list (List.map (fun (r, p) -> (r, e_int p)) accesses)

let step_testable = Alcotest.testable Step.pp Step.equal
let proc_testable = Alcotest.testable Proc.pp Proc.equal

let steps_of ?(defs = Defs.empty) p = Semantics.steps defs p
let prio_of ?(defs = Defs.empty) p = Semantics.prioritized defs p

(* {1 Expressions and guards} *)

let test_expr_eval () =
  let env = Expr.Env.(empty |> add "x" 4 |> add "y" 7) in
  let e = Expr.(Add (Var "x", Mul (Int 2, Var "y"))) in
  Alcotest.(check int) "4 + 2*7" 18 (Expr.eval env e);
  Alcotest.(check int) "max" 7 (Expr.eval env Expr.(Max (Var "x", Var "y")));
  Alcotest.(check int) "min" 4 (Expr.eval env Expr.(Min (Var "x", Var "y")));
  Alcotest.(check int) "sub-neg" (-3) (Expr.eval env Expr.(Sub (Var "x", Var "y")))

let test_expr_unbound () =
  Alcotest.check_raises "unbound var" (Expr.Unbound_parameter "z") (fun () ->
      ignore (Expr.eval Expr.Env.empty (Expr.Var "z")))

let test_expr_subst_folds () =
  let env = Expr.Env.(empty |> add "t" 3) in
  let e = Expr.(Sub (Int 10, Sub (Int 5, Var "t"))) in
  Alcotest.(check bool) "fully folded" true
    (Expr.equal (Expr.subst env e) (Expr.Int 8));
  (* partial substitution keeps the open part *)
  let open_e = Expr.(Add (Var "t", Var "u")) in
  let r = Expr.subst env open_e in
  Alcotest.(check (list string)) "u stays free" [ "u" ] (Expr.free_vars r)

let test_expr_div_by_zero_not_folded () =
  let e = Expr.(Div (Int 1, Var "d")) in
  let r = Expr.subst Expr.Env.(empty |> add "d" 0) e in
  Alcotest.(check bool) "kept as Div" true
    (match r with Expr.Div _ -> true | _ -> false);
  Alcotest.check_raises "raises at eval" Division_by_zero (fun () ->
      ignore (Expr.eval Expr.Env.empty r))

let test_guard_eval () =
  let env = Expr.Env.(empty |> add "e" 2 |> add "cmax" 5) in
  let g = Guard.(conj (lt (Expr.Var "e") (Expr.Var "cmax")) (ge (Expr.Var "e") (Expr.Int 0))) in
  Alcotest.(check bool) "guard holds" true (Guard.eval env g);
  let g2 = Guard.(neg (le (Expr.Var "cmax") (Expr.Var "e"))) in
  Alcotest.(check bool) "negation" true (Guard.eval env g2)

let test_guard_subst_simplifies () =
  let env = Expr.Env.(empty |> add "x" 1) in
  Alcotest.(check bool) "decided to True" true
    (Guard.subst env Guard.(lt (Expr.Var "x") (Expr.Int 5)) = Guard.True);
  Alcotest.(check bool) "and-false collapses" true
    (Guard.subst env
       Guard.(conj (gt (Expr.Var "x") (Expr.Int 5)) (lt (Expr.Var "y") (Expr.Int 0)))
    = Guard.False)

(* {1 Timed actions and preemption} *)

let ground accesses : Action.ground = accesses

let test_action_of_list_sorts () =
  let a = action [ (bus, 1); (cpu, 2) ] in
  Alcotest.(check (list string)) "sorted by resource" [ "bus"; "cpu" ]
    (List.map (fun (r, _) -> Resource.name r) (Action.accesses a))

let test_action_duplicate_rejected () =
  Alcotest.check_raises "duplicate resource"
    (Invalid_argument "Action.of_list: duplicate resource in timed action")
    (fun () -> ignore (action [ (cpu, 1); (cpu, 2) ]))

let test_action_union_disjointness () =
  Alcotest.check_raises "overlap"
    (Invalid_argument "Action.union: overlapping resources") (fun () ->
      ignore (Action.union (action [ (cpu, 1) ]) (action [ (cpu, 2) ])))

let test_preempts_basic () =
  let p = Action.Ground.preempts in
  Alcotest.(check bool) "higher prio same resource" true
    (p (ground [ (cpu, 2) ]) (ground [ (cpu, 1) ]));
  Alcotest.(check bool) "not the converse" false
    (p (ground [ (cpu, 1) ]) (ground [ (cpu, 2) ]));
  Alcotest.(check bool) "superset with extra resource" true
    (p (ground [ (bus, 1); (cpu, 1) ]) (ground [ (cpu, 1) ]));
  Alcotest.(check bool) "resource-using preempts idle" true
    (p (ground [ (cpu, 1) ]) Action.Ground.idle);
  Alcotest.(check bool) "priority-0 use does not preempt idle" false
    (p (ground [ (cpu, 0) ]) Action.Ground.idle);
  Alcotest.(check bool) "incomparable resources" false
    (p (ground [ (bus, 1) ]) (ground [ (cpu, 1) ]));
  Alcotest.(check bool) "irreflexive" false
    (p (ground [ (cpu, 1) ]) (ground [ (cpu, 1) ]))

let test_step_preempts () =
  let p = Step.preempts in
  Alcotest.(check bool) "tau>0 preempts action" true
    (p (Step.Tau (None, 1)) (Step.Action (ground [ (cpu, 9) ])));
  Alcotest.(check bool) "tau:0 does not preempt action" false
    (p (Step.Tau (None, 0)) (Step.Action (ground [ (cpu, 1) ])));
  let l = Label.make "a" in
  Alcotest.(check bool) "same-label same-dir event by priority" true
    (p (Step.Event (l, Event.Out, 2)) (Step.Event (l, Event.Out, 1)));
  Alcotest.(check bool) "different label no preemption" false
    (p
       (Step.Event (Label.make "b", Event.Out, 9))
       (Step.Event (l, Event.Out, 1)));
  Alcotest.(check bool) "in vs out no preemption" false
    (p (Step.Event (l, Event.In, 9)) (Step.Event (l, Event.Out, 1)));
  Alcotest.(check bool) "taus compare across origins" true
    (p (Step.Tau (Some l, 2)) (Step.Tau (Some (Label.make "b"), 1)));
  Alcotest.(check bool) "equal-priority taus coexist" false
    (p (Step.Tau (Some l, 1)) (Step.Tau (Some (Label.make "b"), 1)));
  Alcotest.(check bool) "event does not preempt action" false
    (p (Step.Event (l, Event.Out, 9)) (Step.Action (ground [ (cpu, 1) ])))

(* {1 Operational semantics: Figure 2} *)

(* Simple = {(cpu,1)} : {(cpu,1),(bus,1)} : done!.Simple   (Fig. 2a) *)
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

let test_fig2_simple_cycle () =
  let p0 = Proc.call "Simple" [] in
  (match steps_of ~defs:simple_defs p0 with
  | [ (Step.Action a, p1) ] ->
      Alcotest.(check bool) "first step uses cpu only" true
        (Action.Ground.equal a (ground [ (cpu, 1) ]));
      (match steps_of ~defs:simple_defs p1 with
      | [ (Step.Action a2, p2) ] ->
          Alcotest.(check bool) "second step uses cpu and bus" true
            (Action.Ground.equal a2 (ground [ (bus, 1); (cpu, 1) ]));
          (match steps_of ~defs:simple_defs p2 with
          | [ (Step.Event (l, Event.Out, 0), p3) ] ->
              Alcotest.(check string) "announces done" "done" (Label.name l);
              Alcotest.check proc_testable "restarts" (Proc.call "Simple" []) p3
          | _ -> Alcotest.fail "expected a single done! step")
      | _ -> Alcotest.fail "expected a single cpu+bus step")
  | _ -> Alcotest.fail "expected a single cpu step")

let test_fig2b_idling_alternative () =
  (* Simple with an idling alternative before the bus step (Fig. 2b): the
     process can wait for the bus without deadlocking. *)
  let rec_p =
    Proc.(
      choice
        (act (action [ (cpu, 1); (bus, 1) ]) nil)
        (act Action.idle (call "Wait" [])))
  in
  let defs = Defs.of_list [ ("Wait", [], rec_p) ] in
  let steps = steps_of ~defs (Proc.call "Wait" []) in
  Alcotest.(check int) "two alternatives" 2 (List.length steps);
  Alcotest.(check bool) "one is idling" true
    (List.exists
       (fun (s, _) ->
         match s with Step.Action a -> Action.Ground.is_idle a | _ -> false)
       steps)

(* {1 Parallel composition} *)

let test_par_disjoint_resources_merge () =
  let p = Proc.(par (act (action [ (cpu, 1) ]) nil) (act (action [ (bus, 1) ]) nil)) in
  match steps_of p with
  | [ (Step.Action a, _) ] ->
      Alcotest.(check bool) "merged action" true
        (Action.Ground.equal a (ground [ (bus, 1); (cpu, 1) ]))
  | _ -> Alcotest.fail "expected exactly the merged timed step"

let test_par_resource_conflict_deadlocks () =
  let p =
    Proc.(par (act (action [ (cpu, 1) ]) nil) (act (action [ (cpu, 2) ]) nil))
  in
  Alcotest.(check bool) "no step possible" true
    (Semantics.is_deadlocked Defs.empty p)

let test_par_nil_blocks_time () =
  (* NIL cannot let time pass: P || NIL deadlocks even if P could run. *)
  let p = Proc.(par (act (action [ (cpu, 1) ]) nil) nil) in
  Alcotest.(check bool) "deadlocked" true (Semantics.is_deadlocked Defs.empty p)

let test_par_event_interleaving () =
  let a = Label.make "a" and b = Label.make "b" in
  let p = Proc.(par (send a nil) (send b nil)) in
  let steps = steps_of p in
  Alcotest.(check int) "both events offered" 2 (List.length steps)

let test_par_synchronization () =
  let a = Label.make "a" in
  let p = Proc.(par (send ~prio:(e_int 2) a nil) (receive ~prio:(e_int 3) a nil)) in
  let steps = steps_of p in
  (* unsynchronized offers plus the tau *)
  Alcotest.(check int) "three steps" 3 (List.length steps);
  Alcotest.(check bool) "tau with summed priority" true
    (List.exists
       (fun (s, _) ->
         match s with
         | Step.Tau (Some l, 5) -> Label.equal l a
         | _ -> false)
       steps)

let test_restrict_forces_sync () =
  let a = Label.make "a" in
  let p =
    Proc.(
      restrict
        (Label.Set.singleton a)
        (par (send a nil) (receive a nil)))
  in
  match steps_of p with
  | [ (Step.Tau (Some l, 0), _) ] ->
      Alcotest.(check string) "tau@a" "a" (Label.name l)
  | _ -> Alcotest.fail "expected only the synchronized tau"

let test_prioritized_preemption_in_par () =
  (* Two processes with idling alternatives competing for cpu: the
     higher-priority access preempts both the lower one and idling. *)
  let contender prio =
    Proc.(choice (act (action [ (cpu, prio) ]) nil) (act Action.idle nil))
  in
  let p = Proc.par (contender 2) (contender 1) in
  (* joint steps: high+idle, idle+low, idle+idle (high+low clashes on cpu) *)
  let all = steps_of p in
  Alcotest.(check int) "three unprioritized interleavings" 3 (List.length all);
  match prio_of p with
  | [ (Step.Action a, _) ] ->
      Alcotest.(check bool) "only the high-priority access survives" true
        (Action.Ground.equal a (ground [ (cpu, 2) ]))
  | _ -> Alcotest.fail "expected a single prioritized step"

let test_close_claims_idle_resources () =
  let p =
    Proc.(
      close
        (Resource.Set.of_list [ cpu; bus ])
        (act (action [ (cpu, 1) ]) nil))
  in
  match steps_of p with
  | [ (Step.Action a, _) ] ->
      Alcotest.(check int) "bus claimed at 0" 0 (Action.Ground.priority_of a bus);
      Alcotest.(check bool) "bus in resource set" true
        (Resource.Set.mem bus (Action.Ground.resources a))
  | _ -> Alcotest.fail "expected one closed step"

(* {1 Temporal scopes} *)

let idle_defs = Defs.of_list [ ("Idle", [], Proc.(act Action.idle (call "Idle" []))) ]

let test_scope_timeout () =
  let t_label = Label.make "timeout_fired" in
  let p =
    Proc.scope ~bound:(e_int 2)
      ~timeout:(Proc.send t_label Proc.nil)
      (Proc.call "Idle" [])
  in
  let rec advance p n =
    if n = 0 then p
    else
      match steps_of ~defs:idle_defs p with
      | [ (Step.Action _, p') ] -> advance p' (n - 1)
      | _ -> Alcotest.fail "expected a single idle step inside the scope"
  in
  let at_bound = advance p 2 in
  match steps_of ~defs:idle_defs at_bound with
  | [ (Step.Event (l, Event.Out, 0), _) ] ->
      Alcotest.(check string) "timeout handler runs" "timeout_fired"
        (Label.name l)
  | _ -> Alcotest.fail "expected the timeout handler's step"

let test_scope_timeout_nil_deadlocks () =
  (* A scope whose timeout handler is NIL deadlocks at the bound: this is
     exactly how deadline violations manifest (paper, Section 5). *)
  let p = Proc.scope ~bound:(e_int 1) (Proc.call "Idle" []) in
  match steps_of ~defs:idle_defs p with
  | [ (Step.Action _, p') ] ->
      Alcotest.(check bool) "deadlocked at bound" true
        (Semantics.is_deadlocked idle_defs p')
  | _ -> Alcotest.fail "expected one step then deadlock"

let test_scope_exception_exit () =
  let exc = Label.make "exc" in
  let h_label = Label.make "handled" in
  let body = Proc.send exc (Proc.call "Idle" []) in
  let p =
    Proc.scope ~exc:(exc, Proc.send h_label Proc.nil) ~bound:(e_int 5) body
  in
  match steps_of ~defs:idle_defs p with
  | [ (Step.Event (l, Event.Out, 0), p') ] ->
      Alcotest.(check string) "exception event visible" "exc" (Label.name l);
      (match steps_of ~defs:idle_defs p' with
      | [ (Step.Event (l', Event.Out, 0), _) ] ->
          Alcotest.(check string) "control in handler" "handled"
            (Label.name l')
      | _ -> Alcotest.fail "expected handler step")
  | _ -> Alcotest.fail "expected the exception exit"

let test_scope_interrupt_always_enabled () =
  let i = Label.make "interrupt" in
  let p =
    Proc.scope ~bound:(e_int 5)
      ~interrupt:(Proc.receive i (Proc.send (Label.make "h") Proc.nil))
      (Proc.call "Idle" [])
  in
  let steps = steps_of ~defs:idle_defs p in
  Alcotest.(check int) "body idle + interrupt trigger" 2 (List.length steps);
  Alcotest.(check bool) "interrupt input offered" true
    (List.exists
       (fun (s, _) ->
         match s with
         | Step.Event (l, Event.In, _) -> Label.equal l i
         | _ -> false)
       steps)

let test_scope_event_does_not_consume_bound () =
  let a = Label.make "a" in
  let body = Proc.send a (Proc.send a Proc.nil) in
  let p = Proc.scope ~bound:(e_int 1) ~timeout:Proc.nil body in
  (* two instantaneous steps fit within a 1-quantum scope *)
  match steps_of p with
  | [ (Step.Event _, p') ] -> (
      match steps_of p' with
      | [ (Step.Event _, _) ] -> ()
      | _ -> Alcotest.fail "second event should still be allowed")
  | _ -> Alcotest.fail "expected event step"

(* {1 Parameterized definitions} *)

let counter_defs =
  (* Count(n) = [n < 3] -> {} : Count(n+1)  +  [n >= 3] -> done!.NIL *)
  Defs.of_list
    [
      ( "Count",
        [ "n" ],
        Proc.(
          choice
            (if_
               Guard.(lt (Expr.Var "n") (Expr.Int 3))
               (act Action.idle (call "Count" [ Expr.Add (Expr.Var "n", Expr.Int 1) ])))
            (if_
               Guard.(ge (Expr.Var "n") (Expr.Int 3))
               (send (Label.make "done") nil))) );
    ]

let test_parameterized_counter () =
  let rec run p n_ticks =
    match steps_of ~defs:counter_defs p with
    | [ (Step.Action _, p') ] -> run p' (n_ticks + 1)
    | [ (Step.Event (l, Event.Out, 0), _) ] ->
        Alcotest.(check string) "done" "done" (Label.name l);
        n_ticks
    | _ -> Alcotest.fail "unexpected step shape"
  in
  Alcotest.(check int) "three ticks from 0" 3 (run (Proc.call "Count" [ e_int 0 ]) 0);
  Alcotest.(check int) "one tick from 2" 1 (run (Proc.call "Count" [ e_int 2 ]) 0)

let test_defs_arity_mismatch () =
  Alcotest.check_raises "arity" (Defs.Arity_mismatch ("Count", 1, 2))
    (fun () ->
      ignore
        (steps_of ~defs:counter_defs (Proc.call "Count" [ e_int 0; e_int 1 ])))

let test_defs_undefined () =
  Alcotest.check_raises "undefined" (Defs.Undefined "Nope") (fun () ->
      ignore (steps_of (Proc.call "Nope" [])))

let test_defs_unbound_body_rejected () =
  Alcotest.check_raises "unbound in body"
    (Defs.Unbound_in_body ("Bad", "x")) (fun () ->
      ignore
        (Defs.add Defs.empty ~name:"Bad" ~formals:[]
           (Proc.act (Action.singleton cpu (Expr.Var "x")) Proc.nil)))

let test_unguarded_recursion_detected () =
  let defs = Defs.of_list [ ("X", [], Proc.call "X" []) ] in
  Alcotest.check_raises "unguarded" (Semantics.Unguarded_recursion "X")
    (fun () -> ignore (steps_of ~defs (Proc.call "X" [])))

let test_not_closed_detected () =
  let p = Proc.act (Action.singleton cpu (Expr.Var "p")) Proc.nil in
  Alcotest.(check bool) "raises Not_closed" true
    (try
       ignore (steps_of p);
       false
     with Semantics.Not_closed _ -> true)

(* {1 Expression edge cases} *)

let test_expr_div_mod_negatives () =
  let env = Expr.Env.empty in
  Alcotest.(check int) "trunc division" (-2)
    (Expr.eval env Expr.(Div (Int (-5), Int 2)));
  Alcotest.(check int) "mod sign follows dividend" (-1)
    (Expr.eval env Expr.(Mod (Int (-5), Int 2)));
  Alcotest.(check int) "nested min/max" 4
    (Expr.eval env Expr.(Max (Min (Int 4, Int 9), Neg (Int 3))))

let test_expr_subst_keeps_free () =
  let env = Expr.Env.(empty |> add "a" 1) in
  let e = Expr.(Mul (Var "a", Max (Var "b", Int 2))) in
  let r = Expr.subst env e in
  Alcotest.(check (list string)) "b still free" [ "b" ] (Expr.free_vars r);
  Alcotest.(check int) "eval after completing env" 6
    (Expr.eval Expr.Env.(empty |> add "b" 6) r)

(* {1 Hash-cons intern table} *)

(* About 100k distinct parallel compositions in one table, each hashed
   from its children's memoized hashes as exploration states are.  A
   uniform hash leaves [buckets * (1 - e^(-nodes/buckets))] buckets
   non-empty and chains of a few nodes.  Chance alone never gets below
   half that spread or above chains of 16; a bucket index that ignores
   some of the hash's low bits uses a fraction of the buckets and
   builds long chains. *)
let test_intern_table_spread () =
  let terms = Hproc.create () in
  let leaves name n =
    Array.init n (fun i -> Hproc.call terms name [ e_int i ])
  in
  let a = leaves "a" 320 and b = leaves "b" 313 in
  Array.iter (fun x -> Array.iter (fun y -> ignore (Hproc.par terms x y)) b) a;
  let s = Hproc.stats terms in
  let nodes = s.Hashtbl.num_bindings and buckets = s.Hashtbl.num_buckets in
  let nonempty = buckets - s.Hashtbl.bucket_histogram.(0) in
  Alcotest.(check bool) "at least 100k nodes" true (nodes >= 100_000);
  let load = float_of_int nodes /. float_of_int buckets in
  let expected = float_of_int buckets *. (1. -. exp (-.load)) in
  if float_of_int nonempty < 0.5 *. expected then
    Alcotest.failf "%d of %d buckets used for %d nodes (uniform: %.0f)"
      nonempty buckets nodes expected;
  if s.Hashtbl.max_bucket_length > 16 then
    Alcotest.failf "longest bucket chain %d (at most 16 expected)"
      s.Hashtbl.max_bucket_length

(* {1 Property-based tests} *)

let resources = [| Resource.make "r0"; Resource.make "r1"; Resource.make "r2" |]

let gen_ground_action =
  QCheck2.Gen.(
    let* mask = int_range 0 7 in
    let* prios = array_size (return 3) (int_range 0 3) in
    let accesses =
      List.filteri (fun i _ -> mask land (1 lsl i) <> 0)
        (Array.to_list (Array.mapi (fun i r -> (r, prios.(i))) resources))
    in
    return (accesses : Action.ground))

let prop_preempts_irreflexive =
  QCheck2.Test.make ~name:"action preemption is irreflexive" ~count:500
    gen_ground_action (fun a -> not (Action.Ground.preempts a a))

let prop_preempts_antisymmetric =
  QCheck2.Test.make ~name:"action preemption is antisymmetric" ~count:500
    QCheck2.Gen.(pair gen_ground_action gen_ground_action)
    (fun (a, b) ->
      not (Action.Ground.preempts a b && Action.Ground.preempts b a))

let prop_preempts_transitive =
  QCheck2.Test.make ~name:"action preemption is transitive" ~count:2000
    QCheck2.Gen.(triple gen_ground_action gen_ground_action gen_ground_action)
    (fun (a, b, c) ->
      (* preempts x y means y < x *)
      if Action.Ground.preempts b c && Action.Ground.preempts a b then
        Action.Ground.preempts a c
      else true)

(* The definition of [Action.Ground.preempts] over resource sets, as the
   paper states it; the library walks the sorted lists instead. *)
let preempts_by_sets b a =
  let priority_of x r = Option.value ~default:0 (List.assoc_opt r x) in
  Resource.Set.subset (Action.Ground.resources a) (Action.Ground.resources b)
  && List.for_all (fun (r, pa) -> priority_of b r >= pa) a
  && List.exists (fun (r, pb) -> pb > priority_of a r) b

let prop_preempts_matches_sets =
  QCheck2.Test.make ~name:"action preemption matches the set definition"
    ~count:2000
    QCheck2.Gen.(pair gen_ground_action gen_ground_action)
    (fun (b, a) -> Action.Ground.preempts b a = preempts_by_sets b a)

let prop_prioritize_nonempty =
  QCheck2.Test.make ~name:"prioritize keeps at least one step" ~count:500
    QCheck2.Gen.(list_size (int_range 1 6) gen_ground_action)
    (fun actions ->
      let steps = List.map (fun a -> (Step.Action a, ())) actions in
      Step.prioritize steps <> [])

let prop_prioritize_subset =
  QCheck2.Test.make ~name:"prioritize returns a subset" ~count:500
    QCheck2.Gen.(list_size (int_range 0 6) gen_ground_action)
    (fun actions ->
      let steps = List.map (fun a -> (Step.Action a, ())) actions in
      List.for_all (fun s -> List.mem s steps) (Step.prioritize steps))

let prop_union_idle_neutral =
  QCheck2.Test.make ~name:"idle is neutral for union" ~count:500
    gen_ground_action (fun a ->
      Action.Ground.equal (Action.Ground.union a Action.Ground.idle) a)

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_preempts_irreflexive;
      prop_preempts_antisymmetric;
      prop_preempts_transitive;
      prop_preempts_matches_sets;
      prop_prioritize_nonempty;
      prop_prioritize_subset;
      prop_union_idle_neutral;
    ]

let () =
  ignore step_testable;
  Alcotest.run "acsr"
    [
      ( "expr",
        [
          Alcotest.test_case "eval" `Quick test_expr_eval;
          Alcotest.test_case "unbound" `Quick test_expr_unbound;
          Alcotest.test_case "subst folds" `Quick test_expr_subst_folds;
          Alcotest.test_case "div by zero kept" `Quick
            test_expr_div_by_zero_not_folded;
        ] );
      ( "guard",
        [
          Alcotest.test_case "eval" `Quick test_guard_eval;
          Alcotest.test_case "subst simplifies" `Quick
            test_guard_subst_simplifies;
        ] );
      ( "expr edges",
        [
          Alcotest.test_case "div/mod negatives" `Quick
            test_expr_div_mod_negatives;
          Alcotest.test_case "subst keeps free" `Quick
            test_expr_subst_keeps_free;
        ] );
      ( "action",
        [
          Alcotest.test_case "of_list sorts" `Quick test_action_of_list_sorts;
          Alcotest.test_case "duplicate rejected" `Quick
            test_action_duplicate_rejected;
          Alcotest.test_case "union disjointness" `Quick
            test_action_union_disjointness;
          Alcotest.test_case "preempts basic" `Quick test_preempts_basic;
          Alcotest.test_case "step preempts" `Quick test_step_preempts;
        ] );
      ( "semantics",
        [
          Alcotest.test_case "fig2 simple cycle" `Quick test_fig2_simple_cycle;
          Alcotest.test_case "fig2b idling" `Quick test_fig2b_idling_alternative;
          Alcotest.test_case "par merges disjoint" `Quick
            test_par_disjoint_resources_merge;
          Alcotest.test_case "par conflict deadlocks" `Quick
            test_par_resource_conflict_deadlocks;
          Alcotest.test_case "par nil blocks time" `Quick
            test_par_nil_blocks_time;
          Alcotest.test_case "par event interleaving" `Quick
            test_par_event_interleaving;
          Alcotest.test_case "par synchronization" `Quick
            test_par_synchronization;
          Alcotest.test_case "restrict forces sync" `Quick
            test_restrict_forces_sync;
          Alcotest.test_case "prioritized preemption" `Quick
            test_prioritized_preemption_in_par;
          Alcotest.test_case "close claims idle resources" `Quick
            test_close_claims_idle_resources;
        ] );
      ( "scope",
        [
          Alcotest.test_case "timeout" `Quick test_scope_timeout;
          Alcotest.test_case "timeout nil deadlocks" `Quick
            test_scope_timeout_nil_deadlocks;
          Alcotest.test_case "exception exit" `Quick test_scope_exception_exit;
          Alcotest.test_case "interrupt enabled" `Quick
            test_scope_interrupt_always_enabled;
          Alcotest.test_case "events free within quantum" `Quick
            test_scope_event_does_not_consume_bound;
        ] );
      ( "defs",
        [
          Alcotest.test_case "parameterized counter" `Quick
            test_parameterized_counter;
          Alcotest.test_case "arity mismatch" `Quick test_defs_arity_mismatch;
          Alcotest.test_case "undefined" `Quick test_defs_undefined;
          Alcotest.test_case "unbound body rejected" `Quick
            test_defs_unbound_body_rejected;
          Alcotest.test_case "unguarded recursion" `Quick
            test_unguarded_recursion_detected;
          Alcotest.test_case "not closed" `Quick test_not_closed_detected;
        ] );
      ( "hproc",
        [
          Alcotest.test_case "intern table spread" `Quick
            test_intern_table_spread;
        ] );
      ("properties", qcheck_cases);
    ]
