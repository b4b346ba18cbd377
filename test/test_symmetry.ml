(* Tests for the orbit (symmetry) reduction.

   Three families of guarantees:
   - detection: the translation groups exactly the thread units that are
     identical up to generated names — replicated EDF families merge into
     one class, while any difference in period, cet, deadline or (baked,
     tie-broken) RM/DM priority keeps units apart;
   - equivalence: exploring with the reduction on yields the same verdict,
     violation time and scenario length as exploring the raw space, on
     every example model and on generated families, schedulable and not,
     sequential and parallel;
   - soundness of de-canonicalization: the returned failing scenario is a
     real path of the *unreduced* prioritized semantics, ending in a
     deadlock. *)

open Acsr

let translation_of text =
  Translate.Pipeline.translate (Aadl.Instantiate.of_string text)

let family ?protocol ~threads ~utilization () =
  Gen.replicated_family ?protocol ~threads ~utilization ()

let family_model (threads, utilization) =
  ( Fmt.str "family %d@%.2f" threads utilization,
    family ~threads ~utilization () )

(* Two classes of four interchangeable EDF threads each, on one processor:
   the per-class permutations are independent.  The first set misses a
   deadline at t=9 (64 reduced states), the second is schedulable. *)
let two_class ~a:(a_period, a_cet) ~b:(b_period, b_cet) =
  let specs prefix period cet =
    List.init 4 (fun i ->
        Gen.simple_spec
          ~name:(Fmt.str "%s%d" prefix (i + 1))
          ~period_ms:period ~cet_ms:cet ())
  in
  Gen.periodic_system ~protocol:Aadl.Props.Edf
    (specs "a" a_period a_cet @ specs "b" b_period b_cet)

let two_class_models =
  [
    ("two classes 4x(6,1)+4x(9,2)", two_class ~a:(6, 1) ~b:(9, 2));
    ("two classes 4x(8,1)+4x(10,1)", two_class ~a:(8, 1) ~b:(10, 1));
  ]

(* {1 Detection} *)

let test_detect_replicated_family () =
  List.iter
    (fun threads ->
      let tr = translation_of (family ~threads ~utilization:0.8 ()) in
      let spec = tr.Translate.Pipeline.symmetry in
      Alcotest.(check bool)
        (Fmt.str "%d-thread EDF family has symmetry" threads)
        false (Symmetry.is_empty spec);
      Alcotest.(check (list int))
        (Fmt.str "%d-thread family: one class of all threads" threads)
        [ threads ] (Symmetry.class_sizes spec))
    [ 2; 4; 8 ]

let test_detect_single_thread_no_class () =
  let tr = translation_of (family ~threads:1 ~utilization:0.5 ()) in
  Alcotest.(check bool)
    "a single thread has no orbit class" true
    (Symmetry.is_empty tr.Translate.Pipeline.symmetry)

(* RM and DM bake tie-broken priorities into the cpu-access expressions,
   so even textually identical threads are not interchangeable there. *)
let test_detect_rm_family_not_merged () =
  List.iter
    (fun protocol ->
      let tr =
        translation_of (family ~protocol ~threads:4 ~utilization:0.8 ())
      in
      Alcotest.(check bool)
        "identical threads under RM/DM are not merged" true
        (Symmetry.is_empty tr.Translate.Pipeline.symmetry))
    [ Aadl.Props.Rate_monotonic; Aadl.Props.Deadline_monotonic ]

(* Almost-identical threads — same everything except one timing
   parameter — must never land in the same class. *)
let test_detect_almost_identical_not_merged () =
  let base ~name = Gen.simple_spec ~name ~period_ms:6 ~cet_ms:1 in
  let cases =
    [
      ( "different period",
        [
          Gen.simple_spec ~name:"t1" ~period_ms:6 ~cet_ms:1 ();
          Gen.simple_spec ~name:"t2" ~period_ms:8 ~cet_ms:1 ();
        ] );
      ( "different cet",
        [
          Gen.simple_spec ~name:"t1" ~period_ms:6 ~cet_ms:1 ();
          Gen.simple_spec ~name:"t2" ~period_ms:6 ~cet_ms:2 ();
        ] );
      ( "different deadline",
        [ base ~name:"t1" (); base ~name:"t2" ~deadline_ms:5 () ] );
    ]
  in
  List.iter
    (fun (what, specs) ->
      let tr =
        translation_of (Gen.periodic_system ~protocol:Aadl.Props.Edf specs)
      in
      Alcotest.(check bool)
        (what ^ ": not merged")
        true
        (Symmetry.is_empty tr.Translate.Pipeline.symmetry))
    cases;
  (* and the matching pair in the same model *does* merge, so the cases
     above fail for the right reason *)
  let tr =
    translation_of
      (Gen.periodic_system ~protocol:Aadl.Props.Edf
         [ base ~name:"t1" (); base ~name:"t2" () ])
  in
  Alcotest.(check (list int))
    "the identical pair merges" [ 2 ]
    (Symmetry.class_sizes tr.Translate.Pipeline.symmetry)

let test_detect_two_classes () =
  List.iter
    (fun (name, text) ->
      Alcotest.(check (list int))
        (name ^ ": one class per thread type") [ 4; 4 ]
        (Symmetry.class_sizes
           (translation_of text).Translate.Pipeline.symmetry))
    two_class_models

(* e6 reference family: pairwise distinct periods, no symmetry at all. *)
let test_detect_e6_asymmetric () =
  let text =
    Gen.periodic_system
      (List.init 5 (fun i ->
           Gen.simple_spec
             ~name:(Fmt.str "t%d" (i + 1))
             ~period_ms:(4 + (2 * i))
             ~cet_ms:1 ()))
  in
  Alcotest.(check bool)
    "e6 has no interchangeable threads" true
    (Symmetry.is_empty (translation_of text).Translate.Pipeline.symmetry)

(* {1 Canonicalization: idempotence and orbit invariance on reachable
   states} *)

(* [Symmetry.canon] on a whole real term of [nodes]'s intern table:
   split it into its frame, swap the member slots into their
   representatives' names, canonicalize, swap back and materialize. *)
let canon_term spec nodes h =
  let frame, slots = Frame.split nodes h in
  Symmetry.swap spec nodes frame slots;
  ignore (Symmetry.canon spec frame slots);
  Symmetry.swap spec nodes frame slots;
  Frame.materialize frame slots

let test_canon_idempotent_on_reachable_states () =
  let tr = translation_of (family ~threads:4 ~utilization:0.8 ()) in
  let spec = tr.Translate.Pipeline.symmetry in
  let config =
    { Versa.Lts.default_config with stop_at_deadlock = false }
  in
  let lts =
    Versa.Lts.build ~config tr.Translate.Pipeline.defs
      tr.Translate.Pipeline.system
  in
  let nodes = Node.create (Hproc.create ()) in
  for id = 0 to Versa.Lts.num_states lts - 1 do
    let t = Hproc.of_proc (Node.terms nodes) (Versa.Lts.term lts id) in
    let c = canon_term spec nodes t in
    if not (Hproc.equal c (canon_term spec nodes c)) then
      Alcotest.failf "canon not idempotent on state %d" id
  done

(* A member slot can hold a [Par]: translated models never produce one,
   but a definition may unfold into one.  The orbit spec describes the
   system's slots, and a slot that is itself a composition no longer
   lines up with its class's tuples, so canonicalization must decline
   on every such state and leave its successors as they are.  Here
   members [A] and [B] differ only in their names; after one idle step
   both slots hold a [Par], and the state reached by [b!] would be
   folded onto the one reached by [a!] if canonicalization applied. *)
let test_canon_declines_on_par_member () =
  let member_body l =
    Proc.act Action.idle
      (Proc.par
         (Proc.send (Label.make l) Proc.nil)
         (Proc.act Action.idle Proc.nil))
  in
  let defs =
    Defs.of_list [ ("A", [], member_body "a"); ("B", [], member_body "b") ]
  in
  let root =
    Proc.restrict
      (Label.set_of_list [ Label.make "z" ])
      (Proc.par (Proc.call "A" []) (Proc.call "B" []))
  in
  let spec =
    Symmetry.make ~slots:2
      [
        Symmetry.cls
          [
            Symmetry.member ~offset:0 ~width:1 ~labels:[| "a" |]
              ~calls:[| "A" |];
            Symmetry.member ~offset:1 ~width:1 ~labels:[| "b" |]
              ~calls:[| "B" |];
          ];
      ]
  in
  let raw = Versa.Lts.build defs root in
  let reduced = Versa.Lts.build ~symmetry:spec defs root in
  let s = Versa.Lts.stats reduced in
  Alcotest.(check int) "no orbit hits" 0 s.Versa.Lts.orbit_hits;
  Alcotest.(check int)
    "every successor an orbit miss"
    (Versa.Lts.num_transitions reduced)
    s.Versa.Lts.orbit_misses;
  Alcotest.(check int)
    "the raw state count" (Versa.Lts.num_states raw)
    (Versa.Lts.num_states reduced);
  Alcotest.(check int) "states" 5 (Versa.Lts.num_states reduced)

(* {1 The representative's name space}

   An exploration keeps every member's slots in its class
   representative's names, so the members of a class share one node per
   local state.  The slot-node count of a reduced family then grows with
   the local states of one thread, not with the thread count.  Doubling
   a unit-cet family at a fixed utilization doubles each thread's
   period, and with it one thread's local states, so the count may not
   much more than double. *)

let reduced_build ?(config = Versa.Lts.default_config) text =
  let tr = translation_of text in
  ( tr,
    Versa.Lts.build ~config ~edges:false
      ~symmetry:tr.Translate.Pipeline.symmetry tr.Translate.Pipeline.defs
      tr.Translate.Pipeline.system )

let test_slot_nodes_per_class () =
  let slot_nodes threads =
    let _, lts = reduced_build (family ~threads ~utilization:0.9 ()) in
    (Versa.Lts.stats lts).Versa.Lts.slot_nodes
  in
  let check (small, n_small) (large, n_large) =
    if float_of_int n_large > 2.5 *. float_of_int n_small then
      Alcotest.failf
        "family %d@0.9 holds %d slot nodes, over 2.5x the %d of family \
         %d@0.9"
        large n_large n_small small
  in
  let n16 = (16, slot_nodes 16)
  and n32 = (32, slot_nodes 32)
  and n64 = (64, slot_nodes 64) in
  check n16 n32;
  check n32 n64

(* A member's view holds only the labels its swap renames, so its size
   does not grow with the labels its exploration numbers.  The model's
   labels get their ids after many unrelated ones in the exploration's
   intern table, so their ids are large. *)
let test_views_independent_of_label_count () =
  let nodes = Node.create (Hproc.create ()) in
  for i = 1 to 50_000 do
    ignore
      (Hproc.label_id (Node.terms nodes)
         (Label.make (Fmt.str "unrelated_%d" i)))
  done;
  let tr =
    translation_of
      (Gen.periodic_system ~protocol:Aadl.Props.Edf
         (List.init 4 (fun i ->
              Gen.simple_spec
                ~name:(Fmt.str "viewsize%d" (i + 1))
                ~period_ms:8 ~cet_ms:1 ())))
  in
  let frame, _ =
    Frame.split nodes
      (Hproc.of_proc (Node.terms nodes) tr.Translate.Pipeline.system)
  in
  let before = Gc.allocated_bytes () in
  ignore
    (Sys.opaque_identity (Symmetry.views tr.Translate.Pipeline.symmetry frame));
  let words = (Gc.allocated_bytes () -. before) /. float (Sys.word_size / 8) in
  if words > 10_000. then
    Alcotest.failf "the views of 4 threads allocate %.0f words" words

(* Turning a reduced run's states back into real terms: every state is
   a state of the unreduced run, and already canonical. *)
let test_terms_are_canonical_raw_states () =
  let config =
    { Versa.Lts.default_config with stop_at_deadlock = false }
  in
  List.iter
    (fun (name, text) ->
      let tr, reduced = reduced_build ~config text in
      let raw =
        Versa.Lts.build ~config ~edges:false tr.Translate.Pipeline.defs
          tr.Translate.Pipeline.system
      in
      let nodes = Node.create (Hproc.create ()) in
      let intern = Hproc.of_proc (Node.terms nodes) in
      let states = Hashtbl.create (Versa.Lts.num_states raw) in
      for id = 0 to Versa.Lts.num_states raw - 1 do
        Hashtbl.replace states (Hproc.id (intern (Versa.Lts.term raw id))) ()
      done;
      let spec = tr.Translate.Pipeline.symmetry in
      for id = 0 to Versa.Lts.num_states reduced - 1 do
        let t = intern (Versa.Lts.term reduced id) in
        if not (Hashtbl.mem states (Hproc.id t)) then
          Alcotest.failf "%s: reduced state %d is no state of the raw run"
            name id;
        if not (Hproc.equal t (canon_term spec nodes t)) then
          Alcotest.failf "%s: reduced state %d is not canonical" name id
      done)
    (List.map family_model [ (2, 0.8); (3, 1.5); (4, 0.8); (4, 1.3) ]
    @ two_class_models)

(* The family's classes, rebuilt from its fragments the way the
   translation builds them, over a frame of [extra] more slots than the
   system has. *)
let spec_with_extra_slots (tr : Translate.Pipeline.t) ~extra =
  let _, placed =
    List.fold_left
      (fun (off, acc) (f : Translate.Fragment.t) ->
        let width = List.length f.Translate.Fragment.initials in
        (off + width, (f, off, width) :: acc))
      (0, []) tr.Translate.Pipeline.fragments
  in
  let slots =
    List.fold_left (fun n (_, _, w) -> n + w) 0 placed
  in
  let members =
    List.filter_map
      (fun ((f : Translate.Fragment.t), offset, width) ->
        if f.Translate.Fragment.kind <> Translate.Fragment.Thread_unit then
          None
        else
          Some
            (Symmetry.member ~offset ~width
               ~labels:
                 (Array.of_list
                    (List.map Label.name f.Translate.Fragment.restricted))
               ~calls:
                 (Array.of_list
                    (List.map (fun (n, _, _) -> n) f.Translate.Fragment.defs))))
      (List.rev placed)
  in
  Symmetry.make ~slots:(slots + extra) [ Symmetry.cls members ]

(* A spec that does not fit the frame leaves the run unreduced: same
   states in the same order, same rows, no orbit folded. *)
let test_unfitting_spec_is_unreduced () =
  let tr = translation_of (family ~threads:3 ~utilization:0.8 ()) in
  let build symmetry =
    Versa.Lts.build ~symmetry tr.Translate.Pipeline.defs
      tr.Translate.Pipeline.system
  in
  let fitting = build (spec_with_extra_slots tr ~extra:0)
  and unfitting = build (spec_with_extra_slots tr ~extra:1)
  and raw = build Symmetry.empty in
  (* the rebuilt spec is the translation's: it reduces when it fits *)
  Alcotest.(check int)
    "fitting spec: the translation's reduced space"
    (Versa.Lts.num_states (build tr.Translate.Pipeline.symmetry))
    (Versa.Lts.num_states fitting);
  Alcotest.(check int)
    "states" (Versa.Lts.num_states raw)
    (Versa.Lts.num_states unfitting);
  Alcotest.(check int)
    "transitions" (Versa.Lts.num_transitions raw)
    (Versa.Lts.num_transitions unfitting);
  Alcotest.(check int)
    "no orbit hits" 0 (Versa.Lts.stats unfitting).Versa.Lts.orbit_hits;
  for id = 0 to Versa.Lts.num_states raw - 1 do
    if Versa.Lts.term raw id <> Versa.Lts.term unfitting id then
      Alcotest.failf "state %d differs" id;
    if Versa.Lts.successors raw id <> Versa.Lts.successors unfitting id then
      Alcotest.failf "row %d differs" id
  done

(* {1 Equivalence: reduction on vs off} *)

let describe (r : Analysis.Schedulability.t) =
  match r.Analysis.Schedulability.verdict with
  | Analysis.Schedulability.Schedulable -> "schedulable"
  | Analysis.Schedulability.Not_schedulable { scenario; trace } ->
      (* thread identities may legitimately differ between the raw and
         the de-canonicalized scenario (any orbit member is a valid
         witness), so compare the invariants: violation time and
         scenario length *)
      Fmt.str "NOT schedulable at t=%d, %d steps"
        scenario.Analysis.Raise_trace.violation_time
        (Versa.Trace.length trace)
  | Analysis.Schedulability.Inconclusive why -> "inconclusive: " ^ why

let analyze_sym ~symmetry ?(jobs = 1) ?(all = false) root =
  Analysis.Schedulability.analyze
    ~options:
      {
        Analysis.Schedulability.default_options with
        max_states = 300_000;
        all_violations = all;
        jobs;
        symmetry;
      }
    root

let test_example_models_equivalent () =
  let dir =
    match
      List.find_opt Sys.file_exists
        [ "../examples/models"; "examples/models" ]
    with
    | Some d -> d
    | None -> Alcotest.fail "examples/models not found (missing dune deps?)"
  in
  let models =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".aadl")
    |> List.sort compare
  in
  Alcotest.(check bool) "found example models" true (models <> []);
  List.iter
    (fun file ->
      let contents =
        let ic = open_in_bin (Filename.concat dir file) in
        Fun.protect
          ~finally:(fun () -> close_in_noerr ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      in
      let root = Aadl.Instantiate.of_string contents in
      let on = analyze_sym ~symmetry:true root in
      let off = analyze_sym ~symmetry:false root in
      Alcotest.(check string)
        (file ^ ": verdict") (describe off) (describe on);
      (* none of the shipped examples has interchangeable threads, so the
         reduction must be exactly inert there: same visited states *)
      let spec =
        on.Analysis.Schedulability.translation.Translate.Pipeline.symmetry
      in
      if Symmetry.is_empty spec then
        Alcotest.(check int)
          (file ^ ": states (inert)")
          (Versa.Explorer.num_states off.Analysis.Schedulability.exploration)
          (Versa.Explorer.num_states on.Analysis.Schedulability.exploration))
    models

let test_families_equivalent () =
  List.iter
    (fun (name, text, symmetric) ->
      let root = Aadl.Instantiate.of_string text in
      let on = analyze_sym ~symmetry:true ~all:true root in
      let off = analyze_sym ~symmetry:false ~all:true root in
      Alcotest.(check string) (name ^ ": verdict") (describe off) (describe on);
      let states r =
        Versa.Explorer.num_states r.Analysis.Schedulability.exploration
      in
      if states on > states off then
        Alcotest.failf "%s: reduced space larger (%d > %d)" name (states on)
          (states off);
      Alcotest.(check bool)
        (name ^ ": symmetry detected") symmetric
        (not
           (Symmetry.is_empty
              on.Analysis.Schedulability.translation.Translate.Pipeline.symmetry));
      if symmetric && states on >= states off then
        Alcotest.failf "%s: no strict reduction (%d vs %d)" name (states on)
          (states off);
      (* the reduction's bookkeeping reached the stats *)
      let stats = Versa.Explorer.stats on.Analysis.Schedulability.exploration in
      if symmetric then
        Alcotest.(check bool)
          (name ^ ": orbit tallies flowing") true
          (stats.Versa.Lts.orbit_hits + stats.Versa.Lts.orbit_misses > 0))
    (List.map
       (fun ((threads, _) as f) ->
         let name, text = family_model f in
         (name, text, threads >= 2))
       [ (1, 0.5); (2, 0.8); (4, 0.8); (4, 1.3); (6, 0.9); (6, 1.2) ]
    @ List.map (fun (name, text) -> (name, text, true)) two_class_models)

(* The reduction composes with parallel exploration: at jobs 4 the
   verdicts and scenario invariants must match jobs 1, reduction on in
   both. *)
let test_families_parallel_equivalent () =
  List.iter
    (fun (threads, utilization) ->
      let name = Fmt.str "family %d@%.2f" threads utilization in
      let root =
        Aadl.Instantiate.of_string (family ~threads ~utilization ())
      in
      let seq = analyze_sym ~symmetry:true root in
      let par = analyze_sym ~symmetry:true ~jobs:4 root in
      Alcotest.(check string)
        (name ^ ": jobs4 verdict") (describe seq) (describe par);
      Alcotest.(check int)
        (name ^ ": jobs4 states")
        (Versa.Explorer.num_states seq.Analysis.Schedulability.exploration)
        (Versa.Explorer.num_states par.Analysis.Schedulability.exploration))
    [ (4, 0.8); (4, 1.3) ]

(* The orbit tallies count the rows the exploration consumed, so they
   do not depend on [jobs]: at cutover 1 every expansion goes through a
   pool batch, on exhaustive runs and on runs a state budget cuts short
   while a batch has already canonicalized rows past the cut. *)
let test_orbit_tallies_jobs_independent () =
  List.iter
    (fun (name, text) ->
      let tr = translation_of text in
      List.iter
        (fun max_states ->
          let config =
            {
              Versa.Lts.default_config with
              max_states;
              parallel_cutover = 1;
            }
          in
          let tallies jobs =
            let s =
              Versa.Lts.stats
                (Versa.Lts.build ~config ~jobs
                   ~symmetry:tr.Translate.Pipeline.symmetry
                   tr.Translate.Pipeline.defs tr.Translate.Pipeline.system)
            in
            (s.Versa.Lts.orbit_hits, s.Versa.Lts.orbit_misses)
          in
          let label =
            Fmt.str "%s (max_states %a)" name
              Fmt.(option ~none:(any "none") int)
              max_states
          in
          let hits, misses = tallies 1 in
          Alcotest.(check bool) (label ^ ": tallies flowing") true (hits > 0);
          Alcotest.(check (pair int int))
            (label ^ ": jobs 2 tallies") (hits, misses) (tallies 2))
        [ None; Some 40 ])
    (List.map family_model [ (4, 0.8); (4, 1.3) ] @ two_class_models)

(* {1 Soundness: the de-canonicalized scenario is a real path}

   Walk the returned trace through the *raw* (unreduced) prioritized
   semantics from the real initial state: some branch taking exactly
   these steps must exist and end in a deadlock.  The walk backtracks
   because a step label does not always determine the successor — a
   timed action like [{(cpu,1)}] is offered once per thread that could
   run — so validity is "there exists a path with these labels", not
   "the first label match leads somewhere".  This is the witness that
   de-canonicalization produced a genuine counterexample of the original
   model, not of the quotient. *)

let test_scenario_replays_in_raw_semantics () =
  List.iter
    (fun (name, text) ->
      let tr = translation_of text in
      let defs = tr.Translate.Pipeline.defs in
      let r =
        Versa.Explorer.check_deadlock ~engine:Versa.Explorer.On_the_fly
          ~symmetry:tr.Translate.Pipeline.symmetry defs
          tr.Translate.Pipeline.system
      in
      match r.Versa.Explorer.verdict with
      | Versa.Explorer.Deadlock { trace; _ } ->
          let cache = Semantics.make_cache () in
          let rec replay cur = function
            | [] -> Semantics.h_prioritized ~cache defs cur = []
            | step :: rest ->
                List.exists
                  (fun (s, t) -> s = step && replay t rest)
                  (Semantics.h_prioritized ~cache defs cur)
          in
          Alcotest.(check bool)
            (name ^ ": scenario replays to a raw deadlock")
            true
            (replay
               (Hproc.of_proc (Semantics.terms cache)
                  tr.Translate.Pipeline.system)
               (Versa.Trace.steps trace))
      | Versa.Explorer.Deadlock_free | Versa.Explorer.Inconclusive _ ->
          Alcotest.failf "%s: expected a deadlock" name)
    (List.map family_model [ (3, 1.5); (4, 1.3); (6, 1.5) ]
    @ [ List.hd two_class_models ])

(* {1 Properties} *)

let gen_family_params =
  QCheck2.Gen.(pair (int_range 1 5) (int_range 40 140))

let prop_reduction_preserves_verdict =
  QCheck2.Test.make ~name:"symmetry on = symmetry off (random families)"
    ~count:12 gen_family_params (fun (threads, u_pct) ->
      let utilization = float_of_int u_pct /. 100. in
      let root =
        Aadl.Instantiate.of_string (family ~threads ~utilization ())
      in
      describe (analyze_sym ~symmetry:true root)
      = describe (analyze_sym ~symmetry:false root))

let prop_canon_idempotent_random =
  QCheck2.Test.make ~name:"canon is idempotent (random families)" ~count:8
    gen_family_params (fun (threads, u_pct) ->
      let utilization = float_of_int u_pct /. 100. in
      let tr = translation_of (family ~threads ~utilization ()) in
      let spec = tr.Translate.Pipeline.symmetry in
      let config =
        {
          Versa.Lts.default_config with
          max_states = Some 2_000;
          stop_at_deadlock = false;
        }
      in
      let lts =
        Versa.Lts.build ~config tr.Translate.Pipeline.defs
          tr.Translate.Pipeline.system
      in
      let nodes = Node.create (Hproc.create ()) in
      List.for_all
        (fun id ->
          let t = Hproc.of_proc (Node.terms nodes) (Versa.Lts.term lts id) in
          let c = canon_term spec nodes t in
          Hproc.equal c (canon_term spec nodes c))
        (List.init (min 200 (Versa.Lts.num_states lts)) Fun.id))

(* Orbit invariance: swapping two members of a class — renaming each
   one's generated names to the other's and exchanging their slot ranges —
   maps a reachable raw state to another state of its orbit, and both
   must have the same canonical form.  (Idempotence alone would let an
   identity [canon] pass.)  The swaps are the adjacent transpositions of
   every class, which generate all of its permutations. *)
let swaps (tr : Translate.Pipeline.t) =
  let names (f : Translate.Fragment.t) =
    ( List.map Label.name f.Translate.Fragment.restricted,
      List.map (fun (n, _, _) -> n) f.Translate.Fragment.defs )
  in
  let _, placed =
    List.fold_left
      (fun (off, acc) (f : Translate.Fragment.t) ->
        let width = List.length f.Translate.Fragment.initials in
        (off + width, (f, off, width) :: acc))
      (0, []) tr.Translate.Pipeline.fragments
  in
  let units =
    List.filter
      (fun ((f : Translate.Fragment.t), _, _) ->
        f.Translate.Fragment.kind = Translate.Fragment.Thread_unit)
      (List.rev placed)
  in
  let digests =
    List.sort_uniq String.compare
      (List.map (fun (f, _, _) -> f.Translate.Fragment.sym_digest) units)
  in
  List.concat_map
    (fun d ->
      let members =
        List.filter (fun (f, _, _) -> f.Translate.Fragment.sym_digest = d) units
      in
      let rec adjacent = function
        | ((fa, oa, w) :: ((fb, ob, _) :: _ as rest)) ->
            let la, ca = names fa and lb, cb = names fb in
            let rename =
              Symmetry.renaming
                ~labels:(List.combine la lb @ List.combine lb la)
                ~calls:(List.combine ca cb @ List.combine cb ca)
            in
            let swap nodes (p : Proc.t) =
              let frame, slots =
                Frame.split nodes
                  (Hproc.of_proc (Node.terms nodes)
                     (Symmetry.apply_proc rename p))
              in
              if Frame.restriction frame = None then
                Alcotest.fail "state is not a restricted composition";
              Frame.materialize frame
                (Array.mapi
                   (fun i leaf ->
                     if i >= oa && i < oa + w then slots.(ob + i - oa)
                     else if i >= ob && i < ob + w then slots.(oa + i - ob)
                     else leaf)
                   slots)
            in
            swap :: adjacent rest
        | _ -> []
      in
      adjacent members)
    digests

let gen_orbit_model =
  QCheck2.Gen.(
    oneof
      [
        map
          (fun (threads, u_pct) ->
            snd (family_model (threads, float_of_int u_pct /. 100.)))
          (pair (int_range 2 4) (int_range 40 140));
        oneofl (List.map snd two_class_models);
      ])

let prop_canon_orbit_invariant =
  QCheck2.Test.make ~name:"canon is constant on orbits (swapped members)"
    ~count:8 gen_orbit_model (fun text ->
      let tr = translation_of text in
      let spec = tr.Translate.Pipeline.symmetry in
      let config =
        {
          Versa.Lts.default_config with
          max_states = Some 300;
          stop_at_deadlock = false;
        }
      in
      let lts =
        Versa.Lts.build ~config tr.Translate.Pipeline.defs
          tr.Translate.Pipeline.system
      in
      let swaps = swaps tr and nodes = Node.create (Hproc.create ()) in
      swaps <> []
      && List.for_all
           (fun id ->
             let p = Versa.Lts.term lts id in
             let c =
               canon_term spec nodes (Hproc.of_proc (Node.terms nodes) p)
             in
             List.for_all
               (fun swap ->
                 Hproc.equal c (canon_term spec nodes (swap nodes p)))
               swaps)
           (List.init (Versa.Lts.num_states lts) Fun.id))

(* {1 The grouped sort is the (tuple, index) sort}

   One class of [k] members of width [w].  Member [m]'s tuple is drawn,
   in the representative's name space, from a pool of terms: a small
   pool (members repeat tuples heavily), one term (all equal), or
   distinct tuples.  Its slots hold the tuple renamed into [m]'s names.
   [canon_w] must produce the vector and the witness of sorting the
   (tuple, index) pairs with [Hproc.compare_structural]. *)

let pool_term i =
  let k = Proc.call "R" [ Expr.Int i ] in
  match i mod 3 with
  | 0 -> k
  | 1 -> Proc.send (Label.make "r") k
  | _ -> Proc.act Action.idle k

let gen_member_tuples =
  QCheck2.Gen.(
    let* k = int_range 2 12 and* w = int_range 1 2 in
    let tuples pool = array_repeat k (array_repeat w pool) in
    oneof
      [
        (let* size = int_range 1 3 in
         tuples (int_bound (size - 1)));
        return (Array.make k (Array.make w 0));
        map
          (Array.map (fun m -> Array.init w (fun x -> (m * w) + x)))
          (shuffle_a (Array.init k Fun.id));
      ])

let prop_grouped_sort_is_reference =
  QCheck2.Test.make ~name:"grouped canonical sort = (tuple, index) sort"
    ~count:300 gen_member_tuples (fun tuples ->
      let k = Array.length tuples and w = Array.length tuples.(0) in
      let names m =
        if m = 0 then ("r", "R") else (Fmt.str "m%d" m, Fmt.str "M%d" m)
      in
      let out_of_rep m p =
        let l, c = names m in
        Symmetry.apply_proc
          (Symmetry.renaming ~labels:[ ("r", l) ] ~calls:[ ("R", c) ])
          p
      in
      let spec =
        Symmetry.make ~slots:(k * w)
          [
            Symmetry.cls
              (List.init k (fun m ->
                   let l, c = names m in
                   Symmetry.member ~offset:(m * w) ~width:w ~labels:[| l |]
                     ~calls:[| c |]));
          ]
      in
      let root =
        Proc.restrict
          (Label.set_of_list [ Label.make "z" ])
          (Proc.par_list
             (List.concat
                (List.init k (fun m ->
                     List.init w (fun x ->
                         out_of_rep m (pool_term tuples.(m).(x)))))))
      in
      let nodes = Node.create (Hproc.create ()) in
      let intern = Hproc.of_proc (Node.terms nodes) in
      let frame, slots = Frame.split nodes (intern root) in
      Symmetry.swap spec nodes frame slots;
      let witness = Symmetry.canon_w spec frame slots in
      Symmetry.swap spec nodes frame slots;
      (* the reference: sort (tuple, index) pairs structurally *)
      let rep m = Array.map (fun i -> intern (pool_term i)) tuples.(m) in
      let compare_pairs (a, i) (b, j) =
        let rec go x =
          if x >= w then Int.compare i j
          else
            let c = Hproc.compare_structural a.(x) b.(x) in
            if c <> 0 then c else go (x + 1)
        in
        go 0
      in
      let sorted =
        List.sort compare_pairs (List.init k (fun m -> (rep m, m)))
      in
      let order = Array.of_list (List.map snd sorted) in
      let expected =
        Array.concat
          (List.init k (fun j ->
               Array.map
                 (fun i -> intern (out_of_rep j (pool_term i)))
                 tuples.(order.(j))))
      in
      witness = [| order |]
      && Array.for_all2
           (fun (n : Node.t) e -> Hproc.equal n.Node.term e)
           slots expected)

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_reduction_preserves_verdict;
      prop_canon_idempotent_random;
      prop_canon_orbit_invariant;
      prop_grouped_sort_is_reference;
    ]

let () =
  Alcotest.run "symmetry"
    [
      ( "detection",
        [
          Alcotest.test_case "replicated EDF families merge" `Quick
            test_detect_replicated_family;
          Alcotest.test_case "single thread: no class" `Quick
            test_detect_single_thread_no_class;
          Alcotest.test_case "RM/DM families do not merge" `Quick
            test_detect_rm_family_not_merged;
          Alcotest.test_case "almost-identical threads do not merge" `Quick
            test_detect_almost_identical_not_merged;
          Alcotest.test_case "two thread types: two classes" `Quick
            test_detect_two_classes;
          Alcotest.test_case "e6 family is asymmetric" `Quick
            test_detect_e6_asymmetric;
        ] );
      ( "canonicalization",
        [
          Alcotest.test_case "idempotent on reachable states" `Quick
            test_canon_idempotent_on_reachable_states;
          Alcotest.test_case "declines on a member slot holding a Par"
            `Quick test_canon_declines_on_par_member;
        ] );
      ( "name space",
        [
          Alcotest.test_case "one slot node per local state and class"
            `Quick test_slot_nodes_per_class;
          Alcotest.test_case "real terms are canonical raw states" `Quick
            test_terms_are_canonical_raw_states;
          Alcotest.test_case "a spec that does not fit stays unreduced"
            `Quick test_unfitting_spec_is_unreduced;
          Alcotest.test_case "views do not grow with the labels interned"
            `Quick test_views_independent_of_label_count;
        ] );
      ( "equivalence",
        [
          Alcotest.test_case "example models" `Slow
            test_example_models_equivalent;
          Alcotest.test_case "generated families" `Quick
            test_families_equivalent;
          Alcotest.test_case "parallel exploration" `Quick
            test_families_parallel_equivalent;
          Alcotest.test_case "orbit tallies at any jobs" `Quick
            test_orbit_tallies_jobs_independent;
        ] );
      ( "soundness",
        [
          Alcotest.test_case "scenario replays in the raw semantics" `Quick
            test_scenario_replays_in_raw_semantics;
        ] );
      ("properties", qcheck_cases);
    ]
