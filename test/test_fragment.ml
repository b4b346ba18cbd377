(* Tests for the fragment IR behind the translation pipeline: the
   cache must be semantics-preserving (byte-identical composed systems,
   identical verdicts on every shipped example model), the scoped naming
   must keep colliding sanitized paths apart, and the incremental
   sensitivity sweep must agree point-for-point with the from-scratch
   baseline while actually reusing fragments. *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let example_models_dir () =
  List.find_opt Sys.file_exists [ "../examples/models"; "examples/models" ]

let example_models () =
  match example_models_dir () with
  | None -> Alcotest.fail "examples/models not found (missing dune deps?)"
  | Some dir ->
      Sys.readdir dir |> Array.to_list
      |> List.filter (fun f -> Filename.check_suffix f ".aadl")
      |> List.sort compare
      |> List.map (fun f -> (f, read_file (Filename.concat dir f)))

(* The composed system and its definitions, printed: if these strings
   are equal the translations are observably identical. *)
let print_translation (tr : Translate.Pipeline.t) =
  Fmt.str "%a@.%a@.%a" Acsr.Defs.pp tr.Translate.Pipeline.defs Acsr.Proc.pp
    tr.Translate.Pipeline.system Translate.Pipeline.pp_summary tr

let analyze_translation tr =
  Analysis.Schedulability.analyze_translation
    ~options:
      { Analysis.Schedulability.default_options with max_states = 300_000 }
    tr

let describe (r : Analysis.Schedulability.t) =
  match r.Analysis.Schedulability.verdict with
  | Analysis.Schedulability.Schedulable ->
      Fmt.str "schedulable (%d states)"
        (Versa.Explorer.num_states r.Analysis.Schedulability.exploration)
  | Analysis.Schedulability.Not_schedulable { scenario; trace = _ } ->
      Fmt.str "NOT schedulable (%d states): %a"
        (Versa.Explorer.num_states r.Analysis.Schedulability.exploration)
        Analysis.Raise_trace.pp scenario
  | Analysis.Schedulability.Inconclusive why -> "inconclusive: " ^ why

(* {1 Golden: the cache changes nothing, on every example model} *)

let test_cache_is_semantics_preserving () =
  List.iter
    (fun (file, contents) ->
      let root = Aadl.Instantiate.of_string contents in
      let cold = Translate.Pipeline.translate root in
      let cache = Translate.Fragment_cache.create () in
      let once = Translate.Pipeline.translate ~cache root in
      let twice = Translate.Pipeline.translate ~cache root in
      Alcotest.(check string)
        (file ^ ": cached translation is byte-identical")
        (print_translation cold) (print_translation once);
      Alcotest.(check string)
        (file ^ ": warm translation is byte-identical")
        (print_translation cold) (print_translation twice);
      Alcotest.(check int)
        (file ^ ": cold run reuses nothing") 0
        once.Translate.Pipeline.fragments_reused;
      (* every cacheable fragment hits on the second run *)
      let cacheable =
        List.length twice.Translate.Pipeline.fragments
        - if Translate.Modal.find root = None then 0 else 1
      in
      Alcotest.(check int)
        (file ^ ": warm run reuses every cacheable fragment")
        cacheable
        twice.Translate.Pipeline.fragments_reused;
      Alcotest.(check string)
        (file ^ ": verdict unchanged by the cache")
        (describe (analyze_translation cold))
        (describe (analyze_translation twice)))
    (example_models ())

(* {1 Naming: colliding sanitized paths stay distinct} *)

(* [a] containing thread [b] sanitizes to "a_b" — exactly the top-level
   thread subcomponent's name.  Before scoped naming this generated two
   processes called Task_a_b ("duplicate generated process"); the scope
   must qualify the later claimant and keep the system well-formed. *)
let colliding_model =
  "processor cpu\n\
   properties\n\
  \  Scheduling_Protocol => RATE_MONOTONIC_PROTOCOL;\n\
   end cpu;\n\n\
   thread worker\n\
   properties\n\
  \  Dispatch_Protocol => Periodic;\n\
  \  Period => 8 ms;\n\
  \  Compute_Execution_Time => 1 ms;\n\
  \  Compute_Deadline => 8 ms;\n\
   end worker;\n\n\
   process a\n\
   end a;\n\n\
   process implementation a.impl\n\
   subcomponents\n\
  \  b: thread worker;\n\
   end a.impl;\n\n\
   system root\n\
   end root;\n\n\
   system implementation root.impl\n\
   subcomponents\n\
  \  cpu1: processor cpu;\n\
  \  a: process a.impl;\n\
  \  a_b: thread worker;\n\
   properties\n\
  \  Actual_Processor_Binding => reference (cpu1) applies to a.b;\n\
  \  Actual_Processor_Binding => reference (cpu1) applies to a_b;\n\
   end root.impl;\n"

let test_colliding_names_translate () =
  let root = Aadl.Instantiate.of_string colliding_model in
  let tr = Translate.Pipeline.translate root in
  Alcotest.(check int)
    "both threads generated" 2 tr.Translate.Pipeline.num_thread_processes;
  (* the registry still maps generated names back to the REAL paths *)
  let meanings =
    Translate.Naming.entries tr.Translate.Pipeline.registry
    |> List.filter_map (fun (_, m) ->
           match m with
           | Translate.Naming.Dispatch_of p -> Some (String.concat "." p)
           | _ -> None)
    |> List.sort_uniq compare
  in
  Alcotest.(check (list string))
    "registry names both real paths" [ "a.b"; "a_b" ] meanings;
  (* and the system analyzes normally: two light threads, schedulable *)
  match (analyze_translation tr).Analysis.Schedulability.verdict with
  | Analysis.Schedulability.Schedulable -> ()
  | _ -> Alcotest.fail "colliding-name system should be schedulable"

(* {1 Sensitivity: incremental sweep equals from-scratch sweep} *)

let test_incremental_sweep_matches () =
  let root = Aadl.Instantiate.of_string (Gen.cruise_control ()) in
  let thread = [ "hci"; "ref_speed" ] in
  let cets = [ 1; 2; 3; 4 ] in
  let sweep reuse =
    Analysis.Sensitivity.sweep
      ~options:{ Analysis.Sensitivity.default_options with reuse }
      ~thread ~cets root
  in
  let incremental = sweep true and scratch = sweep false in
  List.iter2
    (fun (i : Analysis.Sensitivity.point) (s : Analysis.Sensitivity.point) ->
      Alcotest.(check bool)
        (Fmt.str "cet %d: same verdict" i.Analysis.Sensitivity.cet)
        s.Analysis.Sensitivity.schedulable i.Analysis.Sensitivity.schedulable)
    incremental scratch;
  let reused ps =
    List.fold_left
      (fun acc (p : Analysis.Sensitivity.point) ->
        acc + p.Analysis.Sensitivity.fragments_reused)
      0 ps
  in
  Alcotest.(check bool)
    "incremental sweep reuses fragments" true
    (reused incremental > 0);
  Alcotest.(check int) "from-scratch sweep reuses nothing" 0 (reused scratch);
  (* and the binary-search breakdown agrees with itself under reuse *)
  let breakdown reuse =
    (Analysis.Sensitivity.breakdown
       ~options:{ Analysis.Sensitivity.default_options with reuse }
       ~thread root)
      .Analysis.Sensitivity.breakdown_cmax
  in
  Alcotest.(check (option int))
    "breakdown agrees with from-scratch" (breakdown false) (breakdown true)

let test_sweep_unknown_thread_rejected () =
  let root = Aadl.Instantiate.of_string (Gen.cruise_control ()) in
  match
    Analysis.Sensitivity.sweep ~thread:[ "no"; "such" ] ~cets:[ 1 ] root
  with
  | exception Aadl.Diag.Error _ -> ()
  | _ -> Alcotest.fail "unknown thread must be rejected"

let () =
  Alcotest.run "fragment"
    [
      ( "cache",
        [
          Alcotest.test_case "semantics-preserving on all examples" `Quick
            test_cache_is_semantics_preserving;
        ] );
      ( "naming",
        [
          Alcotest.test_case "colliding sanitized paths" `Quick
            test_colliding_names_translate;
        ] );
      ( "sensitivity",
        [
          Alcotest.test_case "incremental sweep matches" `Quick
            test_incremental_sweep_matches;
          Alcotest.test_case "unknown thread rejected" `Quick
            test_sweep_unknown_thread_rejected;
        ] );
    ]
