(* Tests for the analysis service layer: the JSON codec, the LRU verdict
   cache, content-addressed cache keys, the runner (cache hits return the
   stored verdict and scenario without re-exploration; exhausted budgets
   degrade to analytic bounds instead of hanging), the priority
   scheduler with cancellation, and the analytic fallback ladder. *)

let light = Gen.periodic_system Gen.light_set
let overloaded = Gen.periodic_system Gen.overloaded_set

(* {1 JSON} *)

let test_json_roundtrip () =
  List.iter
    (fun text ->
      match Service.Json.parse text with
      | Error msg -> Alcotest.failf "%s: %s" text msg
      | Ok v ->
          Alcotest.(check string) text text (Service.Json.to_string v))
    [
      "null";
      "true";
      "[1,-2,3]";
      {|{"a":1,"b":[true,false,null],"c":{"d":"x"}}|};
      {|"line\nbreak \"quoted\" back\\slash"|};
      "[]";
      "{}";
    ]

let test_json_escapes () =
  (match Service.Json.parse {|"Aé€"|} with
  | Ok (Service.Json.String s) ->
      Alcotest.(check string) "utf-8 decoding" "A\xc3\xa9\xe2\x82\xac" s
  | Ok _ | Error _ -> Alcotest.fail "\\u escapes");
  match Service.Json.parse (Service.Json.to_string (Service.Json.String "\x01\ttab")) with
  | Ok (Service.Json.String s) -> Alcotest.(check string) "control chars" "\x01\ttab" s
  | Ok _ | Error _ -> Alcotest.fail "control-char round-trip"

let test_json_numbers () =
  (match Service.Json.parse "[0.5,1e3,-2.25]" with
  | Ok (Service.Json.List [ a; b; c ]) ->
      Alcotest.(check (option (float 1e-9)))
        "floats"
        (Some 0.5) (Service.Json.to_float a);
      Alcotest.(check (option (float 1e-9))) "exp" (Some 1000.)
        (Service.Json.to_float b);
      Alcotest.(check (option (float 1e-9)))
        "negative" (Some (-2.25)) (Service.Json.to_float c)
  | Ok _ | Error _ -> Alcotest.fail "number forms");
  Alcotest.(check (option int))
    "integral float as int" (Some 7)
    (Option.bind (Result.to_option (Service.Json.parse "7.0")) Service.Json.to_int)

let test_json_errors () =
  List.iter
    (fun text ->
      match Service.Json.parse text with
      | Ok _ -> Alcotest.failf "%S should not parse" text
      | Error _ -> ())
    [ ""; "{"; "[1,]"; {|{"a" 1}|}; "tru"; "1 2"; {|"unterminated|}; "nul" ]

(* Property: [to_string] escapes any byte string — control characters,
   backslashes, invalid UTF-8 — into a form [parse] maps back to the
   identical bytes.  The printer passes bytes >= 0x80 through raw (JSON
   strings are "UTF-8" by convention but the codec must not corrupt
   what it is given), so arbitrary bytes round-trip exactly. *)
let qcheck_json_string_roundtrip =
  QCheck.Test.make ~count:500 ~name:"string escape round-trip"
    QCheck.(string_gen (Gen.char_range '\x00' '\xff'))
    (fun s ->
      match Service.Json.parse (Service.Json.to_string (Service.Json.String s)) with
      | Ok (Service.Json.String s') -> String.equal s s'
      | Ok _ | Error _ -> false)

(* Property: a \uXXXX escape (any BMP scalar value) parses to its UTF-8
   encoding, and the decoded string survives a reprint/reparse cycle. *)
let qcheck_json_u_escape_roundtrip =
  QCheck.Test.make ~count:500 ~name:"\\u escape decode + round-trip"
    QCheck.(
      make
        Gen.(
          (* skip the surrogate range: lone surrogates are not scalars *)
          map
            (fun n -> if n >= 0xD800 && n <= 0xDFFF then n land 0xFF else n)
            (int_range 1 0xFFFF)))
    (fun cp ->
      let literal = Printf.sprintf "\"\\u%04x\"" cp in
      match Service.Json.parse literal with
      | Ok (Service.Json.String s) -> (
          match
            Service.Json.parse
              (Service.Json.to_string (Service.Json.String s))
          with
          | Ok (Service.Json.String s') -> String.equal s s'
          | Ok _ | Error _ -> false)
      | Ok _ | Error _ -> false)

(* Property: any JSON value the printer can emit reparses to an equal
   value (strings drawn from full byte range, ints, nesting). *)
let qcheck_json_value_roundtrip =
  let gen_value =
    QCheck.Gen.(
      sized @@ fix (fun self n ->
          let leaf =
            oneof
              [
                return Service.Json.Null;
                map (fun b -> Service.Json.Bool b) bool;
                map (fun i -> Service.Json.Int i) small_signed_int;
                map
                  (fun s -> Service.Json.String s)
                  (string_size ~gen:(char_range '\x00' '\xff') (0 -- 10));
              ]
          in
          if n <= 0 then leaf
          else
            frequency
              [
                (3, leaf);
                ( 1,
                  map
                    (fun l -> Service.Json.List l)
                    (list_size (0 -- 4) (self (n / 2))) );
                ( 1,
                  map
                    (fun kvs -> Service.Json.Obj kvs)
                    (list_size (0 -- 4)
                       (pair
                          (string_size ~gen:(char_range '\x00' '\xff') (0 -- 6))
                          (self (n / 2)))) );
              ]))
  in
  QCheck.Test.make ~count:300 ~name:"value print/parse round-trip"
    (QCheck.make gen_value)
    (fun v ->
      match Service.Json.parse (Service.Json.to_string v) with
      | Ok v' -> v = v'
      | Error _ -> false)

(* {1 LRU cache} *)

let test_lru_basics () =
  let c = Service.Lru.create ~capacity:2 in
  Alcotest.(check (option int)) "miss on empty" None (Service.Lru.find c "a");
  Service.Lru.add c "a" 1;
  Service.Lru.add c "b" 2;
  Alcotest.(check (option int)) "hit a" (Some 1) (Service.Lru.find c "a");
  (* "b" is now least recently used; adding "c" evicts it *)
  Service.Lru.add c "c" 3;
  Alcotest.(check (option int)) "b evicted" None (Service.Lru.find c "b");
  Alcotest.(check (option int)) "a kept" (Some 1) (Service.Lru.find c "a");
  Alcotest.(check (option int)) "c kept" (Some 3) (Service.Lru.find c "c");
  let k = Service.Lru.counters c in
  Alcotest.(check int) "hits" 3 k.Service.Lru.hits;
  Alcotest.(check int) "misses" 2 k.Service.Lru.misses;
  Alcotest.(check int) "evictions" 1 k.Service.Lru.evictions;
  Alcotest.(check int) "size" 2 k.Service.Lru.size

let test_lru_replace_is_not_eviction () =
  let c = Service.Lru.create ~capacity:2 in
  Service.Lru.add c "a" 1;
  Service.Lru.add c "a" 10;
  Alcotest.(check (option int)) "replaced" (Some 10) (Service.Lru.find c "a");
  Alcotest.(check int)
    "no eviction" 0
    (Service.Lru.counters c).Service.Lru.evictions;
  Alcotest.(check int) "one entry" 1 (Service.Lru.length c)

let test_lru_capacity_clamped () =
  let c = Service.Lru.create ~capacity:0 in
  Alcotest.(check int) "clamped to 1" 1 (Service.Lru.capacity c);
  Service.Lru.add c "a" 1;
  Service.Lru.add c "b" 2;
  Alcotest.(check int) "never over capacity" 1 (Service.Lru.length c)

let test_lru_single_flight () =
  let c = Service.Lru.create ~capacity:4 in
  (match Service.Lru.find_or_lease c "a" with
  | `Lease -> ()
  | `Hit _ -> Alcotest.fail "first probe must take the lease");
  Service.Lru.fulfill c "a" 1;
  (match Service.Lru.find_or_lease c "a" with
  | `Hit v -> Alcotest.(check int) "fulfilled value" 1 v
  | `Lease -> Alcotest.fail "fulfilled key must hit");
  (* an abandoned lease stores nothing and hands the key back *)
  (match Service.Lru.find_or_lease c "b" with
  | `Lease -> Service.Lru.abandon c "b"
  | `Hit _ -> Alcotest.fail "fresh key must take the lease");
  (match Service.Lru.find_or_lease c "b" with
  | `Lease -> Service.Lru.abandon c "b"
  | `Hit _ -> Alcotest.fail "abandoned key must lease again");
  let k = Service.Lru.counters c in
  Alcotest.(check int) "hits" 1 k.Service.Lru.hits;
  Alcotest.(check int) "misses" 3 k.Service.Lru.misses

(* {1 Cache keys} *)

let test_key_stability_and_divergence () =
  let root = Aadl.Instantiate.of_string light in
  let req = Service.Job.request ~id:"x" (Service.Job.Inline light) in
  let k1 = Service.Key.of_request root req in
  let k2 =
    Service.Key.of_request root
      (Service.Job.request ~id:"completely-different-id" ~priority:9
         (Service.Job.Inline light))
  in
  Alcotest.(check string)
    "id and priority do not key" k1.Service.Key.merkle k2.Service.Key.merkle;
  let k_edf =
    Service.Key.of_request root
      (Service.Job.request ~id:"x" ~protocol:Aadl.Props.Edf
         (Service.Job.Inline light))
  in
  Alcotest.(check bool)
    "protocol keys" true
    (k1.Service.Key.merkle <> k_edf.Service.Key.merkle);
  let k_budget =
    Service.Key.of_request root
      (Service.Job.request ~id:"x" ~max_states:7 (Service.Job.Inline light))
  in
  Alcotest.(check bool)
    "state budget keys" true
    (k1.Service.Key.merkle <> k_budget.Service.Key.merkle);
  (* an options-only change keeps every fragment leaf identical — the
     attribution signal for "same system, different budget" *)
  Alcotest.(check (list string))
    "options-only miss has no changed fragments" []
    (Service.Key.changed_fragments ~prev:k1 k_budget);
  let other = Aadl.Instantiate.of_string overloaded in
  Alcotest.(check bool)
    "model keys" true
    (k1.Service.Key.merkle
    <> (Service.Key.of_request other req).Service.Key.merkle)

let test_key_merkle_attribution () =
  (* perturb one thread's execution time: same structure digest, and the
     leaf diff names exactly that thread's fragment *)
  let base = Gen.periodic_system Gen.light_set in
  let edited =
    Gen.periodic_system
      [
        Gen.simple_spec ~name:"t1" ~period_ms:4 ~cet_ms:1 ();
        Gen.simple_spec ~name:"t2" ~period_ms:6 ~cet_ms:3 ();
      ]
  in
  let req = Service.Job.request ~id:"x" (Service.Job.Inline base) in
  let k_base = Service.Key.of_request (Aadl.Instantiate.of_string base) req in
  let k_edit = Service.Key.of_request (Aadl.Instantiate.of_string edited) req in
  Alcotest.(check bool)
    "fragment leaves present" true
    (k_base.Service.Key.fragments <> []);
  Alcotest.(check string)
    "same structure" k_base.Service.Key.structure k_edit.Service.Key.structure;
  Alcotest.(check bool)
    "different merkle" true
    (k_base.Service.Key.merkle <> k_edit.Service.Key.merkle);
  Alcotest.(check (list string))
    "miss attributed to the edited thread" [ "thread:t2_i" ]
    (Service.Key.changed_fragments ~prev:k_base k_edit);
  (* an untranslatable model falls back to the whole-instance key *)
  let broken =
    Aadl.Instantiate.of_string
      "system root\nend root;\nsystem implementation root.impl\nend root.impl;"
  in
  let k_broken = Service.Key.of_request broken req in
  Alcotest.(check string)
    "untranslatable fallback" "untranslatable" k_broken.Service.Key.structure

(* {1 Runner: cache hits and graceful degradation} *)

let test_runner_cache_hit_identical () =
  (* the same unschedulable model twice: the second run must be a cache
     hit carrying the identical verdict AND raised scenario *)
  let config = Service.Runner.with_cache Service.Runner.default_config in
  let req id = Service.Job.request ~id (Service.Job.Inline overloaded) in
  let first = Service.Runner.run config (req "first") in
  let second = Service.Runner.run config (req "second") in
  Alcotest.(check bool) "first not cached" false first.Service.Job.cached;
  Alcotest.(check bool) "second cached" true second.Service.Job.cached;
  Alcotest.(check string) "ids echoed" "second" second.Service.Job.id;
  (match (first.Service.Job.verdict, second.Service.Job.verdict) with
  | ( Service.Job.Not_schedulable { violation_time = t1; scenario = s1 },
      Service.Job.Not_schedulable { violation_time = t2; scenario = s2 } ) ->
      Alcotest.(check int) "same violation time" t1 t2;
      Alcotest.(check string) "same raised scenario" s1 s2
  | _ -> Alcotest.fail "expected two not_schedulable verdicts");
  Alcotest.(check int)
    "same states metadata" first.Service.Job.states second.Service.Job.states;
  let cache = Option.get config.Service.Runner.cache in
  let k = Service.Lru.counters cache in
  Alcotest.(check int) "exactly one hit" 1 k.Service.Lru.hits;
  Alcotest.(check int) "one miss" 1 k.Service.Lru.misses

let test_runner_attribution () =
  (* four jobs through one cached config: base (novel miss), base again
     (hit), a bigger state budget (options-only miss), an edited thread
     (miss attributed to that thread's fragment) *)
  let base = Gen.periodic_system Gen.light_set in
  let edited =
    Gen.periodic_system
      [
        Gen.simple_spec ~name:"t1" ~period_ms:4 ~cet_ms:1 ();
        Gen.simple_spec ~name:"t2" ~period_ms:6 ~cet_ms:3 ();
      ]
  in
  let config = Service.Runner.with_cache Service.Runner.default_config in
  let run id ?max_states text =
    ignore
      (Service.Runner.run config
         (Service.Job.request ~id ?max_states (Service.Job.Inline text)))
  in
  run "a" base;
  run "b" base;
  run "c" ~max_states:9_999_999 base;
  run "d" edited;
  let c = Service.Runner.attribution_counters config in
  Alcotest.(check int) "one novel miss" 1 c.Service.Runner.novel;
  Alcotest.(check int) "one options-only miss" 1 c.Service.Runner.options_only;
  Alcotest.(check (list (pair string int)))
    "edited thread charged with one miss"
    [ ("thread:t2_i", 1) ]
    c.Service.Runner.changed_components;
  let k = Service.Lru.counters (Option.get config.Service.Runner.cache) in
  Alcotest.(check int) "one hit" 1 k.Service.Lru.hits;
  Alcotest.(check int) "three misses" 3 k.Service.Lru.misses

(* A long-lived shard sees model after model: its miss attribution
   keeps at most the verdict cache's capacity of structures and of
   fragment ids.  Each of 1,000 structures misses twice, the second time
   with its one fragment edited, so both tables see 1,000 keys. *)
let test_attribution_bounded () =
  let capacity = 16 in
  let config =
    Service.Runner.with_cache ~capacity Service.Runner.default_config
  in
  for i = 0 to 999 do
    let key digest =
      Service.Key.of_fragments
        [ (Printf.sprintf "thread:t%d_i" i, digest) ]
        ~options:"o"
    in
    Service.Runner.attribute config (key "d0");
    Service.Runner.attribute config (key "d1")
  done;
  let structures, fragments = Service.Runner.attribution_sizes config in
  Alcotest.(check bool)
    (Printf.sprintf "%d structures remembered (at most %d)" structures
       capacity)
    true (structures <= capacity);
  Alcotest.(check bool)
    (Printf.sprintf "%d fragment ids counted (at most %d)" fragments capacity)
    true (fragments <= capacity);
  let c = Service.Runner.attribution_counters config in
  Alcotest.(check int) "every structure novel once" 1000 c.Service.Runner.novel;
  Alcotest.(check (list (pair string int)))
    "the latest edits are still charged"
    [ ("thread:t999_i", 1) ]
    (List.filter
       (fun (id, _) -> id = "thread:t999_i")
       c.Service.Runner.changed_components)

let check_degraded (o : Service.Job.outcome) =
  Alcotest.(check bool) "degraded" true o.Service.Job.degraded;
  match o.Service.Job.verdict with
  | Service.Job.Bounded _ | Service.Job.Unknown _ -> ()
  | v ->
      Alcotest.failf "expected a degraded verdict, got %s"
        (Service.Job.verdict_tag v)

let test_runner_degrades_on_timeout () =
  (* the largest example model with a second-scale budget, on the
     virtual clock: every clock observation costs 10 virtual ms, so the
     2.5 s budget expires deterministically partway through the
     exploration and the runner falls back to the analytic ladder — a
     qualified verdict, never a hang, in wall-clock milliseconds *)
  let req =
    Service.Job.request ~id:"starved" ~timeout_s:2.5
      (Service.Job.Inline (Gen.avionics ()))
  in
  let sim = Timed.Sim.create ~auto_advance:0.01 () in
  let o =
    Timed.Sim.with_clock sim (fun () ->
        Service.Runner.run Service.Runner.default_config req)
  in
  check_degraded o;
  Alcotest.(check bool)
    "the job consumed its virtual budget" true
    (o.Service.Job.wall_s >= 2.5);
  (* the degenerate real-clock case: a zero budget truncates at the
     first merge step *)
  let o0 =
    Service.Runner.run Service.Runner.default_config
      (Service.Job.request ~id:"starved0" ~timeout_s:0.
         (Service.Job.Inline (Gen.avionics ())))
  in
  check_degraded o0

(* A shard analyses model after model in one process, so whatever an
   analysis builds must be dropped with it.  500 distinct 4-thread RM
   models, each with thread names of its own, run through the runner,
   with the verdict cache off and on; after a full major collection,
   the live heap at model 500 may exceed the one at model 100 by a
   bound that does not depend on the model count.  Keeping each model's
   interned terms and labels costs about 6.6k words a model, 2.6M over
   these 400; keeping each model's realized fragments, about 590k. *)
let runner_memory_bounded make_config () =
  let config = make_config () in
  let live_words () =
    Gc.full_major ();
    (Gc.stat ()).Gc.live_words
  in
  let model seed =
    Gen.periodic_system
      (List.map
         (fun (s : Gen.periodic_spec) ->
           { s with Gen.name = Fmt.str "m%d_%s" seed s.Gen.name })
         (Gen.random_specs ~seed ~n:4 ~u:0.7))
  in
  let run seed =
    ignore
      (Service.Runner.run config
         (Service.Job.request ~id:(string_of_int seed)
            (Service.Job.Inline (model seed))))
  in
  for seed = 1 to 100 do
    run seed
  done;
  let at_100 = live_words () in
  for seed = 101 to 500 do
    run seed
  done;
  let growth = live_words () - at_100 in
  (* [config] is read after the last measurement, so whatever the runner
     keeps across jobs is live at both. *)
  let kept = Obj.reachable_words (Obj.repr config) in
  if growth > 200_000 then
    Alcotest.failf
      "live heap grew by %d words from model 100 to model 500 (%d words \
       reachable from the runner's config)"
      growth kept

let test_runner_memory_bounded =
  runner_memory_bounded (fun () -> Service.Runner.default_config)

let test_runner_memory_bounded_cached =
  runner_memory_bounded (fun () ->
      Service.Runner.with_cache Service.Runner.default_config)

let test_runner_failure_is_an_outcome () =
  let o =
    Service.Runner.run Service.Runner.default_config
      (Service.Job.request ~id:"broken"
         (Service.Job.Inline "system s end s; garbage"))
  in
  match o.Service.Job.verdict with
  | Service.Job.Failed _ -> ()
  | v -> Alcotest.failf "expected error, got %s" (Service.Job.verdict_tag v)

(* A model the front end rejects comes back as a located error outcome
   from the protocol, like any failed job: it must not escape [handle]
   (that would kill the serving connection without a reply). *)
let test_protocol_rejected_model_is_a_reply () =
  let model = Gen.cruise_control () in
  let at =
    let sub = "Period => 100 ms;" in
    let rec find i =
      if String.sub model i (String.length sub) = sub then i else find (i + 1)
    in
    find 0 + String.length "Period => "
  in
  let model =
    String.sub model 0 at ^ "3 ps"
    ^ String.sub model (at + 6) (String.length model - at - 6)
  in
  let line =
    Service.Json.to_string
      (Service.Json.Obj
         [ ("id", Service.Json.String "ps"); ("model", Service.Json.String model) ])
  in
  let proto = Service.Protocol.create Service.Runner.default_config in
  let reply, _ = Service.Protocol.handle proto line in
  let field name =
    match Service.Json.parse reply with
    | Ok json -> Option.bind (Service.Json.member name json) Service.Json.to_str
    | Error msg -> Alcotest.failf "reply is not JSON: %s" msg
  in
  let loc = Aadl.Diag.loc_of_offset model at in
  Alcotest.(check (option string)) "verdict" (Some "error") (field "verdict");
  Alcotest.(check (option string))
    "reason" (Some (Fmt.str "%d:%d: error: 3 ps is not a whole number of nanoseconds"
       loc.Aadl.Ast.line loc.Aadl.Ast.col))
    (field "reason")

(* A non-positive quantum is a rejected request, answered like a rejected
   model: it must not escape [handle] either. *)
let test_protocol_zero_quantum_is_a_reply () =
  let proto = Service.Protocol.create Service.Runner.default_config in
  List.iter
    (fun q ->
      let line =
        Service.Json.to_string
          (Service.Json.Obj
             [
              ("id", Service.Json.String "q");
              ("model", Service.Json.String light);
              ("quantum_us", Service.Json.Int q);
            ])
      in
      let reply, _ = Service.Protocol.handle proto line in
      let field name =
        match Service.Json.parse reply with
        | Ok json ->
            Option.bind (Service.Json.member name json) Service.Json.to_str
        | Error msg -> Alcotest.failf "reply is not JSON: %s" msg
      in
      Alcotest.(check (option string))
        "verdict" (Some "error") (field "verdict");
      Alcotest.(check (option string))
        "reason"
        (Some
           (Fmt.str "error: quantum must be positive, got %a" Aadl.Time.pp
              (Aadl.Time.make q Aadl.Time.Us)))
        (field "reason"))
    [ 0; -5 ]

(* {1 Scheduler} *)

let test_scheduler_priority_order_and_submission_output () =
  let config = Service.Runner.default_config in
  let s = Service.Scheduler.create config in
  let submit id priority =
    ignore
      (Service.Scheduler.submit s
         (Service.Job.request ~id ~priority (Service.Job.Inline light)))
  in
  submit "low" 0;
  submit "high" 5;
  submit "mid" 3;
  let outcomes = Service.Scheduler.run_all s in
  Alcotest.(check (list string))
    "outcomes in submission order" [ "low"; "high"; "mid" ]
    (List.map (fun (o : Service.Job.outcome) -> o.Service.Job.id) outcomes);
  (* priority decides execution order: with a fresh shared cache and
     equal models, exactly the first-executed job misses *)
  let config = Service.Runner.with_cache Service.Runner.default_config in
  let s = Service.Scheduler.create config in
  let h_low =
    Service.Scheduler.submit s
      (Service.Job.request ~id:"low" ~priority:0 (Service.Job.Inline light))
  in
  let h_high =
    Service.Scheduler.submit s
      (Service.Job.request ~id:"high" ~priority:9 (Service.Job.Inline light))
  in
  ignore (Service.Scheduler.run_all s);
  let cached h =
    (Option.get (Service.Scheduler.outcome h)).Service.Job.cached
  in
  Alcotest.(check bool) "high-priority ran first" false (cached h_high);
  Alcotest.(check bool) "low-priority hit its result" true (cached h_low)

let test_scheduler_parallel_agrees () =
  let run ~cache workers =
    let config =
      if cache then Service.Runner.with_cache Service.Runner.default_config
      else Service.Runner.default_config
    in
    let s = Service.Scheduler.create ~workers config in
    List.iteri
      (fun i text ->
        ignore
          (Service.Scheduler.submit s
             (Service.Job.request
                ~id:(string_of_int i)
                (Service.Job.Inline text))))
      [ light; overloaded; Gen.cruise_control (); light ];
    List.map
      (fun (o : Service.Job.outcome) ->
        (o.Service.Job.id, Service.Job.verdict_tag o.Service.Job.verdict))
      (Service.Scheduler.run_all s)
  in
  let reference = run ~cache:false 1 in
  List.iter
    (fun (cache, workers) ->
      Alcotest.(check (list (pair string string)))
        (Fmt.str "cache %b, %d workers vs cache off, 1 worker" cache workers)
        reference (run ~cache workers))
    [ (false, 4); (true, 1); (true, 4) ]

let test_scheduler_concurrent_duplicates_coalesce () =
  (* six duplicates on four workers: single-flight leasing means exactly
     one exploration happens no matter how the workers interleave, so
     the counters are as deterministic as a sequential run *)
  let config = Service.Runner.with_cache Service.Runner.default_config in
  let s = Service.Scheduler.create ~workers:4 config in
  for i = 1 to 6 do
    ignore
      (Service.Scheduler.submit s
         (Service.Job.request
            ~id:(string_of_int i)
            (Service.Job.Inline overloaded)))
  done;
  let outcomes = Service.Scheduler.run_all s in
  let cached_flags =
    List.map (fun (o : Service.Job.outcome) -> o.Service.Job.cached) outcomes
  in
  Alcotest.(check int)
    "exactly one exploration" 1
    (List.length (List.filter not cached_flags));
  let tags =
    List.sort_uniq compare
      (List.map
         (fun (o : Service.Job.outcome) ->
           Service.Job.verdict_tag o.Service.Job.verdict)
         outcomes)
  in
  Alcotest.(check (list string)) "all verdicts agree" [ "not_schedulable" ] tags;
  let k = Service.Lru.counters (Option.get config.Service.Runner.cache) in
  Alcotest.(check int) "five hits" 5 k.Service.Lru.hits;
  Alcotest.(check int) "one miss" 1 k.Service.Lru.misses

let test_scheduler_cancellation () =
  let s = Service.Scheduler.create Service.Runner.default_config in
  let h =
    Service.Scheduler.submit s
      (Service.Job.request ~id:"victim" (Service.Job.Inline light))
  in
  Service.Scheduler.cancel h;
  let outcomes = Service.Scheduler.run_all s in
  match (List.hd outcomes).Service.Job.verdict with
  | Service.Job.Cancelled -> ()
  | v -> Alcotest.failf "expected cancelled, got %s" (Service.Job.verdict_tag v)

(* {1 Request decoding} *)

let test_request_of_json () =
  let parse text =
    Result.bind (Service.Json.parse text) Service.Job.request_of_json
  in
  (match parse {|{"id":"a","file":"m.aadl","protocol":"edf","timeout_s":2.5,"priority":3}|} with
  | Ok r ->
      Alcotest.(check string) "id" "a" r.Service.Job.id;
      (match r.Service.Job.source with
      | Service.Job.File f -> Alcotest.(check string) "file" "m.aadl" f
      | Service.Job.Inline _ -> Alcotest.fail "expected file source");
      Alcotest.(check bool)
        "protocol" true
        (r.Service.Job.protocol = Some Aadl.Props.Edf);
      Alcotest.(check (option (float 1e-9)))
        "timeout" (Some 2.5) r.Service.Job.timeout_s;
      Alcotest.(check int) "priority" 3 r.Service.Job.priority
  | Error msg -> Alcotest.fail msg);
  List.iter
    (fun text ->
      match parse text with
      | Ok _ -> Alcotest.failf "%S should be rejected" text
      | Error _ -> ())
    [
      {|{"file":"m.aadl"}|};
      {|{"id":"a"}|};
      {|{"id":"a","file":"m.aadl","model":"..."}|};
      {|{"id":"a","file":"m.aadl","protocol":"round-robin"}|};
      {|{"id":"a","file":"m.aadl","priority":"urgent"}|};
      {|{"id":"a","file":"m.aadl","max_states":"many"}|};
      {|{"id":"a","file":"m.aadl","max_states":0}|};
      {|{"id":"a","file":"m.aadl","max_states":-5}|};
      {|{"id":"a","file":"m.aadl","timeout_s":-1}|};
      {|[1,2]|};
    ]

let test_manifest_lines () =
  let text =
    "# comment\n\
     {\"id\":\"a\",\"file\":\"one.aadl\"}\n\
     \n\
     {\"id\":\"b\",\"model\":\"inline\"}\n"
  in
  (match Service.Job.parse_manifest text with
  | Ok [ a; b ] ->
      Alcotest.(check string) "first" "a" a.Service.Job.id;
      Alcotest.(check string) "second" "b" b.Service.Job.id
  | Ok _ -> Alcotest.fail "expected two requests"
  | Error msg -> Alcotest.fail msg);
  match Service.Job.parse_manifest "{\"id\":\"a\",\"file\":\"x\"}\nnot json\n" with
  | Error msg ->
      Alcotest.(check bool)
        "error names the line" true
        (String.length msg >= 7 && String.sub msg 0 7 = "line 2:")
  | Ok _ -> Alcotest.fail "bad line must fail"

(* {1 Analytic fallback ladder} *)

let workload_of ?protocol text =
  let root = Aadl.Instantiate.of_string text in
  ignore protocol;
  Translate.Workload.extract ~quantum:(Aadl.Time.of_ms 1) root

let test_fallback_schedulable () =
  let fb = Analysis.Fallback.analyze (workload_of light) in
  match fb.Analysis.Fallback.verdict with
  | Analysis.Fallback.Likely_schedulable _ -> ()
  | v -> Alcotest.failf "expected likely_schedulable, got %s"
           (Analysis.Fallback.verdict_name v)

let test_fallback_unschedulable () =
  let fb = Analysis.Fallback.analyze (workload_of overloaded) in
  match fb.Analysis.Fallback.verdict with
  | Analysis.Fallback.Analytically_unschedulable _ -> ()
  | v -> Alcotest.failf "expected analytically_unschedulable, got %s"
           (Analysis.Fallback.verdict_name v)

let test_fallback_edf_crossover () =
  (* the crossover set is over the RM utilization bound but under 1:
     EDF demand analysis accepts what the RM ladder cannot prove *)
  let wl = workload_of (Gen.periodic_system Gen.crossover_set) in
  let fb = Analysis.Fallback.analyze ~force_protocol:Aadl.Props.Edf wl in
  (match fb.Analysis.Fallback.verdict with
  | Analysis.Fallback.Likely_schedulable _ -> ()
  | v -> Alcotest.failf "EDF: expected likely_schedulable, got %s"
           (Analysis.Fallback.verdict_name v));
  let hier =
    Analysis.Fallback.analyze ~force_protocol:Aadl.Props.Hierarchical wl
  in
  match hier.Analysis.Fallback.verdict with
  | Analysis.Fallback.Unknown _ -> ()
  | v -> Alcotest.failf "hierarchical: expected unknown, got %s"
           (Analysis.Fallback.verdict_name v)

let () =
  Alcotest.run "service"
    [
      ( "json",
        [
          Alcotest.test_case "roundtrip" `Quick test_json_roundtrip;
          Alcotest.test_case "escapes" `Quick test_json_escapes;
          Alcotest.test_case "numbers" `Quick test_json_numbers;
          Alcotest.test_case "errors" `Quick test_json_errors;
          QCheck_alcotest.to_alcotest qcheck_json_string_roundtrip;
          QCheck_alcotest.to_alcotest qcheck_json_u_escape_roundtrip;
          QCheck_alcotest.to_alcotest qcheck_json_value_roundtrip;
        ] );
      ( "lru",
        [
          Alcotest.test_case "hit/miss/evict" `Quick test_lru_basics;
          Alcotest.test_case "replace" `Quick test_lru_replace_is_not_eviction;
          Alcotest.test_case "capacity clamp" `Quick test_lru_capacity_clamped;
          Alcotest.test_case "single flight" `Quick test_lru_single_flight;
        ] );
      ( "key",
        [
          Alcotest.test_case "stability and divergence" `Quick
            test_key_stability_and_divergence;
          Alcotest.test_case "merkle attribution" `Quick
            test_key_merkle_attribution;
        ] );
      ( "runner",
        [
          Alcotest.test_case "cache hit identical" `Quick
            test_runner_cache_hit_identical;
          Alcotest.test_case "miss attribution" `Quick test_runner_attribution;
          Alcotest.test_case "degrades on timeout" `Quick
            test_runner_degrades_on_timeout;
          Alcotest.test_case "failure is an outcome" `Quick
            test_runner_failure_is_an_outcome;
          Alcotest.test_case "memory bounded over 500 models" `Quick
            test_runner_memory_bounded;
          Alcotest.test_case "rejected model is a protocol reply" `Quick
            test_protocol_rejected_model_is_a_reply;
          Alcotest.test_case "zero quantum is a protocol reply" `Quick
            test_protocol_zero_quantum_is_a_reply;
          Alcotest.test_case "miss attribution is bounded" `Quick
            test_attribution_bounded;
          Alcotest.test_case
            "memory bounded over 500 models with the verdict cache" `Quick
            test_runner_memory_bounded_cached;
        ] );
      ( "scheduler",
        [
          Alcotest.test_case "priority and output order" `Quick
            test_scheduler_priority_order_and_submission_output;
          Alcotest.test_case "parallel agrees" `Quick
            test_scheduler_parallel_agrees;
          Alcotest.test_case "duplicates coalesce" `Quick
            test_scheduler_concurrent_duplicates_coalesce;
          Alcotest.test_case "cancellation" `Quick test_scheduler_cancellation;
        ] );
      ( "requests",
        [
          Alcotest.test_case "decoding" `Quick test_request_of_json;
          Alcotest.test_case "manifest" `Quick test_manifest_lines;
        ] );
      ( "fallback",
        [
          Alcotest.test_case "schedulable" `Quick test_fallback_schedulable;
          Alcotest.test_case "unschedulable" `Quick test_fallback_unschedulable;
          Alcotest.test_case "edf crossover and hierarchical" `Quick
            test_fallback_edf_crossover;
        ] );
    ]
