(* The in-process half of the repository benchmark; perfbench/run.py
   builds this program and drives it.  Subcommands:

     gen-explore DIR                   the explore models and their pins
     explore DIR                       explore's traced run
     batch DIR SEED SECONDS TRACE      the batch workload (TRACE 0 or 1)
     serve DIR SEED SECONDS TRACE      the serve workload's load generator
     service DIR                       serve's router and two shards
     explore-one FILE MODE             one analysis, plain or traced (a child)
     replay W DIR SEED SECONDS MODE    one replay, plain or traced (a child)

   Each workload subcommand prints one JSON object as its last line:
   {"attempted", "failed", "metrics": {name: value}, "info": {...}}.
   Timestamps come from Timed.Clock.  Obs is muted everywhere except in
   batch's traced run, which reads the Scheduler's own histograms.
   README.md in this directory documents the workloads, the metrics and
   the layer each per-layer metric belongs to. *)

module J = Service.Json
module Job = Service.Job

let now = Timed.Clock.gettimeofday
let ( // ) = Filename.concat

(* {1 Small statistics} *)

(* Linear interpolation between closest ranks (numpy's default). *)
let quantile xs q =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.
  else
    let pos = q *. float_of_int (n - 1) in
    let lo = truncate pos in
    let hi = min (n - 1) (lo + 1) in
    a.(lo) +. ((pos -. float_of_int lo) *. (a.(hi) -. a.(lo)))

let median xs = quantile xs 0.5
let sum = List.fold_left ( +. ) 0.

let mean xs =
  match xs with [] -> 0. | _ -> sum xs /. float_of_int (List.length xs)

let geomean xs = exp (mean (List.map log xs))
let ratio a b = if b = 0. then 0. else a /. b

(* Peak resident set of a live process, from /proc (kB -> MB). *)
let peak_rss_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let rec scan () =
        match input_line ic with
        | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:"
          ->
            Scanf.sscanf line "VmHWM: %d kB" (fun kb ->
                float_of_int kb /. 1024.)
        | _ -> scan ()
        | exception End_of_file -> 0.
      in
      scan ())

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path text =
  Out_channel.with_open_bin path (fun oc -> output_string oc text)

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Sys.mkdir dir 0o755
  end

let emit ~attempted ~failed ~metrics ~info =
  print_endline
    (J.to_string
       (J.Obj
          [
            ("attempted", J.Int attempted);
            ("failed", J.Int failed);
            ( "metrics",
              J.Obj (List.map (fun (k, v) -> (k, J.Float v)) metrics) );
            ("info", J.Obj info);
          ]))

(* {1 Seeded inputs} *)

(* bench/main.ml's E6 family: n unit-cet threads, periods 4, 6, 8, ... *)
let e6_model n =
  Gen.periodic_system
    (List.init n (fun i ->
         Gen.simple_spec
           ~name:(Printf.sprintf "t%d" (i + 1))
           ~period_ms:(4 + (2 * i))
           ~cet_ms:1 ()))

(* Its unschedulable variant: t1's execution time ranges over [1,3]. *)
let e6_unsched n =
  Gen.periodic_system
    (List.init n (fun i ->
         if i = 0 then
           {
             Gen.name = "t1";
             period_ms = 4;
             cet_min_ms = 1;
             cet_max_ms = 3;
             deadline_ms = 4;
           }
         else
           Gen.simple_spec
             ~name:(Printf.sprintf "t%d" (i + 1))
             ~period_ms:(4 + (2 * i))
             ~cet_ms:1 ()))

(* A seeded single-processor rate-monotonic task set of [threads]
   threads (3 or 4 by default). *)
let rm_model ?threads seed =
  let st = Random.State.make [| 0x5eed; seed |] in
  let n = match threads with Some n -> n | None -> 3 + Random.State.int st 2 in
  let u = 0.5 +. Random.State.float st 0.45 in
  Gen.periodic_system ~protocol:Aadl.Props.Rate_monotonic
    (Gen.random_specs ~seed ~n ~u)

(* The reference verdict: response-time analysis, exact for these
   synchronous periodic RM sets with implicit deadlines. *)
let rta_schedulable text =
  let root = Aadl.Instantiate.of_string text in
  let wl = Translate.Workload.extract ~quantum:(Aadl.Time.of_ms 1) root in
  let r =
    Analysis.Rta.analyze ~protocol:Aadl.Props.Rate_monotonic
      wl.Translate.Workload.tasks
  in
  if not r.Analysis.Rta.applicable then failwith "RTA not applicable";
  r.Analysis.Rta.schedulable

(* [None]: schedulable; [Some None]: a miss; [Some (Some t)]: a miss at t. *)
type expect = int option option

let expect_of_rta text : expect =
  if rta_schedulable text then None else Some None

(* Pinned verdicts of examples/models/*.aadl (violation time when not
   schedulable). *)
let examples : (string * expect) list =
  [
    ("avionics", None);
    ("crossover", Some (Some 7));
    ("cruise_control", None);
    ("cruise_control_overloaded", Some (Some 10));
    ("event_driven", None);
    ("hierarchical", None);
    ("modal_switch", None);
    ("shared_data", Some (Some 4));
  ]

let outcome_ok (expect : expect) (o : Job.outcome) =
  (not o.Job.degraded)
  &&
  match (expect, o.Job.verdict) with
  | None, Job.Schedulable -> true
  | Some None, Job.Not_schedulable _ -> true
  | Some (Some t), Job.Not_schedulable { violation_time; _ } ->
      t = violation_time
  | _ -> false

(* {1 Spans}

   A span brackets one call into a layer's public function: name, start,
   end, parent span and allocation (words) and major collections over
   the call.  Spans are kept in memory and reduced to per-layer self
   times when the run ends. *)

type span = {
  id : int;
  parent : int;  (** 0 for a root *)
  name : string;
  t0 : float;
  t1 : float;
  alloc_w : float;
  majors : int;
}

let spans_mutex = Mutex.create ()
let spans : span list ref = ref []
let next_span = ref 0

(* Off in a replay's plain mode: [span] then only calls its function,
   so plain and traced replays differ by the spans alone. *)
let tracing = ref true

let alloc_words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

let span ?(parent = 0) name f =
  if not !tracing then f 0
  else begin
    let id =
      Mutex.protect spans_mutex (fun () ->
          incr next_span;
          !next_span)
    in
    let a0 = alloc_words ()
    and g0 = (Gc.quick_stat ()).Gc.major_collections in
    let t0 = now () in
    let r = f id in
    let t1 = now () in
    let a1 = alloc_words ()
    and g1 = (Gc.quick_stat ()).Gc.major_collections in
    let s =
      { id; parent; name; t0; t1; alloc_w = a1 -. a0; majors = g1 - g0 }
    in
    Mutex.protect spans_mutex (fun () -> spans := s :: !spans);
    r
  end

(* {1 The ledger: raw per-layer sums, reduced to metrics at the end} *)

let raw : (string, float) Hashtbl.t = Hashtbl.create 64
let raw_mutex = Mutex.create ()

let add key v =
  Mutex.protect raw_mutex (fun () ->
      Hashtbl.replace raw key
        (v +. Option.value ~default:0. (Hashtbl.find_opt raw key)))

let raise_to key v =
  Mutex.protect raw_mutex (fun () ->
      Hashtbl.replace raw key
        (Float.max v (Option.value ~default:0. (Hashtbl.find_opt raw key))))

let get key = Option.value ~default:0. (Hashtbl.find_opt raw key)

(* per-exploration (seconds, states), most recent first *)
let explorations : (float * float) list ref = ref []

(* Fold the recorded spans into the ledger: self time and self
   allocation per span name, and the summed root durations (which equal
   the summed self times of every span). *)
let fold_spans () =
  let all = !spans in
  spans := [];
  let child_t = Hashtbl.create 256 and child_a = Hashtbl.create 256 in
  let bump tbl k v =
    Hashtbl.replace tbl k
      (v +. Option.value ~default:0. (Hashtbl.find_opt tbl k))
  in
  List.iter
    (fun s ->
      if s.parent <> 0 then begin
        bump child_t s.parent (s.t1 -. s.t0);
        bump child_a s.parent s.alloc_w
      end)
    all;
  List.iter
    (fun s ->
      let d = s.t1 -. s.t0 in
      let sub tbl = Option.value ~default:0. (Hashtbl.find_opt tbl s.id) in
      add (s.name ^ ".self_s") (d -. sub child_t);
      add (s.name ^ ".alloc_w") (s.alloc_w -. sub child_a);
      if s.name = "versa.explore" then
        add "versa.major_gcs" (float_of_int s.majors);
      if s.parent = 0 then add "bench.roots_s" d)
    all

let record_exploration (res : Versa.Explorer.result) =
  let st = Versa.Explorer.stats res in
  let count k n = add k (float_of_int n) in
  add "versa.explore_s" st.Versa.Lts.wall_s;
  add "versa.expand_s" st.Versa.Lts.expand_s;
  add "versa.merge_s" st.Versa.Lts.merge_s;
  add "versa.canon_s" st.Versa.Lts.canon_s;
  count "versa.states" st.Versa.Lts.num_states;
  count "versa.transitions" st.Versa.Lts.num_transitions;
  count "versa.intern_hits" st.Versa.Lts.intern_hits;
  count "versa.intern_misses" st.Versa.Lts.intern_misses;
  count "versa.store_bytes" st.Versa.Lts.store_bytes;
  raise_to "versa.hashcons_nodes" (float_of_int st.Versa.Lts.hashcons_nodes);
  Mutex.protect raw_mutex (fun () ->
      explorations :=
        (st.Versa.Lts.wall_s, float_of_int st.Versa.Lts.num_states)
        :: !explorations)

let record_translation (tr : Translate.Pipeline.t) =
  add "translate.fragments"
    (float_of_int (List.length tr.Translate.Pipeline.fragments));
  add "translate.reused" (float_of_int tr.Translate.Pipeline.fragments_reused)

let record_lru cache =
  let c = Service.Lru.counters cache in
  add "service.hits" (float_of_int c.Service.Lru.hits);
  add "service.misses" (float_of_int c.Service.Lru.misses);
  add "service.evictions" (float_of_int c.Service.Lru.evictions)

(* Append the recorded spans to [dir]/spans.jsonl, one JSON object per
   line; [request] is the root span, shared by every span of a request. *)
let write_spans dir =
  let parent = Hashtbl.create 256 in
  List.iter (fun s -> Hashtbl.replace parent s.id s.parent) !spans;
  let rec root id =
    match Hashtbl.find_opt parent id with
    | Some p when p <> 0 -> root p
    | _ -> id
  in
  let pid = Unix.getpid () in
  Out_channel.with_open_gen
    [ Open_append; Open_creat; Open_text ]
    0o644 (dir // "spans.jsonl")
    (fun oc ->
      List.iter
        (fun s ->
          output_string oc
            (J.to_string
               (J.Obj
                  [
                    ("pid", J.Int pid);
                    ("id", J.Int s.id);
                    ("parent", J.Int s.parent);
                    ("request", J.Int (root s.id));
                    ("name", J.String s.name);
                    ("start_s", J.Float s.t0);
                    ("end_s", J.Float s.t1);
                    ("alloc_words", J.Float s.alloc_w);
                    ("major_gcs", J.Int s.majors);
                  ]));
          output_char oc '\n')
        (List.rev !spans))

(* A replay process reports its wall time, correctness counts and raw
   ledger as one JSON line; the parent absorbs it. *)
let print_ledger ~dir ~wall ~attempted ~failed =
  write_spans dir;
  fold_spans ();
  print_endline
    (J.to_string
       (J.Obj
          [
            ("wall_s", J.Float wall);
            ("attempted", J.Int attempted);
            ("failed", J.Int failed);
            ( "explorations",
              J.List
                (List.rev_map
                   (fun (s, n) -> J.List [ J.Float s; J.Float n ])
                   !explorations) );
            ( "raw",
              J.Obj (Hashtbl.fold (fun k v acc -> (k, J.Float v) :: acc) raw [])
            );
          ]))

(* The wall time, attempted and failed counts of a ledger line; with
   [keep], its raw sums and explorations also go into this process's
   ledger. *)
let absorb_ledger ~keep line =
  let json = Result.get_ok (J.parse line) in
  let num j = Option.value ~default:0. (J.to_float j) in
  let field k = Option.get (J.member k json) in
  (match field "raw" with
  | J.Obj fields when keep ->
      List.iter
        (fun (k, v) ->
          if k = "versa.hashcons_nodes" then raise_to k (num v)
          else add k (num v))
        fields
  | _ -> ());
  (match field "explorations" with
  | J.List xs when keep ->
      List.iter
        (function
          | J.List [ s; n ] -> explorations := (num s, num n) :: !explorations
          | _ -> ())
        xs
  | _ -> ());
  ( num (field "wall_s"),
    int_of_float (num (field "attempted")),
    int_of_float (num (field "failed")) )

(* Mean microseconds per state over the first and the last quarter of
   the explorations, in the order they ran. *)
let quarter_us_per_state () =
  let xs = List.rev !explorations in
  let n = List.length xs in
  let k = max 1 ((n + 3) / 4) in
  let us part =
    1e6 *. ratio (sum (List.map fst part)) (sum (List.map snd part))
  in
  ( us (List.filteri (fun i _ -> i < k) xs),
    us (List.filteri (fun i _ -> i >= n - k) xs) )

(* The per-layer metrics, every one of them on every workload (0 where
   the workload does not exercise the layer).  [wall] is the traced
   replay's wall time and [untraced] the same replay without spans. *)
let layer_metrics ~wall ~untraced ~attempted ~failed =
  let self n = get (n ^ ".self_s") and alloc n = get (n ^ ".alloc_w") in
  let states = get "versa.states" in
  let q1, q4 = quarter_us_per_state () in
  [
    ("aadl.parse_s", self "aadl.parse");
    ("aadl.instantiate_s", self "aadl.instantiate");
    ("aadl.alloc_mw", (alloc "aadl.parse" +. alloc "aadl.instantiate") /. 1e6);
    ("translate.plan_s", self "translate.plan");
    ("translate.realize_s", self "translate.realize");
    ( "translate.fragments_reused_ratio",
      ratio (get "translate.reused") (get "translate.fragments") );
    ( "translate.alloc_mw",
      (alloc "translate.plan" +. alloc "translate.realize") /. 1e6 );
    ("service.key_s", self "service.key" +. self "service.lru");
    ( "service.cache_hit_ratio",
      ratio (get "service.hits") (get "service.hits" +. get "service.misses") );
    ("service.cache_evictions", get "service.evictions");
    ("service.queue_wait_s", ratio (get "service.wait_s") (get "service.jobs"));
    ("service.run_s", ratio (get "service.run_s") (get "service.jobs"));
    ( "service.worker_busy_frac",
      ratio (get "service.run_s") (get "service.worker_s") );
    ("versa.explore_s", self "versa.explore");
    ("versa.expand_s", get "versa.expand_s");
    ("versa.merge_s", get "versa.merge_s");
    ("versa.canon_s", get "versa.canon_s");
    ("versa.states", states);
    ("versa.transitions", get "versa.transitions");
    ("versa.us_per_state", 1e6 *. ratio (get "versa.explore_s") states);
    ("versa.us_per_state.q1", q1);
    ("versa.us_per_state.q4", q4);
    ( "versa.intern_hit_ratio",
      ratio (get "versa.intern_hits")
        (get "versa.intern_hits" +. get "versa.intern_misses") );
    ("versa.hashcons_nodes", get "versa.hashcons_nodes");
    ("versa.store_bytes_per_state", ratio (get "versa.store_bytes") states);
    ("versa.alloc_mw", alloc "versa.explore" /. 1e6);
    ("versa.major_gcs", get "versa.major_gcs");
    ("analysis.raise_s", self "analysis.raise");
    ("journal.append_s", self "journal.append");
    ( "journal.bytes_per_record",
      ratio (get "journal.bytes") (get "journal.records") );
    ("router.handle_s", self "router.handle");
    ("shard.handle_s", self "shard.handle");
    ("transport.rtt_overhead_s", self "transport.call");
    ("shard.queue_depth", get "shard.queue_depth");
    ("router.retries", get "router.retries");
    ("transport.timeouts", get "transport.timeouts");
    ("bench.gen_late_ms", get "bench.gen_late_ms");
    ("bench.unattributed_frac", ratio (wall -. get "bench.roots_s") wall);
    ("bench.trace_overhead_frac", ratio (wall -. untraced) untraced);
    ("failed_frac", ratio (float_of_int failed) (float_of_int attempted));
  ]

(* A traced run's result line, from the plain and traced wall times of
   its replays and their attempted and failed counts. *)
let emit_layers (untraced, wall, attempted, failed) =
  emit ~attempted ~failed
    ~metrics:(layer_metrics ~wall ~untraced ~attempted ~failed)
    ~info:[ ("traced_s", J.Float wall); ("untraced_s", J.Float untraced) ]

(* Run a command to completion, its output kept in [dir]; its wall time,
   exit status and the last line of its standard output. *)
let run_capture dir prog args =
  let out_path = Filename.temp_file ~temp_dir:dir "run" ".out" in
  let fd = Unix.openfile out_path [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o644 in
  let t0 = now () in
  let pid =
    Unix.create_process prog (Array.of_list (prog :: args)) Unix.stdin fd
      Unix.stderr
  in
  let _, status = Unix.waitpid [] pid in
  let wall = now () -. t0 in
  Unix.close fd;
  let lines = String.split_on_char '\n' (String.trim (read_file out_path)) in
  Sys.remove out_path;
  (wall, status, List.nth lines (List.length lines - 1))

(* A replay, plain or traced, in a fresh process of this program, so
   that one replay's interning tables do not speed up or slow down the
   next.  Only a traced replay's ledger is kept. *)
let replay_child dir args mode =
  match run_capture dir Sys.executable_name (args @ [ mode ]) with
  | _, Unix.WEXITED 0, line -> absorb_ledger ~keep:(mode = "traced") line
  | _ -> failwith ("replay failed: " ^ String.concat " " args)

(* Plain and traced replays, alternated so that both see the same
   moments of the host; the summed plain and traced wall times, and
   the attempted and failed counts of both. *)
let replay_pairs dir argss =
  List.fold_left
    (fun (plain, traced, attempted, failed) args ->
      let wp, ap, fp = replay_child dir args "plain" in
      let wt, at, ft = replay_child dir args "traced" in
      (plain +. wp, traced +. wt, attempted + ap + at, failed + fp + ft))
    (0., 0., 0, 0) argss

(* {1 The traced pipeline: the public calls Schedulability.analyze and
   Runner.run make, each wrapped in a span} *)

(* Instantiate's default root: the unique system implementation that no
   other implementation uses as a subcomponent. *)
let instantiate_default model =
  let lc = String.lowercase_ascii in
  let impls = Aadl.Decls.impls (Aadl.Decls.of_model model) in
  let used = Hashtbl.create 16 in
  List.iter
    (fun ci ->
      List.iter
        (fun (s : Aadl.Ast.subcomponent) ->
          Option.iter
            (fun c -> Hashtbl.replace used (lc c) ())
            s.Aadl.Ast.sub_classifier)
        ci.Aadl.Ast.ci_subcomponents)
    impls;
  match
    List.filter
      (fun ci ->
        ci.Aadl.Ast.ci_category = Aadl.Ast.System
        && not (Hashtbl.mem used (lc (Aadl.Ast.impl_full_name ci))))
      impls
  with
  | [ ci ] ->
      Aadl.Instantiate.instantiate model ~root:(Aadl.Ast.impl_full_name ci)
  | _ -> failwith "no unique root system"

(* Runner.load reads a file source before parsing it; the read counts
   as parsing. *)
let traced_load ~parent (source : Job.source) =
  let model =
    span ~parent "aadl.parse" (fun _ ->
        Aadl.Parser.parse_string
          (match source with Job.Inline t -> t | Job.File p -> read_file p))
  in
  span ~parent "aadl.instantiate" (fun _ -> instantiate_default model)

let traced_explore ~parent ?(all = false) (tr : Translate.Pipeline.t) =
  let res =
    span ~parent "versa.explore" (fun _ ->
        Versa.Explorer.check_deadlock ~engine:Versa.Explorer.On_the_fly
          ~max_states:2_000_000 ~stop_at_deadlock:(not all) ~jobs:1
          ~symmetry:tr.Translate.Pipeline.symmetry tr.Translate.Pipeline.defs
          tr.Translate.Pipeline.system)
  in
  record_exploration res;
  let scenario =
    match res.Versa.Explorer.verdict with
    | Versa.Explorer.Deadlock { trace; _ } ->
        Some
          (span ~parent "analysis.raise" (fun _ ->
               Analysis.Raise_trace.raise_trace
                 ~registry:tr.Translate.Pipeline.registry trace))
    | _ -> None
  in
  (res, scenario)

(* What a cache-enabled runner holds: verdict cache, fragment cache and
   (for a shard) its journal. *)
type store = {
  cache : Job.outcome Service.Lru.t;
  fragments : Translate.Fragment_cache.t;
  journal : Service.Journal.t option;
}

let fresh_store ?journal ~capacity () =
  {
    cache = Service.Lru.create ~capacity;
    fragments = Translate.Fragment_cache.create ();
    journal;
  }

(* Runner.run's sequence: load, plan, key, single-flight lookup; on a
   miss realize, explore, raise, fill the cache and journal. *)
let traced_run ~parent store (req : Job.request) =
  let t0 = now () in
  let root = traced_load ~parent req.Job.source in
  let options = Service.Key.translation_options req in
  let plan =
    span ~parent "translate.plan" (fun _ ->
        Translate.Pipeline.plan ~options root)
  in
  let key =
    span ~parent "service.key" (fun _ ->
        Service.Key.of_plan plan ~options:(Service.Key.request_fingerprint req))
  in
  let merkle = key.Service.Key.merkle in
  match
    span ~parent "service.lru" (fun _ ->
        Service.Lru.find_or_lease store.cache merkle)
  with
  | `Hit o ->
      { o with Job.id = req.Job.id; cached = true; wall_s = now () -. t0 }
  | `Lease ->
      let tr =
        span ~parent "translate.realize" (fun _ ->
            Translate.Pipeline.of_plan ~cache:store.fragments plan)
      in
      record_translation tr;
      let res, scenario = traced_explore ~parent tr in
      let verdict =
        match (res.Versa.Explorer.verdict, scenario) with
        | Versa.Explorer.Deadlock_free, _ -> Job.Schedulable
        | Versa.Explorer.Deadlock _, Some sc ->
            Job.Not_schedulable
              {
                violation_time = sc.Analysis.Raise_trace.violation_time;
                scenario = Fmt.str "%a" Analysis.Raise_trace.pp sc;
              }
        | _ -> Job.Unknown "inconclusive"
      in
      let o =
        {
          Job.id = req.Job.id;
          verdict;
          states = Versa.Explorer.num_states res;
          cached = false;
          degraded = false;
          wall_s = now () -. t0;
        }
      in
      span ~parent "service.lru" (fun _ ->
          Service.Lru.fulfill store.cache merkle o);
      Option.iter
        (fun j ->
          span ~parent "journal.append" (fun _ ->
              Service.Journal.append j ~key:merkle o))
        store.journal;
      o

(* {1 explore}

   The timed explore runs are in run.py: each model is analysed by the
   CLI in a fresh process.  The traced run makes the CLI's sequence of
   public calls in a fresh process of this program per model, once
   plain and once under spans. *)

type pin = {
  all : bool;  (** explore exhaustively ([--all]) *)
  states : int;
  transitions : int;
  deadlocks : int;
  violation : int option;  (** first deadline miss; [None]: schedulable *)
}

let explore_models =
  [
    ( "e6_seven_threads",
      (fun () -> e6_model 7),
      {
        all = false;
        states = 9136;
        transitions = 17028;
        deadlocks = 0;
        violation = None;
      } );
    ( "e6_six_unsched",
      (fun () -> e6_unsched 6),
      {
        all = true;
        states = 31537;
        transitions = 52775;
        deadlocks = 741;
        violation = Some 8;
      } );
    ( "family_32_u090",
      (fun () -> Gen.replicated_family ~threads:32 ~utilization:0.9 ()),
      {
        all = false;
        states = 132;
        transitions = 1124;
        deadlocks = 0;
        violation = None;
      } );
  ]

let explore_file dir name = dir // (name ^ ".aadl")

(* The models and, in pins.json, what their analyses must report. *)
let gen_explore dir =
  mkdir_p dir;
  let pin_json p =
    J.Obj
      [
        ("all", J.Bool p.all);
        ("states", J.Int p.states);
        ("transitions", J.Int p.transitions);
        ("deadlocks", J.Int p.deadlocks);
        ( "violation",
          match p.violation with Some t -> J.Int t | None -> J.Null );
      ]
  in
  List.iter
    (fun (name, text, _) -> write_file (explore_file dir name) (text ()))
    explore_models;
  write_file (dir // "pins.json")
    (J.to_string
       (J.Obj (List.map (fun (n, _, p) -> (n, pin_json p)) explore_models)))

let explore_one file traced =
  Obs.set_enabled false;
  tracing := traced;
  let name = Filename.remove_extension (Filename.basename file) in
  let _, _, pin = List.find (fun (n, _, _) -> n = name) explore_models in
  let t0 = now () in
  let root = traced_load ~parent:0 (Job.File file) in
  let plan = span "translate.plan" (fun _ -> Translate.Pipeline.plan root) in
  let tr =
    span "translate.realize" (fun _ -> Translate.Pipeline.of_plan plan)
  in
  record_translation tr;
  let res, scenario = traced_explore ~parent:0 ~all:pin.all tr in
  (match scenario with
  | Some sc -> Fmt.pr "%a@." Analysis.Raise_trace.pp sc
  | None -> Fmt.pr "%a@." Versa.Explorer.pp_verdict res.Versa.Explorer.verdict);
  let wall = now () -. t0 in
  let ok =
    Versa.Explorer.num_states res = pin.states
    && Versa.Explorer.num_transitions res = pin.transitions
    && List.length (Versa.Explorer.deadlocks res) = pin.deadlocks
    && Option.map (fun sc -> sc.Analysis.Raise_trace.violation_time) scenario
       = pin.violation
  in
  print_ledger ~dir:(Filename.dirname file) ~wall ~attempted:1
    ~failed:(if ok then 0 else 1)

let explore_traced dir =
  gen_explore dir;
  emit_layers
    (replay_pairs dir
       (List.map
          (fun (name, _, _) -> [ "explore-one"; explore_file dir name ])
          explore_models))

(* {1 batch}

   A seeded, skewed manifest over 40 distinct models (the eight example
   models plus 32 generated RM task sets), submitted at once to a
   2-worker Service.Scheduler with the verdict cache on.  Each round
   starts from a fresh cache, so every round pays the same few misses
   and at least 99% of requests hit. *)

let batch_distinct = 40
let batch_requests = 5000
let batch_workers = 2

(* The model population: the examples, then 32 generated sets.  The
   population and its popularity ranking are fixed; the seed draws the
   requests from it, so runs with different seeds sample one workload. *)
let batch_models dir =
  mkdir_p dir;
  let ex =
    List.map
      (fun (name, expect) ->
        ("examples" // "models" // (name ^ ".aadl"), expect))
      examples
  in
  let gen =
    List.init (batch_distinct - List.length ex) (fun i ->
        let text = rm_model (1000 + i) in
        let path = dir // Printf.sprintf "rm_%02d.aadl" i in
        write_file path text;
        (path, expect_of_rta text))
  in
  Array.of_list (ex @ gen)

(* Zipf(1) popularity: the model of rank r is [(7 r) mod k], which
   interleaves examples and generated sets down the ranking.  The
   requests go through the manifest parser, as a batch file would. *)
let batch_manifest dir seed =
  let models = batch_models dir in
  let st = Random.State.make [| 0xba7c; seed |] in
  let k = Array.length models in
  let weights = Array.init k (fun r -> 1. /. float_of_int (r + 1)) in
  let total = Array.fold_left ( +. ) 0. weights in
  let pick _ =
    let x = Random.State.float st total in
    let rec go r acc =
      if r = k - 1 || acc +. weights.(r) > x then r
      else go (r + 1) (acc +. weights.(r))
    in
    7 * go 0 0. mod k
  in
  let ids = Array.init batch_requests pick in
  let lines =
    Array.to_list
      (Array.mapi
         (fun i m ->
           J.to_string
             (J.Obj
                [
                  ("id", J.String (Printf.sprintf "r%d" i));
                  ("file", J.String (fst models.(m)));
                ]))
         ids)
  in
  let text = String.concat "\n" lines in
  match Job.parse_manifest text with
  | Ok reqs ->
      let expects = Array.map (fun m -> snd models.(m)) ids in
      let bad outcomes =
        List.length
          (List.filter
             (fun ok -> not ok)
             (List.mapi (fun i o -> outcome_ok expects.(i) o) outcomes))
      in
      (models, ids, text, reqs, bad)
  | Error msg -> failwith msg

let runner_config () = Service.Runner.with_cache Service.Runner.default_config

let batch dir seed seconds =
  Obs.set_enabled false;
  let models, ids, text, reqs, bad = batch_manifest dir seed in
  (* What a batch run pays before its first job: reading the manifest,
     creating the scheduler and spawning its worker domain.  It takes a
     few milliseconds, so a burst of load on the host moves every sample
     taken at that moment; the samples are spread over the whole run,
     three before each round. *)
  let setups = ref [] in
  let setup () =
    let t0 = now () in
    ignore (Job.parse_manifest text);
    ignore (Service.Scheduler.create ~workers:batch_workers (runner_config ()));
    Versa.Pool.shutdown (Versa.Pool.create (batch_workers - 1));
    setups := (now () -. t0) :: !setups
  in
  (* per round: throughput, service-time percentiles, miss throughput;
     the metrics are medians over rounds, so one slow round moves none *)
  let rounds = ref [] and failed = ref 0 and hits = ref 0 in
  let walls = ref [] in
  let start = now () in
  while !rounds = [] || now () -. start < seconds do
    for _ = 1 to 3 do
      setup ()
    done;
    let t0 = now () in
    let sched =
      Service.Scheduler.create ~workers:batch_workers (runner_config ())
    in
    List.iter (fun r -> ignore (Service.Scheduler.submit sched r)) reqs;
    let outcomes = Service.Scheduler.run_all sched in
    let busy = now () -. t0 in
    failed := !failed + bad outcomes;
    let w =
      Array.of_list (List.map (fun (o : Job.outcome) -> o.Job.wall_s) outcomes)
    in
    walls := w :: !walls;
    let misses =
      List.filter (fun (o : Job.outcome) -> not o.Job.cached) outcomes
    in
    hits := !hits + batch_requests - List.length misses;
    let ms q = 1000. *. quantile (Array.to_list w) q in
    rounds :=
      ( float_of_int batch_requests /. busy,
        ms 0.5,
        ms 0.95,
        float_of_int (List.fold_left (fun a o -> a + o.Job.states) 0 misses)
        /. sum (List.map (fun o -> o.Job.wall_s) misses) )
      :: !rounds
  done;
  let n_rounds = List.length !rounds in
  let attempted = n_rounds * batch_requests in
  let over f = median (List.map f !rounds) in
  let rps = over (fun (r, _, _, _) -> r) in
  (* each model's median service time, over every round *)
  let per_model = Array.make (Array.length models) [] in
  List.iter
    (Array.iteri (fun i w -> per_model.(ids.(i)) <- w :: per_model.(ids.(i))))
    !walls;
  emit ~attempted ~failed:!failed
    ~metrics:
      [
        ("setup_s", median !setups);
        ( "verdict_s_geomean",
          geomean
            (List.filter_map
               (fun l -> if l = [] then None else Some (median l))
               (Array.to_list per_model)) );
        ("states_per_s", over (fun (_, _, _, s) -> s));
        ("requests_per_s", rps);
        ("latency_p50_ms.low", over (fun (_, p, _, _) -> p));
        ("latency_p50_ms.mid", over (fun (_, p, _, _) -> p));
        ("latency_p95_ms.low", over (fun (_, _, p, _) -> p));
        ("latency_p95_ms.mid", over (fun (_, _, p, _) -> p));
        ("max_rate_rps", rps);
        ("peak_rss_mb", peak_rss_mb "self");
      ]
    ~info:
      [
        ("rounds", J.Int n_rounds);
        ("setup_samples", J.Int (List.length !setups));
        ("requests_per_round", J.Int batch_requests);
        ("distinct_models", J.Int (Array.length models));
        ("hit_share", J.Float (float_of_int !hits /. float_of_int attempted));
        ("workers", J.Int batch_workers);
      ]

(* The manifest replayed sequentially through Runner.run's sequence of
   public calls, with or without spans. *)
let replay_batch dir seed traced =
  Obs.set_enabled false;
  tracing := traced;
  let _, _, _, reqs, bad = batch_manifest dir seed in
  let t0 = now () in
  let store = fresh_store ~capacity:256 () in
  let outcomes = List.map (traced_run ~parent:0 store) reqs in
  let wall = now () -. t0 in
  record_lru store.cache;
  print_ledger ~dir ~wall ~attempted:(List.length reqs) ~failed:(bad outcomes)

(* The sum and count of one of the default registry's histograms. *)
let histogram name =
  match Obs.find name with
  | Some { Obs.value = Obs.Histogram_value { sum; count; _ }; _ } ->
      (sum, float_of_int count)
  | _ -> failwith ("no histogram " ^ name)

(* The batch replay, and one round through the real Scheduler, into the
   ledger: the plain and traced wall times of the replay, and the
   attempted and failed counts. *)
let batch_layers dir seed =
  Obs.set_enabled false;
  let untraced, wall, a1, f1 =
    replay_pairs dir [ [ "replay"; "batch"; dir; string_of_int seed; "0" ] ]
  in
  (* One round through the real Scheduler, with Obs on for its own
     histograms: the wait behind the queue, the run time and how busy
     the workers were while the queue drained. *)
  let _, _, _, reqs, bad = batch_manifest dir seed in
  Obs.set_enabled true;
  let wait0, _ = histogram "service_job_wait_seconds"
  and run0, jobs0 = histogram "service_job_run_seconds" in
  let t0 = now () in
  let sched =
    Service.Scheduler.create ~workers:batch_workers (runner_config ())
  in
  List.iter (fun r -> ignore (Service.Scheduler.submit sched r)) reqs;
  let outcomes = Service.Scheduler.run_all sched in
  let drained = now () -. t0 in
  let wait1, _ = histogram "service_job_wait_seconds"
  and run1, jobs1 = histogram "service_job_run_seconds" in
  Obs.set_enabled false;
  add "service.wait_s" (wait1 -. wait0);
  add "service.run_s" (run1 -. run0);
  add "service.jobs" (jobs1 -. jobs0);
  add "service.worker_s" (float_of_int batch_workers *. drained);
  (untraced, wall, a1 + List.length reqs, f1 + bad outcomes)

(* {1 serve}

   Open loop: seeded exponential inter-arrival times at three fixed
   offered rates.  Each rate step starts a fresh service process
   (router + two journaled shards over unix sockets, empty journals)
   and drives it over two client connections.  60% of the requests are
   novel 3-thread RM sets (cache misses: exploration and a journal
   append), the rest repeat a hot set (LRU hits).  Each shard's verdict
   cache holds 32 entries, so the novel stream evicts within a step. *)

let rates = [ ("low", 10.); ("mid", 20.); ("high", 600.) ]
let connections = 2
let latency_limit_s = 0.1
let hot_set = 16
let novel_share = 0.6
let shard_capacity = 32

type req = { line : string; expect : expect; model : string }

(* The request stream of one step: [n] requests, half of them novel.
   Every seed gets the same novel models and hot set for a step; the
   seed decides which positions are novel, their order, and which hot
   model each repeat names, so the spread between seeds measures the
   service rather than the luck of one sample of models. *)
let shuffle st a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

let step_requests ~seed ~step ~n =
  let st = Random.State.make [| 0x5e7e; seed; step |] in
  let n_novel = int_of_float (novel_share *. float_of_int n) in
  let novel = shuffle st (Array.init n_novel (fun j -> (step * 10_000) + j)) in
  let is_novel = shuffle st (Array.init n (fun i -> i < n_novel)) in
  let next_novel = ref 0 in
  let req i mseed =
    let text = rm_model ~threads:3 mseed in
    {
      line =
        J.to_string
          (J.Obj
             [
               ("id", J.String (Printf.sprintf "s%d-%d" step i));
               ("model", J.String text);
             ]);
      expect = expect_of_rta text;
      model = string_of_int mseed;
    }
  in
  List.init n (fun i ->
      if is_novel.(i) then begin
        let m = novel.(!next_novel) in
        incr next_novel;
        req i m
      end
      else req i (90_000 + Random.State.int st hot_set))

(* Exponential inter-arrival times, stratified: the gaps are the
   quantiles of Exp(rate) at (i + 1/2) / n, in a seeded order.  Every
   seed thus offers the same burstiness, and seeds differ in when the
   bursts come. *)
let arrivals ~seed ~step ~rate n =
  let st = Random.State.make [| 0xa77; seed; step |] in
  let gaps =
    shuffle st
      (Array.init n (fun i ->
           -.log (1. -. ((float_of_int i +. 0.5) /. float_of_int n)) /. rate))
  in
  let t = ref 0. in
  Array.map
    (fun g ->
      t := !t +. g;
      !t)
    gaps

(* Arrivals span 60% of the run at the low rate and 35% at the mid rate,
   for several hundred samples each.  The high step's arrivals span 3%
   of the run, but the service drains them for several times longer;
   that drain is what requests_per_s measures. *)
let serve_plan seconds =
  List.mapi
    (fun k (name, rate) ->
      let share = match name with "low" -> 0.6 | "mid" -> 0.35 | _ -> 0.03 in
      (k, name, rate, max 200 (int_of_float (rate *. share *. seconds))))
    rates

let router_addr dir = "unix:" ^ (dir // "r.sock")
let shard_addr dir i = "unix:" ^ (dir // Printf.sprintf "s%d.sock" i)

let fresh_dir dir =
  if Sys.file_exists dir then
    Array.iter (fun f -> Sys.remove (dir // f)) (Sys.readdir dir)
  else mkdir_p dir

(* The real router and two journaled shards on [transport]; returns the
   shards' closer. *)
let start_service dir transport =
  let shards =
    List.init 2 (fun i ->
        match
          Service.Shard.create
            ~journal:(dir // Printf.sprintf "s%d.journal" i)
            ~capacity:shard_capacity ~name:(shard_addr dir i)
            Service.Runner.default_config
        with
        | Ok s -> s
        | Error msg -> failwith msg)
  in
  List.iter (fun s -> Service.Shard.register s transport) shards;
  let router =
    Service.Router.create ~name:(router_addr dir)
      ~shards:(List.map Service.Shard.name shards)
      transport
  in
  Service.Router.register router transport;
  (router, fun () -> List.iter Service.Shard.close shards)

(* The service process: serve until the router is asked to quit. *)
let service dir =
  Obs.set_enabled false;
  let socket = Service.Transport_socket.create () in
  let router, close =
    start_service dir (Service.Transport_socket.make socket)
  in
  while not (Service.Router.stopping router) do
    Thread.delay 0.02
  done;
  Thread.delay 0.1;
  Service.Transport_socket.stop socket;
  Service.Transport_socket.wait socket;
  close ()

let call client dst line =
  Service.Transport_socket.call client ~timeout:30. ~src:"bench" ~dst line

let healthy client dir =
  match call client (router_addr dir) {|{"op":"health"}|} with
  | Ok reply -> (
      match J.parse reply with
      | Ok j -> Option.bind (J.member "ok" j) J.to_bool = Some true
      | Error _ -> false)
  | Error _ -> false

(* Spawn the service process; returns once the router and both shards
   answer health, with the time that took. *)
let spawn_service dir =
  fresh_dir dir;
  let t0 = now () in
  let pid =
    Unix.create_process Sys.executable_name
      [| Sys.executable_name; "service"; dir |]
      Unix.stdin Unix.stderr Unix.stderr
  in
  let client = Service.Transport_socket.create () in
  while not (healthy client dir) do
    if now () -. t0 > 30. then begin
      Unix.kill pid Sys.sigkill;
      ignore (Unix.waitpid [] pid);
      failwith "service did not come up"
    end;
    Thread.delay 0.0005
  done;
  Service.Transport_socket.stop client;
  (pid, now () -. t0)

let stop_service dir pid =
  let client = Service.Transport_socket.create () in
  if Result.is_error (call client (router_addr dir) {|{"op":"quit"}|}) then
    Unix.kill pid Sys.sigkill;
  Service.Transport_socket.stop client;
  ignore (Unix.waitpid [] pid)

let decode reply =
  match reply with
  | Ok line -> (
      match J.parse line with
      | Ok j -> Result.to_option (Job.outcome_of_json j)
      | Error _ -> None)
  | Error _ -> None

type result = {
  r : req;
  sent : float;
  answered : float;
  latency : float;  (** reply time minus due time *)
  late : float;
      (** send time minus the later of the due time and the moment the
          connection became free: the generator's own lateness *)
  outcome : Job.outcome option;
  in_system : int;  (** earlier requests due but unanswered at this due time *)
}

(* Drive one open-loop step over [connections] connections, each
   sending the next due request as soon as it is free. *)
let open_loop dir reqs due =
  let reqs = Array.of_list reqs in
  let n = Array.length reqs in
  let next = Atomic.make 0 in
  let sent = Array.make n 0. and answered = Array.make n 0. in
  let replies = Array.make n None and frees = Array.make n 0. in
  let start = now () +. 0.05 in
  let worker () =
    let client = Service.Transport_socket.create () in
    let free = ref start in
    let rec loop () =
      let i = Atomic.fetch_and_add next 1 in
      if i < n then begin
        let wait = start +. due.(i) -. now () in
        if wait > 0. then Thread.delay wait;
        sent.(i) <- now ();
        frees.(i) <- !free;
        replies.(i) <- decode (call client (router_addr dir) reqs.(i).line);
        answered.(i) <- now ();
        free := answered.(i);
        loop ()
      end
    in
    loop ();
    Service.Transport_socket.stop client
  in
  List.iter Thread.join
    (List.init connections (fun _ -> Thread.create worker ()));
  List.init n (fun i ->
      let due_t = start +. due.(i) in
      let in_system = ref 0 in
      for j = 0 to i - 1 do
        if answered.(j) > due_t then incr in_system
      done;
      {
        r = reqs.(i);
        sent = sent.(i);
        answered = answered.(i);
        latency = answered.(i) -. due_t;
        late = sent.(i) -. Float.max due_t frees.(i);
        outcome = replies.(i);
        in_system = !in_system;
      })

let result_ok res =
  match res.outcome with Some o -> outcome_ok res.r.expect o | None -> false

(* An offered rate is met when p95 stays within the limit and no backlog
   is left when the last request falls due. *)
let step_ok results =
  let n = List.length results in
  let last = List.nth results (n - 1) in
  quantile (List.map (fun r -> r.latency) results) 0.95 <= latency_limit_s
  && float_of_int last.in_system <= Float.max 4. (0.02 *. float_of_int n)

type step = {
  name : string;
  rate : float;
  setup : float;  (** spawn until healthy, seconds *)
  rss : float;  (** the service's peak RSS, MB *)
  results : result list;
}

let ms_of results = List.map (fun x -> 1000. *. x.latency) results

(* Latency percentiles of a step's requests that [keep] selects. *)
let p50_p95 keep results =
  let l =
    ms_of
      (List.filter
         (fun x -> match x.outcome with Some o -> keep o | None -> false)
         results)
  in
  J.List [ J.Float (median l); J.Float (quantile l 0.95) ]

let step_info st =
  let n = List.length st.results in
  let misses =
    List.filter
      (fun x -> match x.outcome with Some o -> not o.Job.cached | None -> false)
      st.results
  in
  ( st.name,
    J.Obj
      [
        ("rate_rps", J.Float st.rate);
        ("requests", J.Int n);
        ( "beyond_p95",
          J.Int (n - int_of_float (Float.ceil (0.95 *. float_of_int n))) );
        ("p95_ms", J.Float (quantile (ms_of st.results) 0.95));
        ("met", J.Bool (step_ok st.results));
        ( "miss_share",
          J.Float (ratio (float_of_int (List.length misses)) (float_of_int n))
        );
        ("hit_p50_p95_ms", p50_p95 (fun o -> o.Job.cached) st.results);
        ("miss_p50_p95_ms", p50_p95 (fun o -> not o.Job.cached) st.results);
      ] )

let serve dir seed seconds =
  Obs.set_enabled false;
  let steps =
    List.map
      (fun (k, name, rate, n) ->
        let reqs = step_requests ~seed ~step:k ~n in
        let due = arrivals ~seed ~step:k ~rate n in
        let sdir = dir // Printf.sprintf "step%d" k in
        let pid, setup = spawn_service sdir in
        Fun.protect
          ~finally:(fun () -> stop_service sdir pid)
          (fun () ->
            let results = open_loop sdir reqs due in
            let rss = peak_rss_mb (string_of_int pid) in
            { name; rate; setup; rss; results }))
      (serve_plan seconds)
  in
  let extra_setups =
    List.init 6 (fun i ->
        let sdir = dir // Printf.sprintf "setup%d" i in
        let pid, setup = spawn_service sdir in
        stop_service sdir pid;
        setup)
  in
  let results = List.concat_map (fun st -> st.results) steps in
  let step name = (List.find (fun st -> st.name = name) steps).results in
  let at name = ms_of (step name) in
  (* the saturated high step's throughput: its answered requests over
     the time from the first send to the last reply *)
  let high = step "high" in
  let over_high f = List.fold_left f (List.hd high).sent high in
  let first = over_high (fun t x -> Float.min t x.sent)
  and last = over_high (fun t x -> Float.max t x.answered) in
  let answered = List.length (List.filter result_ok high) in
  (* each model's median latency at the rates inside the limit *)
  let per_model = Hashtbl.create 512 in
  List.iter
    (fun st ->
      if st.name <> "high" then
        List.iter
          (fun x ->
            let prev =
              Option.value ~default:[] (Hashtbl.find_opt per_model x.r.model)
            in
            Hashtbl.replace per_model x.r.model (x.latency :: prev))
          st.results)
    steps;
  let explored =
    List.filter_map
      (fun x ->
        Option.bind x.outcome (fun o ->
            if o.Job.cached then None else Some o))
      results
  in
  let attempted = List.length results in
  let failed = List.length (List.filter (fun x -> not (result_ok x)) results) in
  let over f = List.map f steps in
  emit ~attempted ~failed
    ~metrics:
      [
        ("setup_s", median (extra_setups @ over (fun st -> st.setup)));
        ( "verdict_s_geomean",
          geomean
            (Hashtbl.fold (fun _ l acc -> median l :: acc) per_model []) );
        ( "states_per_s",
          float_of_int (List.fold_left (fun a o -> a + o.Job.states) 0 explored)
          /. sum (List.map (fun o -> o.Job.wall_s) explored) );
        ("requests_per_s", float_of_int answered /. (last -. first));
        ("latency_p50_ms.low", median (at "low"));
        ("latency_p50_ms.mid", median (at "mid"));
        ("latency_p95_ms.low", quantile (at "low") 0.95);
        ("latency_p95_ms.mid", quantile (at "mid") 0.95);
        ( "max_rate_rps",
          List.fold_left Float.max 0.
            (over (fun st -> if step_ok st.results then st.rate else 0.)) );
        ("peak_rss_mb", List.fold_left Float.max 0. (over (fun st -> st.rss)));
      ]
    ~info:(List.map step_info steps)

(* The mid step's requests, replayed closed-loop over one connection,
   through the public calls the router's and the shards' handlers make,
   with or without spans. *)
let replay_serve dir seed seconds traced =
  Obs.set_enabled false;
  tracing := traced;
  let k, _, _, n = List.nth (serve_plan seconds) 1 in
  let reqs = step_requests ~seed ~step:k ~n in
  let sdir = dir // if traced then "traced" else "plain" in
  fresh_dir sdir;
  let socket = Service.Transport_socket.create () in
  let transport = Service.Transport_socket.make socket in
  let parent_of json =
    Option.value ~default:0 (Option.bind (J.member "bspan" json) J.to_int)
  in
  let with_parent json id =
    match json with
    | J.Obj m -> J.Obj (("bspan", J.Int id) :: List.remove_assoc "bspan" m)
    | j -> j
  in
  let stores =
    List.init 2 (fun i ->
        let path = sdir // Printf.sprintf "s%d.journal" i in
        let j, _ = Result.get_ok (Service.Journal.open_ path) in
        (shard_addr sdir i, fresh_store ~journal:j ~capacity:shard_capacity ()))
  in
  (* Shard.handler: decode, run, encode *)
  List.iter
    (fun (name, store) ->
      Service.Transport.serve transport name (fun line ->
          match J.parse line with
          | Error msg -> Service.Protocol.error_json msg
          | Ok json ->
              span ~parent:(parent_of json) "shard.handle" (fun id ->
                  match Job.request_of_json json with
                  | Error msg -> Service.Protocol.error_json msg
                  | Ok req ->
                      let o = traced_run ~parent:id store req in
                      J.to_string (Job.outcome_to_json o))))
    stores;
  (* Router.handler for an analysis request: decode, route, forward
     with retries *)
  let router =
    Service.Router.create ~name:(router_addr sdir)
      ~shards:(List.map fst stores) transport
  in
  Service.Transport.serve transport (router_addr sdir) (fun line ->
      match J.parse line with
      | Error msg -> Service.Protocol.error_json msg
      | Ok json ->
          span ~parent:(parent_of json) "router.handle" (fun id ->
              match Job.request_of_json json with
              | Error msg -> Service.Protocol.error_json msg
              | Ok req ->
                  let owner, _ = Service.Router.route router req in
                  let rec attempt k =
                    match
                      span ~parent:id "transport.call" (fun cid ->
                          Service.Transport.call transport ~src:"router"
                            ~dst:owner
                            (J.to_string (with_parent json cid)))
                    with
                    | Ok reply -> reply
                    | Error e when k < 2 ->
                        if e = Service.Transport.Timeout then
                          add "transport.timeouts" 1.;
                        add "router.retries" 1.;
                        attempt (k + 1)
                    | Error e ->
                        Service.Protocol.error_json
                          (Service.Transport.error_message e)
                  in
                  attempt 0));
  let client = Service.Transport_socket.create () in
  let t0 = now () in
  let failed =
    List.fold_left
      (fun bad r ->
        let reply =
          span "transport.call" (fun id ->
              let line =
                match J.parse r.line with
                | Ok json -> J.to_string (with_parent json id)
                | Error _ -> r.line
              in
              call client (router_addr sdir) line)
        in
        if reply = Error Service.Transport.Timeout then
          add "transport.timeouts" 1.;
        match decode reply with
        | Some o when outcome_ok r.expect o -> bad
        | _ -> bad + 1)
      0 reqs
  in
  let wall = now () -. t0 in
  Service.Transport_socket.stop client;
  List.iter
    (fun (_, store) ->
      record_lru store.cache;
      Option.iter
        (fun j ->
          let s = Service.Journal.stats j in
          add "journal.records" (float_of_int s.Service.Journal.records);
          (* bytes past the 8-byte file header *)
          add "journal.bytes" (float_of_int (s.Service.Journal.bytes - 8));
          Service.Journal.close j)
        store.journal)
    stores;
  Service.Transport_socket.stop socket;
  print_ledger ~dir ~wall ~attempted:n ~failed

(* The serve replay, and the open-loop mid step once more, into the
   ledger: the plain and traced wall times of the replay, and the
   attempted and failed counts. *)
let serve_layers dir seed seconds =
  Obs.set_enabled false;
  let args =
    [ "replay"; "serve"; dir; string_of_int seed; string_of_float seconds ]
  in
  let untraced, wall, a1, f1 = replay_pairs dir [ args ] in
  (* the open-loop mid step once more, for the depth of the queue in
     front of the shards and for the generator's lateness *)
  let k, _, rate, n = List.nth (serve_plan seconds) 1 in
  let sdir = dir // Printf.sprintf "step%d" k in
  let pid, _ = spawn_service sdir in
  let results =
    Fun.protect
      ~finally:(fun () -> stop_service sdir pid)
      (fun () ->
        open_loop sdir (step_requests ~seed ~step:k ~n)
          (arrivals ~seed ~step:k ~rate n))
  in
  add "shard.queue_depth"
    (mean (List.map (fun x -> float_of_int x.in_system) results));
  add "bench.gen_late_ms"
    (1000. *. quantile (List.map (fun x -> x.late) results) 0.95);
  let f3 = List.length (List.filter (fun x -> not (result_ok x)) results) in
  (untraced, wall, a1 + n, f1 + f3)

(* The layers that only the service exercises. *)
let service_layer_metrics =
  [
    "journal.append_s";
    "journal.bytes_per_record";
    "router.handle_s";
    "shard.handle_s";
    "transport.rtt_overhead_s";
    "shard.queue_depth";
    "router.retries";
    "transport.timeouts";
    "bench.gen_late_ms";
  ]

(* serve is not one of BENCHMARK.json's workloads (README.md says why),
   so batch's traced run also measures the service's layers: its own
   ledger gives every other metric, and a second ledger, from serve's
   replay and open-loop mid step, gives these. *)
let batch_traced dir seed seconds =
  let untraced, wall, a1, f1 = batch_layers dir seed in
  let batch = layer_metrics ~wall ~untraced ~attempted:a1 ~failed:f1 in
  Hashtbl.reset raw;
  explorations := [];
  let su, sw, a2, f2 = serve_layers dir seed seconds in
  let served = layer_metrics ~wall:sw ~untraced:su ~attempted:a2 ~failed:f2 in
  let attempted = a1 + a2 and failed = f1 + f2 in
  emit ~attempted ~failed
    ~metrics:
      (List.map
         (fun (name, v) ->
           if name = "failed_frac" then
             (name, ratio (float_of_int failed) (float_of_int attempted))
           else if List.mem name service_layer_metrics then
             (name, List.assoc name served)
           else (name, v))
         batch)
    ~info:
      [
        ("traced_s", J.Float wall);
        ("untraced_s", J.Float untraced);
        ("service_traced_s", J.Float sw);
        ("service_untraced_s", J.Float su);
      ]

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  match args with
  | [ "gen-explore"; dir ] -> gen_explore dir
  | [ "explore-one"; file; mode ] -> explore_one file (mode = "traced")
  | [ "explore"; dir ] -> explore_traced dir
  | [ "batch"; dir; seed; seconds; "0" ] ->
      batch dir (int_of_string seed) (float_of_string seconds)
  | [ "batch"; dir; seed; seconds; "1" ] ->
      batch_traced dir (int_of_string seed) (float_of_string seconds)
  | [ "serve"; dir; seed; seconds; "0" ] ->
      serve dir (int_of_string seed) (float_of_string seconds)
  | [ "serve"; dir; seed; seconds; "1" ] ->
      emit_layers
        (serve_layers dir (int_of_string seed) (float_of_string seconds))
  | [ "replay"; "batch"; dir; seed; _; mode ] ->
      replay_batch dir (int_of_string seed) (mode = "traced")
  | [ "replay"; "serve"; dir; seed; seconds; mode ] ->
      replay_serve dir (int_of_string seed) (float_of_string seconds)
        (mode = "traced")
  | [ "service"; dir ] -> service dir
  | _ ->
      prerr_endline "bench: unknown subcommand; see the header of bench.ml";
      exit 2
