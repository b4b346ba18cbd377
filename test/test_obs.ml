(* Tests for the observability substrate: registry semantics (idempotent
   registration, kind clashes, muting), histogram bucket boundaries,
   concurrent counter and histogram updates from several domains (qcheck),
   and the span tracer (well-nested events, valid Chrome trace_event
   JSON, recording through exceptions). *)

(* Each test gets a private registry so the process-wide one — which the
   libraries under test in the other binaries instrument into — never
   leaks counts in. *)
let fresh () = Obs.create_registry ()

(* {1 Registry} *)

let test_counter_basics () =
  let r = fresh () in
  let c = Obs.Counter.make ~registry:r ~help:"h" "c_total" in
  Alcotest.(check int) "starts at zero" 0 (Obs.Counter.value c);
  Obs.Counter.incr c;
  Obs.Counter.incr ~by:41 c;
  Alcotest.(check int) "accumulates" 42 (Obs.Counter.value c);
  let c' = Obs.Counter.make ~registry:r "c_total" in
  Obs.Counter.incr c';
  Alcotest.(check int)
    "registration is idempotent: same cells" 43 (Obs.Counter.value c);
  Alcotest.check_raises "negative increment rejected"
    (Invalid_argument "Obs.Counter.incr: negative increment")
    (fun () -> Obs.Counter.incr ~by:(-1) c)

let test_kind_clash () =
  let r = fresh () in
  let (_ : Obs.Counter.t) = Obs.Counter.make ~registry:r "m" in
  Alcotest.check_raises "counter re-registered as gauge"
    (Invalid_argument {|Obs: metric "m" already registered with another kind|})
    (fun () -> ignore (Obs.Gauge.make ~registry:r "m"))

let test_gauge_last_write_wins () =
  let r = fresh () in
  let g = Obs.Gauge.make ~registry:r "g" in
  Obs.Gauge.set g 3.5;
  Obs.Gauge.set g 1.25;
  Alcotest.(check (float 0.)) "last write" 1.25 (Obs.Gauge.value g)

let test_muting () =
  let r = fresh () in
  let c = Obs.Counter.make ~registry:r "muted_total" in
  let h = Obs.Histogram.make ~registry:r "muted_seconds" in
  Obs.set_enabled false;
  Fun.protect
    ~finally:(fun () -> Obs.set_enabled true)
    (fun () ->
      Obs.Counter.incr c;
      Obs.Histogram.observe h 1.;
      Alcotest.(check int) "counter muted" 0 (Obs.Counter.value c);
      Alcotest.(check int) "histogram muted" 0 (Obs.Histogram.count h));
  Obs.Counter.incr c;
  Alcotest.(check int) "unmuted again" 1 (Obs.Counter.value c)

(* {1 Histogram buckets} *)

let test_histogram_boundaries () =
  let r = fresh () in
  let h = Obs.Histogram.make ~registry:r ~buckets:[ 1.; 10.; 100. ] "h" in
  (* upper bounds are inclusive: an observation exactly on a bound lands
     in that bucket, not the next one *)
  List.iter (Obs.Histogram.observe h) [ 0.5; 1.; 1.0001; 10.; 100.; 100.5 ];
  Alcotest.(check (list (pair (float 0.) int)))
    "bucket assignment"
    [ (1., 2); (10., 2); (100., 1); (infinity, 1) ]
    (Obs.Histogram.buckets h);
  Alcotest.(check int) "count" 6 (Obs.Histogram.count h);
  Alcotest.(check (float 1e-9)) "sum" 213.0001 (Obs.Histogram.sum h)

let test_histogram_bad_buckets () =
  let r = fresh () in
  Alcotest.check_raises "non-increasing bounds rejected"
    (Invalid_argument "Obs.Histogram.make: buckets must be strictly increasing")
    (fun () ->
      ignore (Obs.Histogram.make ~registry:r ~buckets:[ 1.; 1. ] "bad"))

let test_prometheus_render () =
  let r = fresh () in
  let c = Obs.Counter.make ~registry:r ~help:"a counter" "c_total" in
  Obs.Counter.incr ~by:3 c;
  let h = Obs.Histogram.make ~registry:r ~buckets:[ 0.5; 2. ] "h_seconds" in
  Obs.Histogram.observe h 0.25;
  Obs.Histogram.observe h 1.;
  let text = Obs.render_prometheus ~registry:r () in
  let contains line =
    let n = String.length line and m = String.length text in
    let rec go i = i + n <= m && (String.sub text i n = line || go (i + 1)) in
    go 0
  in
  List.iter
    (fun line ->
      Alcotest.(check bool)
        (Printf.sprintf "exposition contains %S" line)
        true (contains line))
    [
      "# TYPE c_total counter";
      "# HELP c_total a counter";
      "c_total 3";
      "# TYPE h_seconds histogram";
      {|h_seconds_bucket{le="0.5"} 1|};
      {|h_seconds_bucket{le="2"} 2|};
      {|h_seconds_bucket{le="+Inf"} 2|};
      "h_seconds_sum 1.25";
      "h_seconds_count 2";
    ]

(* {1 Concurrent merges (properties)} *)

(* Per-domain increment plans: up to 4 spawned domains each applying up
   to 50 increments of up to 7.  The merged counter must equal the
   arithmetic total no matter how the domains interleave. *)
let gen_plans : int list list QCheck2.Gen.t =
  QCheck2.Gen.(list_size (int_range 1 4) (list_size (int_range 0 50) (int_range 0 7)))

let prop_concurrent_counter_merge =
  QCheck2.Test.make ~name:"concurrent counter increments all merge" ~count:50
    gen_plans (fun plans ->
      let r = fresh () in
      let c = Obs.Counter.make ~registry:r "merge_total" in
      let domains =
        List.map
          (fun plan ->
            Domain.spawn (fun () ->
                List.iter (fun by -> Obs.Counter.incr ~by c) plan))
          plans
      in
      List.iter Domain.join domains;
      Obs.Counter.value c = List.fold_left ( + ) 0 (List.concat plans))

let prop_concurrent_histogram_merge =
  QCheck2.Test.make ~name:"concurrent histogram observations all merge"
    ~count:50
    QCheck2.Gen.(
      list_size (int_range 1 4)
        (list_size (int_range 0 50) (float_range 0. 200.)))
    (fun plans ->
      let r = fresh () in
      let h =
        Obs.Histogram.make ~registry:r ~buckets:[ 1.; 10.; 100. ] "merge_h"
      in
      let domains =
        List.map
          (fun plan ->
            Domain.spawn (fun () -> List.iter (Obs.Histogram.observe h) plan))
          plans
      in
      List.iter Domain.join domains;
      let all = List.concat plans in
      let total = List.fold_left ( +. ) 0. all in
      Obs.Histogram.count h = List.length all
      && abs_float (Obs.Histogram.sum h -. total)
         <= 1e-9 *. Float.max 1. (abs_float total)
      && List.fold_left ( + ) 0 (List.map snd (Obs.Histogram.buckets h))
         = List.length all)

(* {1 Tracing} *)

let parse_trace () =
  match Service.Json.parse (Obs.Trace.to_string ()) with
  | Error msg -> Alcotest.failf "trace is not valid JSON: %s" msg
  | Ok json -> json

let events json =
  match json with
  | Service.Json.Obj fields -> (
      match List.assoc_opt "traceEvents" fields with
      | Some (Service.Json.List evs) -> evs
      | _ -> Alcotest.fail "missing traceEvents list")
  | _ -> Alcotest.fail "trace root is not an object"

let field ev name =
  match ev with
  | Service.Json.Obj fields -> List.assoc_opt name fields
  | _ -> None

let float_field ev name =
  match Option.bind (field ev name) Service.Json.to_float with
  | Some v -> v
  | None -> Alcotest.failf "event missing numeric %s" name

let string_field ev name =
  match field ev name with
  | Some (Service.Json.String s) -> s
  | _ -> Alcotest.failf "event missing string %s" name

let test_span_nesting () =
  Obs.Trace.start ();
  Obs.Span.with_ ~name:"outer" (fun () ->
      Obs.Span.with_ ~name:"inner"
        ~attrs:[ ("k", "v") ]
        (fun () -> Obs.Span.instant "mark"));
  Obs.Trace.stop ();
  let evs = events (parse_trace ()) in
  Alcotest.(check int) "three events" 3 (List.length evs);
  let by_name n =
    List.find (fun ev -> string_field ev "name" = n) evs
  in
  let outer = by_name "outer" and inner = by_name "inner" in
  let o_ts = float_field outer "ts" and o_dur = float_field outer "dur" in
  let i_ts = float_field inner "ts" and i_dur = float_field inner "dur" in
  (* the clock's float ulp at the current epoch is ~0.5us and the
     emitted ts/dur are rounded to 0.001us, so allow a whisker of
     inversion on the boundaries *)
  let eps = 1. in
  Alcotest.(check bool) "inner starts after outer" true (i_ts >= o_ts -. eps);
  Alcotest.(check bool)
    "inner ends before outer" true
    (i_ts +. i_dur <= o_ts +. o_dur +. eps);
  Alcotest.(check string)
    "complete-event phase" "X" (string_field outer "ph");
  Alcotest.(check string) "instant phase" "i" (string_field (by_name "mark") "ph");
  (* args also carry the span's identity (trace_id/span_id/parent_id),
     so look the attribute up rather than matching the whole object *)
  (match field inner "args" with
  | Some (Service.Json.Obj kvs) -> (
      match List.assoc_opt "k" kvs with
      | Some (Service.Json.String "v") -> ()
      | _ -> Alcotest.fail "inner args lost")
  | _ -> Alcotest.fail "inner args lost");
  (* same-domain events share pid/tid, and the merge sorts by ts *)
  Alcotest.(check (float 0.))
    "same thread lane"
    (float_field outer "tid")
    (float_field inner "tid");
  let ts = List.map (fun ev -> float_field ev "ts") evs in
  Alcotest.(check (list (float 0.))) "sorted by ts" (List.sort compare ts) ts

let test_span_records_on_raise () =
  Obs.Trace.start ();
  (try Obs.Span.with_ ~name:"doomed" (fun () -> failwith "boom")
   with Failure _ -> ());
  Obs.Trace.stop ();
  let evs = events (parse_trace ()) in
  Alcotest.(check int) "span recorded despite the raise" 1 (List.length evs);
  Alcotest.(check string)
    "name survives" "doomed"
    (string_field (List.hd evs) "name")

let test_trace_inactive_is_silent () =
  Obs.Trace.start ();
  Obs.Trace.stop ();
  Obs.Span.with_ ~name:"after stop" (fun () -> ());
  Alcotest.(check int)
    "no events recorded while inactive" 0
    (List.length (events (parse_trace ())))

let test_trace_escaping () =
  Obs.Trace.start ();
  Obs.Span.with_ ~name:"quote \" slash \\ ctrl \x01" (fun () -> ());
  Obs.Trace.stop ();
  let evs = events (parse_trace ()) in
  Alcotest.(check string)
    "name round-trips through JSON" "quote \" slash \\ ctrl \x01"
    (string_field (List.hd evs) "name")

let test_trace_multi_domain () =
  Obs.Trace.start ();
  let d =
    Domain.spawn (fun () -> Obs.Span.with_ ~name:"worker span" (fun () -> ()))
  in
  Obs.Span.with_ ~name:"caller span" (fun () -> Domain.join d);
  Obs.Trace.stop ();
  let evs = events (parse_trace ()) in
  Alcotest.(check int) "both domains' buffers merged" 2 (List.length evs);
  let tids =
    List.sort_uniq compare (List.map (fun ev -> float_field ev "tid") evs)
  in
  Alcotest.(check int) "distinct timeline per domain" 2 (List.length tids)

(* {1 Trace context} *)

let args_field ev name =
  match field ev "args" with
  | Some (Service.Json.Obj kvs) -> (
      match List.assoc_opt name kvs with
      | Some (Service.Json.String s) -> Some s
      | _ -> None)
  | _ -> None

let test_context_ids () =
  Obs.Trace.start ();
  let outer_ctx = ref None in
  Obs.Span.with_ ~name:"outer" (fun () ->
      outer_ctx := Obs.Context.current ();
      Obs.Span.with_ ~name:"inner" (fun () -> ()));
  Obs.Trace.stop ();
  let ctx =
    match !outer_ctx with
    | Some c -> c
    | None -> Alcotest.fail "no ambient context inside a span"
  in
  let evs = events (parse_trace ()) in
  let by_name n = List.find (fun ev -> string_field ev "name" = n) evs in
  let outer = by_name "outer" and inner = by_name "inner" in
  Alcotest.(check (option string))
    "outer's span_id is the ambient context"
    (Some ctx.Obs.Context.span_id)
    (args_field outer "span_id");
  Alcotest.(check (option string))
    "inner parents outer"
    (Some ctx.Obs.Context.span_id)
    (args_field inner "parent_id");
  Alcotest.(check (option string))
    "one trace id spans both"
    (args_field outer "trace_id")
    (args_field inner "trace_id");
  Alcotest.(check (option string))
    "outer is a root" None
    (args_field outer "parent_id")

let test_context_header_roundtrip () =
  let ctx = { Obs.Context.trace_id = "t42"; span_id = "shard_a-7" } in
  Alcotest.(check string)
    "header form" "t42/shard_a-7" (Obs.Context.to_header ctx);
  (match Obs.Context.of_header "t42/shard_a-7" with
  | Some c ->
      Alcotest.(check string) "trace id back" "t42" c.Obs.Context.trace_id;
      Alcotest.(check string) "span id back" "shard_a-7" c.Obs.Context.span_id
  | None -> Alcotest.fail "header did not parse");
  Alcotest.(check bool)
    "headers without a delimiter are rejected" true
    (Obs.Context.of_header "nodelimiter" = None)

let test_remote_parent () =
  Obs.Trace.start ();
  let remote = { Obs.Context.trace_id = "t9"; span_id = "client-1" } in
  Obs.Span.with_ ~name:"server" ~parent:remote (fun () -> ());
  Obs.Trace.stop ();
  let ev = List.hd (events (parse_trace ())) in
  Alcotest.(check (option string))
    "adopted the remote trace id" (Some "t9")
    (args_field ev "trace_id");
  Alcotest.(check (option string))
    "parents the remote span" (Some "client-1")
    (args_field ev "parent_id")

let test_trace_node_metadata () =
  Obs.Trace.set_node "unit_test";
  Fun.protect
    ~finally:(fun () -> Obs.Trace.set_node "main")
    (fun () ->
      Obs.Trace.start ();
      Obs.Span.with_ ~name:"a" (fun () -> ());
      Obs.Trace.stop ();
      let json = parse_trace () in
      (match json with
      | Service.Json.Obj fields ->
          (match List.assoc_opt "node" fields with
          | Some (Service.Json.String "unit_test") -> ()
          | _ -> Alcotest.fail "node member missing");
          (match List.assoc_opt "epoch_s" fields with
          | Some (Service.Json.Float _) | Some (Service.Json.Int _) -> ()
          | _ -> Alcotest.fail "epoch_s member missing")
      | _ -> Alcotest.fail "trace root is not an object");
      let ev = List.hd (events json) in
      (* [start] resets the id counter: the root's trace_id consumes id
         1, the span itself id 2 — deterministic run to run *)
      Alcotest.(check (option string))
        "span ids are node-qualified and reset by start"
        (Some "unit_test-2")
        (args_field ev "span_id"))

(* {1 Cross-process merging} *)

let trace_doc ~node ~epoch evs =
  Printf.sprintf
    {|{"traceEvents": [%s], "displayTimeUnit": "ms", "node": "%s", "epoch_s": %f}|}
    (String.concat ", " evs) node epoch

let test_merge_alignment () =
  let a =
    trace_doc ~node:"client" ~epoch:100.
      [
        {|{"name": "root", "cat": "span", "ph": "X", "ts": 0, "dur": 10, "pid": 1, "tid": 1}|};
      ]
  in
  let b =
    trace_doc ~node:"shard" ~epoch:100.5
      [
        {|{"name": "child", "cat": "span", "ph": "X", "ts": 0, "dur": 5, "pid": 1, "tid": 1}|};
      ]
  in
  let merged =
    Obs.Trace_merge.merge
      [ Obs.Trace_merge.read_string a; Obs.Trace_merge.read_string b ]
  in
  match Service.Json.parse merged with
  | Error msg -> Alcotest.failf "merged trace is not valid JSON: %s" msg
  | Ok json ->
      let evs = events json in
      (* two process_name metadata rows + the two real events *)
      Alcotest.(check int) "four events" 4 (List.length evs);
      let named n = List.find (fun ev -> string_field ev "name" = n) evs in
      let root = named "root" and child = named "child" in
      Alcotest.(check (float 1e-6))
        "child shifted by the epoch delta (0.5s in us)" 500000.
        (float_field child "ts" -. float_field root "ts");
      Alcotest.(check bool)
        "processes get distinct pids" true
        (float_field root "pid" <> float_field child "pid");
      let metas =
        List.filter (fun ev -> string_field ev "ph" = "M") evs
      in
      Alcotest.(check int) "one process_name row each" 2 (List.length metas)

let test_merge_rejects_garbage () =
  match Obs.Trace_merge.read_string "not json at all" with
  | exception Obs.Trace_merge.Parse_error _ -> ()
  | _ -> Alcotest.fail "garbage accepted"

(* {1 Structured logs} *)

let test_log_lines () =
  let path = Filename.temp_file "obs_log" ".jsonl" in
  let oc = open_out path in
  Obs.Log.set_output (Some oc);
  Obs.Trace.start ();
  Obs.Span.with_ ~name:"op" (fun () ->
      Obs.Log.emit ~fields:[ ("k", "v") ] "test.event");
  Obs.Trace.stop ();
  Obs.Log.set_output None;
  close_out oc;
  let ic = open_in path in
  let line = input_line ic in
  close_in ic;
  Sys.remove path;
  match Service.Json.parse line with
  | Error msg -> Alcotest.failf "log line is not valid JSON: %s" msg
  | Ok json ->
      let str name =
        Option.bind (Service.Json.member name json) Service.Json.to_str
      in
      Alcotest.(check (option string))
        "event name" (Some "test.event") (str "event");
      Alcotest.(check (option string)) "field kept" (Some "v") (str "k");
      Alcotest.(check bool)
        "correlated to the enclosing span" true
        (str "span_id" <> None && str "trace_id" <> None)

let test_gc_gauges () =
  Obs.sample_gc ();
  match Obs.find "runtime_gc_heap_words" with
  | Some { Obs.value = Obs.Gauge_value v; _ } ->
      Alcotest.(check bool) "heap gauge is positive" true (v > 0.)
  | _ -> Alcotest.fail "runtime_gc_heap_words not registered"

(* The allocated-words gauge counts the calling domain's minor heap
   since its last collection: a 10,000-element list (30,000 words)
   built with no minor collection in between moves it by that much,
   give or take the sampling's own few words. *)
let test_gc_allocated_words_uncollected () =
  let allocated () =
    Obs.sample_gc ();
    match Obs.find "runtime_gc_allocated_words" with
    | Some { Obs.value = Obs.Gauge_value v; _ } -> v
    | _ -> Alcotest.fail "runtime_gc_allocated_words not registered"
  in
  Gc.minor ();
  let minors = (Gc.quick_stat ()).Gc.minor_collections in
  let before = allocated () in
  let list = Sys.opaque_identity (List.init 10_000 Fun.id) in
  let after = allocated () in
  Alcotest.(check int)
    "no minor collection in between" minors
    (Gc.quick_stat ()).Gc.minor_collections;
  Alcotest.(check int) "list built" 10_000 (List.length list);
  let rise = after -. before in
  if rise < 30_000. || rise > 32_000. then
    Alcotest.failf "allocated words rose by %.0f for a 30,000-word list" rise

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [ prop_concurrent_counter_merge; prop_concurrent_histogram_merge ]

let () =
  Alcotest.run "obs"
    [
      ( "registry",
        [
          Alcotest.test_case "counter basics" `Quick test_counter_basics;
          Alcotest.test_case "kind clash" `Quick test_kind_clash;
          Alcotest.test_case "gauge last write wins" `Quick
            test_gauge_last_write_wins;
          Alcotest.test_case "muting" `Quick test_muting;
        ] );
      ( "histogram",
        [
          Alcotest.test_case "bucket boundaries" `Quick
            test_histogram_boundaries;
          Alcotest.test_case "bad buckets" `Quick test_histogram_bad_buckets;
          Alcotest.test_case "prometheus exposition" `Quick
            test_prometheus_render;
        ] );
      ("concurrency", qcheck_cases);
      ( "tracing",
        [
          Alcotest.test_case "span nesting" `Quick test_span_nesting;
          Alcotest.test_case "records on raise" `Quick
            test_span_records_on_raise;
          Alcotest.test_case "inactive is silent" `Quick
            test_trace_inactive_is_silent;
          Alcotest.test_case "escaping" `Quick test_trace_escaping;
          Alcotest.test_case "multi-domain merge" `Quick
            test_trace_multi_domain;
        ] );
      ( "context",
        [
          Alcotest.test_case "span identity wiring" `Quick test_context_ids;
          Alcotest.test_case "header roundtrip" `Quick
            test_context_header_roundtrip;
          Alcotest.test_case "remote parent" `Quick test_remote_parent;
          Alcotest.test_case "node and epoch metadata" `Quick
            test_trace_node_metadata;
        ] );
      ( "merge",
        [
          Alcotest.test_case "epoch alignment and pids" `Quick
            test_merge_alignment;
          Alcotest.test_case "rejects garbage" `Quick
            test_merge_rejects_garbage;
        ] );
      ( "logs-gc",
        [
          Alcotest.test_case "log lines carry span ids" `Quick
            test_log_lines;
          Alcotest.test_case "gc gauges" `Quick test_gc_gauges;
          Alcotest.test_case "allocated words count the minor heap" `Quick
            test_gc_allocated_words_uncollected;
        ] );
    ]
