(* Wire helpers shared by the protocol's actors.  See protocol.mli. *)

type span_gate = {
  seen : (string, Obs.Context.t option) Hashtbl.t;
  gate_mutex : Mutex.t;
}

let make_span_gate () =
  { seen = Hashtbl.create 64; gate_mutex = Mutex.create () }

(* {1 Trace context on the wire}

   Requests may carry a ["trace": "<trace_id>/<span_id>"] member — the
   sender's span context.  [Job.request_of_json] ignores unknown
   members, so the field is invisible to peers that predate it. *)

let trace_context json =
  Option.bind (Json.member "trace" json) Json.to_str
  |> Option.map Obs.Context.of_header
  |> Option.join

let set_trace json ctx =
  match json with
  | Json.Obj members ->
      let members = List.filter (fun (k, _) -> k <> "trace") members in
      Json.Obj
        (match ctx with
        | Some c ->
            members @ [ ("trace", Json.String (Obs.Context.to_header c)) ]
        | None -> members)
  | other -> other

let op_label json =
  match Option.bind (Json.member "op" json) Json.to_str with
  | Some op -> op
  | None -> "analyze"

(* Open a server-side child span for one delivered request.  Spans are
   opened only for requests that carry a context (so a plain [analyze]
   trace is unchanged), and at most once per distinct context header:
   the fabric's at-least-once delivery may hand the same request to the
   handler twice, and the duplicate must not mint a duplicate span.
   The gate remembers the context each header's span was opened with,
   and a duplicate delivery REJOINS it — so anything the re-run emits
   downstream (a router re-forwarding, a runner's child spans) carries
   the same identity as the first delivery and dedups there in turn,
   instead of leaking whatever ambient context the duplicate happened
   to interleave with. *)
let with_request_span gate ~name ~endpoint json f =
  if not (Obs.Trace.active ()) then f ()
  else
    match trace_context json with
    | None -> f ()
    | Some ctx -> (
        let header = Obs.Context.to_header ctx in
        Mutex.lock gate.gate_mutex;
        let prior = Hashtbl.find_opt gate.seen header in
        (match prior with
        | None ->
            if Hashtbl.length gate.seen > 8192 then Hashtbl.reset gate.seen;
            (* reserve the slot; the span's context lands below once
               minted, and a racing duplicate meanwhile sees [None] *)
            Hashtbl.replace gate.seen header None
        | Some _ -> ());
        Mutex.unlock gate.gate_mutex;
        match prior with
        | None ->
            Obs.Span.with_
              ~attrs:[ ("endpoint", endpoint); ("op", op_label json) ]
              ~parent:ctx ~name
              (fun () ->
                (match Obs.Context.current () with
                | Some _ as c ->
                    Mutex.lock gate.gate_mutex;
                    Hashtbl.replace gate.seen header c;
                    Mutex.unlock gate.gate_mutex
                | None -> ());
                f ())
        | Some (Some c) ->
            Obs.Context.push c;
            Fun.protect ~finally:(fun () -> Obs.Context.pop c) f
        | Some None -> f ())

let counters_json (config : Runner.config) =
  let c =
    match config.cache with
    | Some cache -> Lru.counters cache
    | None ->
        { Lru.hits = 0; misses = 0; evictions = 0; size = 0; capacity = 0 }
  in
  let a = Runner.attribution_counters config in
  Json.Obj
    [
      ("hits", Json.Int c.Lru.hits);
      ("misses", Json.Int c.Lru.misses);
      ("evictions", Json.Int c.Lru.evictions);
      ("size", Json.Int c.Lru.size);
      ("capacity", Json.Int c.Lru.capacity);
      ("novel_misses", Json.Int a.Runner.novel);
      ("options_only_misses", Json.Int a.Runner.options_only);
      ( "changed_components",
        Json.Obj
          (List.map
             (fun (id, n) -> (id, Json.Int n))
             a.Runner.changed_components) );
    ]

(* The whole Obs registry as JSON, one member per metric (sorted by
   name, as in the Prometheus rendering). *)
let metrics_json () =
  let value_json = function
    | Obs.Counter_value n -> Json.Int n
    | Obs.Gauge_value v -> Json.Float v
    | Obs.Histogram_value { bounds; counts; sum; count } ->
        let buckets =
          List.init (Array.length counts) (fun i ->
              ( (if i < Array.length bounds then Fmt.str "%g" bounds.(i)
                 else "+Inf"),
                Json.Int counts.(i) ))
        in
        Json.Obj
          [
            ("sum", Json.Float sum);
            ("count", Json.Int count);
            ("buckets", Json.Obj buckets);
          ]
  in
  Json.Obj
    (List.map
       (fun s -> (s.Obs.name, value_json s.Obs.value))
       (Obs.snapshot ()))

let error_json msg = Json.to_string (Json.Obj [ ("error", Json.String msg) ])

let metric_slug name =
  String.map
    (fun c ->
      match c with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> c | _ -> '_')
    name

let gauge_value name =
  match Obs.find name with
  | Some { Obs.value = Obs.Gauge_value v; _ } -> v
  | _ -> 0.

(* {1 Health} *)

(* Reads the [runtime_gc_*] gauges — call [Obs.sample_gc] first. *)
let gc_json () =
  Json.Obj
    [
      ("heap_words", Json.Float (gauge_value "runtime_gc_heap_words"));
      ( "allocated_words",
        Json.Float (gauge_value "runtime_gc_allocated_words") );
      ( "minor_collections",
        Json.Float (gauge_value "runtime_gc_minor_collections") );
      ( "major_collections",
        Json.Float (gauge_value "runtime_gc_major_collections") );
    ]
