(* The one analysing endpoint: a runner stack with its own cache, an
   optional journal, and the request protocol over it.  See shard.mli. *)

type t = {
  name : string;
  config : Runner.config;
  started_at : float;
  journal : Journal.t option;
  recovery : Journal.recovery option;
  stopping : bool Atomic.t;
  requests : Obs.Counter.t;
  spans : Protocol.span_gate;
}

let create ?journal ?compact_threshold ?(capacity = 256) ~name config =
  (* Metrics are registered here, per shard, at runtime — module-level
     registration would change the registry of every process linking
     this library. *)
  let metric suffix =
    Printf.sprintf "service_shard_%s_%s" (Protocol.metric_slug name) suffix
  in
  let requests =
    Obs.Counter.make ~help:"Requests handled by this shard"
      (metric "requests_total")
  in
  let opened =
    match journal with
    | None -> Ok None
    | Some path -> (
        match Journal.open_ ?compact_threshold path with
        | Ok (j, recovery) -> Ok (Some (j, recovery))
        | Error _ as e -> e)
  in
  match opened with
  | Error msg -> Error msg
  | Ok opened ->
      let config = Runner.with_cache ~capacity config in
      let journal = Option.map fst opened in
      let recovery = Option.map snd opened in
      (match (config.Runner.cache, recovery) with
      | Some cache, Some r ->
          (* Oldest-first replay leaves the most recently journalled key
             most recently used. *)
          List.iter (fun (key, outcome) -> Lru.add cache key outcome)
            r.Journal.replayed;
          Obs.Gauge.set
            (Obs.Gauge.make
               ~help:"Verdicts replayed from the journal at startup"
               (metric "journal_replayed"))
            (float_of_int (List.length r.Journal.replayed))
      | _ -> ());
      let config =
        match journal with
        | None -> config
        | Some j ->
            let appends =
              Obs.Counter.make
                ~help:"Verdicts appended to this shard's journal"
                (metric "journal_appends_total")
            in
            {
              config with
              Runner.on_store =
                Some
                  (fun key outcome ->
                    Journal.append j ~key outcome;
                    Obs.Counter.incr appends);
            }
      in
      Ok
        {
          name;
          config;
          started_at = Timed.Clock.gettimeofday ();
          journal;
          recovery;
          stopping = Atomic.make false;
          requests;
          spans = Protocol.make_span_gate ();
        }

let name t = t.name
let recovery t = t.recovery
let stopping t = Atomic.get t.stopping

let journal_json t j =
  let s = Journal.stats j in
  Json.Obj
    [
      ("path", Json.String (Journal.path j));
      ("bytes", Json.Int s.Journal.bytes);
      ("records", Json.Int s.Journal.records);
      ("live", Json.Int s.Journal.live);
      ("compactions", Json.Int s.Journal.compactions);
      ( "last_compaction_s",
        match s.Journal.last_compaction_s with
        | Some at -> Json.Float at
        | None -> Json.Null );
      ( "replayed",
        Json.Int
          (match t.recovery with
          | Some r -> List.length r.Journal.replayed
          | None -> 0) );
    ]

let health_json t =
  Obs.sample_gc ();
  let c =
    match t.config.Runner.cache with
    | Some cache -> Lru.counters cache
    | None ->
        { Lru.hits = 0; misses = 0; evictions = 0; size = 0; capacity = 0 }
  in
  let lookups = c.Lru.hits + c.Lru.misses in
  let hit_ratio =
    if lookups = 0 then 0. else float_of_int c.Lru.hits /. float_of_int lookups
  in
  Json.Obj
    ([
       ("ok", Json.Bool true);
       ("endpoint", Json.String t.name);
       ( "uptime_s",
         Json.Float (Timed.Clock.gettimeofday () -. t.started_at) );
       ( "queue_depth",
         Json.Float (Protocol.gauge_value "service_queue_depth") );
       ( "cache",
         Json.Obj
           [
             ("hits", Json.Int c.Lru.hits);
             ("misses", Json.Int c.Lru.misses);
             ("size", Json.Int c.Lru.size);
             ("capacity", Json.Int c.Lru.capacity);
             ("hit_ratio", Json.Float hit_ratio);
           ] );
       ("gc", Protocol.gc_json ());
       ("role", Json.String "shard");
     ]
    @
    match t.journal with
    | None -> []
    | Some j -> [ ("journal", journal_json t j) ])

let health t = Json.to_string (health_json t)

let dispatch t json =
  match Option.bind (Json.member "op" json) Json.to_str with
  | Some "stats" -> Json.to_string (Protocol.counters_json t.config)
  | Some "metrics" ->
      Obs.sample_gc ();
      Json.to_string
        (Json.Obj
           [
             ("metrics", Protocol.metrics_json ());
             ("prometheus", Json.String (Obs.render_prometheus ()));
           ])
  | Some "health" -> health t
  | Some "cluster-stats" ->
      (* A lone shard is a one-shard cluster: answering here lets
         [cluster-stats] point at a shard or a plain [serve] too. *)
      Json.to_string
        (Json.Obj
           [
             ("reachable", Json.Int 1);
             ("shard_count", Json.Int 1);
             ( "shards",
               Json.Obj
                 [
                   ( t.name,
                     Json.Obj
                       [
                         ("reachable", Json.Bool true);
                         ("health", health_json t);
                       ] );
                 ] );
           ])
  | Some "quit" ->
      Atomic.set t.stopping true;
      Json.to_string (Json.Obj [ ("ok", Json.Bool true) ])
  | Some op -> Protocol.error_json (Printf.sprintf "unknown op %S" op)
  | None -> (
      match Job.request_of_json json with
      | Error msg -> Protocol.error_json msg
      | Ok req ->
          Json.to_string (Job.outcome_to_json (Runner.run t.config req)))

let handler t line =
  Obs.Counter.incr t.requests;
  match Json.parse line with
  | Error msg -> Protocol.error_json msg
  | Ok json ->
      Protocol.with_request_span t.spans ~name:"service.request"
        ~endpoint:t.name json (fun () ->
          Obs.Log.emit
            ~fields:[ ("endpoint", t.name); ("op", Protocol.op_label json) ]
            "service.request";
          dispatch t json)

let register t transport = Transport.serve transport t.name (handler t)

let close t =
  match t.journal with
  | Some j ->
      Journal.sync j;
      Journal.close j
  | None -> ()
