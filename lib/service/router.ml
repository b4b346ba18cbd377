(* Digest-ownership routing with retry and ring failover.  See
   router.mli. *)

type t = {
  name : string;
  shards : string array;
  retries : int;
  call_timeout : float option;
  transport : Transport.t;
  (* source digest + options fingerprint -> merkle key, emptied past
     [memo_limit] entries *)
  key_memo : (string, string) Hashtbl.t;
  memo_mutex : Mutex.t;
  stopping : bool Atomic.t;
  started_at : float;
  spans : Protocol.span_gate;
  m_requests : Obs.Counter.t;
  m_retries : Obs.Counter.t;
  m_failovers : Obs.Counter.t;
  m_owned : (string * Obs.Counter.t) array;
}

(* FNV-1a over the key bytes (64-bit offset basis truncated into the
   63-bit native int), kept positive.  Unlike [Hashtbl.hash] this is
   specified, so the ownership map survives restarts and OCaml
   upgrades — a shard's journal keeps paying off. *)
let fnv1a s =
  let h = ref 0x4bf29ce484222325 in
  String.iter
    (fun c ->
      h := !h lxor Char.code c;
      h := !h * 0x100000001b3)
    s;
  !h land max_int

let create ?(name = "router") ?(retries = 2) ?call_timeout ~shards transport =
  if shards = [] then invalid_arg "Router.create: no shards";
  (* Runtime metric registration, as in Shard: routers are created per
     process, not per link. *)
  {
    name;
    shards = Array.of_list shards;
    retries = max 1 retries;
    call_timeout;
    transport;
    key_memo = Hashtbl.create 64;
    memo_mutex = Mutex.create ();
    stopping = Atomic.make false;
    started_at = Timed.Clock.gettimeofday ();
    spans = Protocol.make_span_gate ();
    m_requests =
      Obs.Counter.make ~help:"Requests routed" "service_route_requests_total";
    m_retries =
      Obs.Counter.make ~help:"Routed calls retried on the same shard"
        "service_route_retries_total";
    m_failovers =
      Obs.Counter.make
        ~help:"Routed calls failed over to a non-owner shard"
        "service_route_failovers_total";
    m_owned =
      Array.of_list
        (List.map
           (fun shard ->
             ( shard,
               Obs.Counter.make
                 ~help:"Requests owned by this shard"
                 (Printf.sprintf "service_route_owned_%s_total"
                    (Protocol.metric_slug shard)) ))
           shards);
  }

let name t = t.name
let stopping t = Atomic.get t.stopping

let owner t merkle = t.shards.(fnv1a merkle mod Array.length t.shards)

let source_digest (req : Job.request) =
  match req.Job.source with
  | Job.Inline text -> Digest.to_hex (Digest.string text)
  | Job.File path -> (
      (* Digest the content, not the path: two manifest entries naming
         different copies of one model route to the same shard. *)
      match Digest.file path with
      | d -> Digest.to_hex d
      | exception Sys_error _ -> Digest.to_hex (Digest.string ("path:" ^ path)))

(* A long-lived router keeps meeting new models: the memo forgets them
   all past this size, as the span gate does, so its heap stays
   bounded.  A forgotten key costs one model load to recompute. *)
let memo_limit = 1024

let routing_key t (req : Job.request) =
  let memo_key = source_digest req ^ "/" ^ Key.request_fingerprint req in
  Mutex.lock t.memo_mutex;
  let hit = Hashtbl.find_opt t.key_memo memo_key in
  Mutex.unlock t.memo_mutex;
  match hit with
  | Some merkle -> merkle
  | None ->
      let merkle =
        match Runner.load req with
        | root -> (Key.of_request root req).Key.merkle
        | exception _ ->
            (* Unloadable model: route by raw source so the owner shard
               reports the load failure itself. *)
            memo_key
      in
      Mutex.lock t.memo_mutex;
      if Hashtbl.length t.key_memo >= memo_limit then
        Hashtbl.reset t.key_memo;
      Hashtbl.replace t.key_memo memo_key merkle;
      Mutex.unlock t.memo_mutex;
      merkle

let route t req =
  let merkle = routing_key t req in
  (owner t merkle, merkle)

let count_owned t shard =
  Array.iter
    (fun (s, counter) -> if String.equal s shard then Obs.Counter.incr counter)
    t.m_owned

(* A control-op line carrying the calling thread's current span context
   (when tracing), so ops fanned out to the shards parent on the router
   span that asked for them. *)
let op_line op =
  let json = Json.Obj [ ("op", Json.String op) ] in
  Json.to_string
    (if Obs.Trace.active () then Protocol.set_trace json (Obs.Context.current ())
     else json)

(* Try the owner [retries] times, then each following shard on the
   ring.  Timeouts and unreachable transports move on; [No_endpoint]
   skips retries for that shard (it will not appear mid-burst). *)
let forward t ~owner_shard line =
  let n = Array.length t.shards in
  let start =
    let rec index i =
      if i >= n then 0
      else if String.equal t.shards.(i) owner_shard then i
      else index (i + 1)
    in
    index 0
  in
  let rec shard_loop hop =
    if hop >= n then begin
      Obs.Log.emit ~fields:[ ("owner", owner_shard) ] "route.unreachable";
      Error `Unreachable
    end
    else begin
      let dst = t.shards.((start + hop) mod n) in
      if hop > 0 then begin
        Obs.Counter.incr t.m_failovers;
        Obs.Log.emit
          ~fields:[ ("owner", owner_shard); ("dst", dst) ]
          "route.failover"
      end;
      let rec attempt k =
        match
          Transport.call t.transport ?timeout:t.call_timeout ~src:t.name ~dst
            line
        with
        | Ok reply -> Ok reply
        | Error (Transport.No_endpoint _) -> Error `Next
        | Error (Transport.Timeout | Transport.Unreachable _) ->
            if k + 1 < t.retries then (
              Obs.Counter.incr t.m_retries;
              Obs.Log.emit
                ~fields:[ ("dst", dst); ("attempt", string_of_int (k + 1)) ]
                "route.retry";
              attempt (k + 1))
            else Error `Next
      in
      match attempt 0 with
      | Ok reply -> Ok reply
      | Error `Next -> shard_loop (hop + 1)
    end
  in
  shard_loop 0

let unreachable_outcome id =
  Json.to_string
    (Job.outcome_to_json
       {
         Job.id;
         verdict = Job.Failed "shards unreachable";
         states = 0;
         cached = false;
         degraded = false;
         wall_s = 0.;
       })

let analyze t line json (req : Job.request) =
  Obs.Counter.incr t.m_requests;
  let owner_shard, _ = route t req in
  count_owned t owner_shard;
  Obs.Log.emit
    ~fields:[ ("id", req.Job.id); ("owner", owner_shard) ]
    "route.forward";
  (* Re-parent the request onto the router's own span before forwarding,
     so the shard span chains client -> router -> shard; without an
     active trace the original line is forwarded untouched. *)
  let line =
    if Obs.Trace.active () then
      match Obs.Context.current () with
      | Some _ as ctx -> Json.to_string (Protocol.set_trace json ctx)
      | None -> line
    else line
  in
  match forward t ~owner_shard line with
  | Ok reply -> reply
  | Error `Unreachable -> unreachable_outcome req.Job.id

(* {"op":"stats"}: fan out and merge.  Sums across shards, the raw
   per-shard objects under "shards", unreachable shards reported as
   {"error": ...} there. *)
let stats t =
  let int_field obj key =
    Option.value ~default:0 (Option.bind (Json.member key obj) Json.to_int)
  in
  let totals = Hashtbl.create 8 in
  let changed = Hashtbl.create 8 in
  let add key n = Hashtbl.replace totals key (n + Option.value ~default:0 (Hashtbl.find_opt totals key)) in
  let per_shard =
    Array.to_list t.shards
    |> List.map (fun shard ->
           match
             Transport.call t.transport ?timeout:t.call_timeout ~src:t.name
               ~dst:shard (op_line "stats")
           with
           | Error e ->
               ( shard,
                 Json.Obj
                   [ ("error", Json.String (Transport.error_message e)) ] )
           | Ok reply -> (
               match Json.parse reply with
               | Error msg ->
                   (shard, Json.Obj [ ("error", Json.String msg) ])
               | Ok obj ->
                   List.iter
                     (fun key -> add key (int_field obj key))
                     [
                       "hits"; "misses"; "evictions"; "size"; "capacity";
                       "novel_misses"; "options_only_misses";
                     ];
                   (match Json.member "changed_components" obj with
                   | Some (Json.Obj members) ->
                       List.iter
                         (fun (id, v) ->
                           match Json.to_int v with
                           | Some n ->
                               Hashtbl.replace changed id
                                 (n
                                 + Option.value ~default:0
                                     (Hashtbl.find_opt changed id))
                           | None -> ())
                         members
                   | _ -> ());
                   (shard, obj)))
  in
  let total key =
    Json.Int (Option.value ~default:0 (Hashtbl.find_opt totals key))
  in
  let changed_members =
    Hashtbl.fold (fun id n acc -> (id, n) :: acc) changed []
    |> List.sort (fun (ia, na) (ib, nb) ->
           match compare nb na with 0 -> String.compare ia ib | c -> c)
    |> List.map (fun (id, n) -> (id, Json.Int n))
  in
  Json.to_string
    (Json.Obj
       [
         ("hits", total "hits");
         ("misses", total "misses");
         ("evictions", total "evictions");
         ("size", total "size");
         ("capacity", total "capacity");
         ("novel_misses", total "novel_misses");
         ("options_only_misses", total "options_only_misses");
         ("changed_components", Json.Obj changed_members);
         ("shards", Json.Obj per_shard);
       ])

let quit t =
  Array.iter
    (fun shard ->
      ignore
        (Transport.call t.transport ?timeout:t.call_timeout ~src:t.name
           ~dst:shard (op_line "quit")))
    t.shards;
  Atomic.set t.stopping true;
  Json.to_string (Json.Obj [ ("ok", Json.Bool true) ])

(* {1 Health and cluster aggregation} *)

let probe_shards t op =
  Array.to_list t.shards
  |> List.map (fun shard ->
         match
           Transport.call t.transport ?timeout:t.call_timeout ~src:t.name
             ~dst:shard (op_line op)
         with
         | Ok reply -> (shard, Ok reply)
         | Error e -> (shard, Error (Transport.error_message e)))

let health_json t =
  Obs.sample_gc ();
  let per = probe_shards t "health" in
  let reachable =
    List.length (List.filter (fun (_, r) -> Result.is_ok r) per)
  in
  Json.Obj
    [
      ("ok", Json.Bool (reachable = Array.length t.shards));
      ("endpoint", Json.String t.name);
      ("role", Json.String "router");
      ( "uptime_s",
        Json.Float (Timed.Clock.gettimeofday () -. t.started_at) );
      ("reachable", Json.Int reachable);
      ("shard_count", Json.Int (Array.length t.shards));
      ( "shards",
        Json.Obj
          (List.map
             (fun (shard, r) -> (shard, Json.Bool (Result.is_ok r)))
             per) );
      ("gc", Protocol.gc_json ());
    ]

(* [{"op":"cluster-stats"}]: one health probe per shard (plus the
   prometheus text when [with_metrics]), merged with the router's own
   routing counters — the whole cluster in one reply. *)
let cluster_json t ~with_metrics =
  let parse_reply reply =
    match Json.parse reply with
    | Ok json -> json
    | Error msg -> Json.Obj [ ("error", Json.String msg) ]
  in
  let per =
    probe_shards t "health"
    |> List.map (fun (shard, r) ->
           match r with
           | Error msg ->
               ( shard,
                 Json.Obj
                   [
                     ("reachable", Json.Bool false);
                     ("error", Json.String msg);
                   ] )
           | Ok reply ->
               let members =
                 [
                   ("reachable", Json.Bool true);
                   ("health", parse_reply reply);
                 ]
               in
               let members =
                 if not with_metrics then members
                 else
                   members
                   @ [
                       ( "metrics",
                         match
                           Transport.call t.transport ?timeout:t.call_timeout
                             ~src:t.name ~dst:shard (op_line "metrics")
                         with
                         | Ok reply -> parse_reply reply
                         | Error e ->
                             Json.Obj
                               [
                                 ( "error",
                                   Json.String (Transport.error_message e) );
                               ] );
                     ]
               in
               (shard, Json.Obj members))
  in
  let reachable =
    List.length
      (List.filter
         (fun (_, v) ->
           match v with
           | Json.Obj members ->
               List.assoc_opt "reachable" members = Some (Json.Bool true)
           | _ -> false)
         per)
  in
  Json.to_string
    (Json.Obj
       [
         ("reachable", Json.Int reachable);
         ("shard_count", Json.Int (Array.length t.shards));
         ("shards", Json.Obj per);
         ( "router",
           Json.Obj
             [
               ("endpoint", Json.String t.name);
               ("requests", Json.Int (Obs.Counter.value t.m_requests));
               ("retries", Json.Int (Obs.Counter.value t.m_retries));
               ("failovers", Json.Int (Obs.Counter.value t.m_failovers));
             ] );
       ])

let strip_op = function
  | Json.Obj members -> List.filter (fun (k, _) -> k <> "op") members
  | _ -> []

let dispatch t line json =
  match Option.bind (Json.member "op" json) Json.to_str with
  | Some "stats" -> stats t
  | Some "metrics" ->
      (* Local registry: the process-level view.  Per-shard
         registries are one hop away via their own endpoints. *)
      Obs.sample_gc ();
      Json.to_string
        (Json.Obj [ ("prometheus", Json.String (Obs.render_prometheus ())) ])
  | Some "health" -> Json.to_string (health_json t)
  | Some "cluster-stats" ->
      let with_metrics =
        Option.value ~default:false
          (Option.bind (Json.member "with_metrics" json) Json.to_bool)
      in
      cluster_json t ~with_metrics
  | Some "quit" -> quit t
  | Some "route" -> (
      match Job.request_of_json (Json.Obj (strip_op json)) with
      | Error msg -> Protocol.error_json msg
      | Ok req ->
          let shard, merkle = route t req in
          Json.to_string
            (Json.Obj
               [ ("shard", Json.String shard); ("key", Json.String merkle) ]))
  | Some op -> Protocol.error_json (Printf.sprintf "unknown op %S" op)
  | None -> (
      match Job.request_of_json json with
      | Error msg -> Protocol.error_json msg
      | Ok req -> analyze t line json req)

let handler t line =
  match Json.parse line with
  | Error msg -> Protocol.error_json msg
  | Ok json ->
      Protocol.with_request_span t.spans ~name:"router.request"
        ~endpoint:t.name json (fun () -> dispatch t line json)

let register t transport = Transport.serve transport t.name (handler t)
