(** The one analysing endpoint: one runner/scheduler/LRU stack behind
    the request protocol, with an optional persistent verdict
    {!Journal}.

    Every endpoint that analyses is a shard: [aadl_sched shard], a plain
    [aadl_sched serve] on stdio or [--listen] (named ["serve"] on stdio,
    after its address on a socket), and the in-process endpoints of the
    tests and benchmarks.  Behind a {!Router} a shard owns a slice of
    the key space; alone it is a complete service.  {!handler} answers
    one request line with one reply line, whatever the transport:

    - an analysis request ({!Job.request_of_json} schema, the same as a
      [batch] manifest line) — answered with the {!Job.outcome} object;
    - [{"op": "stats"}] — the verdict-cache and miss-attribution
      counters ({!Protocol.counters_json});
    - [{"op": "metrics"}] — the full {!Obs} registry:
      [{"metrics": {name: value, …}, "prometheus": "…"}];
    - [{"op": "health"}] — see {!health};
    - [{"op": "cluster-stats"}] — this shard as a one-shard cluster, in
      the shape a router reports;
    - [{"op": "quit"}] — [{"ok": true}], and {!stopping} latches.

    Malformed lines, unknown ops and failed jobs are answered with
    [{"error": …}] or a [Failed] outcome; the handler never raises.
    A request carrying a ["trace"] context opens a [service.request]
    span while tracing is active ({!Protocol.with_request_span}).

    When given a journal path a shard persists every stored verdict and
    pre-warms its cache from the journal on startup, so a restarted
    shard keeps answering repeats from cache.

    Per-shard Obs metrics ([service_shard_<name>_requests_total],
    [..._journal_appends_total], [..._journal_replayed]) are registered
    when the shard is created, never at module load — the metric
    registry of a process that creates no shards is unchanged; a plain
    [serve] registers [service_shard_serve_requests_total]. *)

type t

val create :
  ?journal:string ->
  ?compact_threshold:int ->
  ?capacity:int ->
  name:string ->
  Runner.config ->
  (t, string) result
(** [create ~name config] builds a shard called [name] on [config],
    always with its own verdict cache (LRU [capacity], default 256)
    and miss attribution — whatever caches [config] carried are
    replaced.  With [?journal]
    the file at that path is opened ({!Journal.open_}, creating it if
    absent), its surviving records are replayed into the cache, and
    every future store is appended to it. *)

val name : t -> string

val health : t -> string
(** The [{"op":"health"}] reply as a one-line JSON string — name,
    uptime (ambient {!Timed.Clock}), scheduler queue depth, cache
    counters with the hit ratio, freshly sampled [runtime_gc_*] gauges,
    role and (with a journal) path/size/records/compaction/replay
    stats.  Also served on the [--metrics-listen] endpoint's [/health]
    path. *)

val recovery : t -> Journal.recovery option
(** What journal replay found at startup ([None] without a journal). *)

val handler : t -> string -> string
(** Answer one protocol request line (see above).  [quit] latches
    {!stopping}; the transport loop decides what to do with that.
    Never raises. *)

val stopping : t -> bool
(** [true] once a [quit] request has been handled. *)

val register : t -> Transport.t -> unit
(** [Transport.serve transport (name t) (handler t)]. *)

val close : t -> unit
(** Flush and close the journal, if any. *)
