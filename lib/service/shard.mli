(** An owner shard: one runner/scheduler/LRU stack behind a transport
    endpoint, with an optional persistent verdict {!Journal}.

    A shard owns a slice of the key space (the {!Router} decides
    which); it answers the full {!Protocol} — analysis requests,
    [stats], [metrics], [quit] — through any {!Transport}.  When given
    a journal path it persists every stored verdict and pre-warms its
    cache from the journal on startup, so a restarted shard keeps
    answering repeats from cache.

    Per-shard Obs metrics ([service_shard_<name>_requests_total],
    [..._journal_appends_total], [..._journal_replayed]) are registered
    when the shard is created, never at module load — the metric
    registry of a process that creates no shards is unchanged. *)

type t

val create :
  ?journal:string ->
  ?compact_threshold:int ->
  ?capacity:int ->
  name:string ->
  Runner.config ->
  (t, string) result
(** [create ~name config] builds a shard called [name] on [config]'s
    jobs setting, always with its own verdict cache (LRU
    [capacity], default 256), fragment cache and miss attribution —
    whatever caches [config] carried are replaced.  With [?journal]
    the file at that path is opened ({!Journal.open_}, creating it if
    absent), its surviving records are replayed into the cache, and
    every future store is appended to it. *)

val name : t -> string
val config : t -> Runner.config
val journal : t -> Journal.t option

val health : t -> string
(** The [{"op":"health"}] reply as a one-line JSON string — role,
    uptime, queue depth, cache counters, GC gauges and (with a journal)
    path/size/records/compaction/replay stats.  Also served on the
    [--metrics-listen] endpoint's [/health] path. *)

val recovery : t -> Journal.recovery option
(** What journal replay found at startup ([None] without a journal). *)

val handler : t -> string -> string
(** Answer one protocol request line.  [quit] replies [{"ok": true}]
    and latches {!stopping}; the transport loop decides what to do with
    that.  Never raises. *)

val stopping : t -> bool
(** [true] once a [quit] request has been handled. *)

val register : t -> Transport.t -> unit
(** [Transport.serve transport (name t) (handler t)]. *)

val close : t -> unit
(** Flush and close the journal, if any. *)
