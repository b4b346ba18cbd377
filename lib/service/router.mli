(** The routing actor: maps each analysis request to the shard that
    owns its cache key and forwards it there, with retries and ring
    failover.

    Ownership is content-addressed and stable: the request's Merkle
    {!Key} digest is hashed (FNV-1a) onto the shard ring, so every
    process — router restarts included — sends a given model+options to
    the same shard, which is what makes the per-shard caches and
    journals effective.  Requests whose model cannot even be loaded are
    routed by a digest of the raw source instead; the owner shard then
    produces the [Failed] outcome through its normal path, keeping
    error behavior identical to a single-process service.

    The router answers the same line protocol as a shard:

    - an analysis request — forwarded to the owner; on [Timeout] or an
      unreachable shard the call is retried, then failed over around
      the ring; when every shard is unreachable the reply is an
      ordinary [Failed] outcome (verdict ["error"]), so clients never
      need router-specific error handling;
    - [{"op": "stats"}] — fans out to every shard and merges the
      counter objects (sums, plus a per-shard breakdown under
      ["shards"]);
    - [{"op": "route"}] — answers [{"shard": …, "key": …}] without
      running anything (debugging / tests);
    - [{"op": "metrics"}] — the router process's own Obs registry;
    - [{"op": "health"}] — router uptime and per-shard reachability
      (one probe per shard);
    - [{"op": "cluster-stats"}] — per-shard health objects (plus each
      shard's metrics when the request carries
      [{"with_metrics": true}]) merged with the router's own routing
      counters — the aggregated cluster view behind the
      [cluster-stats] CLI;
    - [{"op": "quit"}] — forwards [quit] to every shard (best effort),
      replies [{"ok": true}] and latches {!stopping}.

    When tracing is active and a request carries a ["trace"] context,
    the router opens a [router.request] child span and rewrites the
    forwarded request's context to that span, so shard spans chain
    through the router back to the client root.  Fanned-out control ops
    ([stats]/[health]/[metrics]/[quit]) carry the same context.

    Routing keys are memoized by source-content digest + options
    fingerprint, so a duplicate-heavy workload plans each distinct
    model once, not once per request.  The memo is emptied when it
    reaches 1,024 entries, so a long-lived router's heap does not grow
    with every model it has routed. *)

type t

val create :
  ?name:string ->
  ?retries:int ->
  ?call_timeout:float ->
  shards:string list ->
  Transport.t ->
  t
(** [create ~shards transport] routes over the given shard endpoint
    names (the ring order; must be non-empty — @raise Invalid_argument
    otherwise).  [name] is the router's own endpoint name (default
    ["router"]); [retries] (default 2) is the number of attempts per
    shard before failing over; [call_timeout] bounds each transport
    call (default: none). *)

val name : t -> string

val owner : t -> string -> string
(** [owner t merkle_key] — the shard name a cache key hashes to.
    Deterministic, uniform, independent of process history. *)

val route : t -> Job.request -> string * string
(** [(shard, merkle key)] for a request — loads (or recalls) the model
    to compute its key; falls back to a raw-source digest when loading
    fails. *)

val handler : t -> string -> string
(** Answer one protocol line (see above).  Never raises. *)

val health_json : t -> Json.t
(** The [{"op":"health"}] reply object: router uptime, per-shard
    reachability booleans, GC gauges.  Also served on the
    [--metrics-listen] endpoint's [/health] path. *)

val stopping : t -> bool

val register : t -> Transport.t -> unit
(** Serve {!handler} under {!name} on a transport (usually the same
    one the shards live on, but a router can front sim shards over a
    socket, or vice versa). *)
