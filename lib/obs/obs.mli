(** The observability substrate shared by every layer: a metrics
    registry (named counters, gauges, fixed-bucket histograms) and
    span-based structured tracing with Chrome [trace_event] export.

    {1 Registry}

    Metrics are registered by name in a {!registry} (usually
    {!default_registry}) and updated through handles, so hot paths pay
    an atomic increment, never a name lookup.  A counter is one atomic
    cell and a histogram one per bucket plus an atomic sum, so updates
    from several domains (scheduler workers, socket threads) neither
    lock nor lose counts.  Reads ({!snapshot}, {!render_prometheus})
    are consistent enough for telemetry: they read the cells without
    stopping writers.

    {1 Tracing}

    {!Span.with_} brackets a region with begin/end timestamps.  When
    tracing is inactive a span costs one atomic load; when active
    ({!Trace.start}) every span is buffered domain-locally and
    {!Trace.write} merges the buffers into Chrome [trace_event] JSON,
    viewable in [chrome://tracing] or {{:https://ui.perfetto.dev}
    Perfetto}.  The CLI's [--trace FILE] flag drives exactly this
    pair. *)

type registry

val default_registry : registry
(** The process-wide registry every library instruments into. *)

val create_registry : unit -> registry
(** A fresh, empty registry (tests). *)

val set_enabled : bool -> unit
(** Globally mute ([false]) or unmute ([true], the initial state) all
    metric updates.  The overhead benchmark gate measures the cost of
    instrumentation as the delta between the two states. *)

val enabled : unit -> bool

module Counter : sig
  type t

  val make : ?registry:registry -> ?help:string -> string -> t
  (** [make name] registers (or returns the already-registered) counter
      [name].  @raise Invalid_argument if [name] is registered as a
      different metric kind. *)

  val incr : ?by:int -> t -> unit
  (** Add [by] (default 1, must be [>= 0]). *)

  val value : t -> int

  val name : t -> string
end

module Gauge : sig
  type t

  val make : ?registry:registry -> ?help:string -> string -> t
  val set : t -> float -> unit  (** last write wins *)

  val value : t -> float
  val name : t -> string
end

module Histogram : sig
  type t

  val make :
    ?registry:registry -> ?help:string -> ?buckets:float list -> string -> t
  (** [buckets] are the finite upper bounds ([le], inclusive), strictly
      increasing; an overflow (+Inf) bucket is always appended.  The
      default buckets are powers of ten from 1ms to 100s — override for
      anything that is not a duration in seconds. *)

  val observe : t -> float -> unit

  val bucket : t -> float -> int
  (** The index of the bucket {!observe} counts a value in: the first
      whose bound covers it, the overflow bucket last. *)

  val add : t -> counts:int array -> sum:float -> unit
  (** Many observations at once: [counts.(b)] more in bucket [b] (see
      {!bucket}), whose values sum to [sum] — the same totals as
      observing each value.  For a hot loop that counts into its own
      array and publishes once.
      @raise Invalid_argument unless there is one count per bucket. *)

  val sum : t -> float
  val count : t -> int

  val buckets : t -> (float * int) list
  (** [(upper_bound, count)] per bucket, non-cumulative, the overflow
      bucket last as [(infinity, n)]. *)

  val name : t -> string
end

(** {1 Reading a registry} *)

type value =
  | Counter_value of int
  | Gauge_value of float
  | Histogram_value of {
      bounds : float array;  (** finite upper bounds *)
      counts : int array;  (** per bucket, non-cumulative; length = bounds + 1 *)
      sum : float;
      count : int;
    }

type sample = { name : string; help : string; value : value }

val snapshot : ?registry:registry -> unit -> sample list
(** Every metric in the registry, sorted by name. *)

val find : ?registry:registry -> string -> sample option

val render_prometheus : ?registry:registry -> unit -> string
(** Prometheus text exposition (v0.0.4): [# HELP]/[# TYPE] preambles,
    cumulative [_bucket{le="..."}] rows plus [_sum]/[_count] for
    histograms.  Metrics appear sorted by name. *)

(** {1 Trace context}

    A span's identity: [trace_id] names the end-to-end request timeline
    and [span_id] one bracket on it.  Contexts travel across process
    boundaries as a ["trace_id/span_id"] wire header carried on
    protocol ops, and ambiently within a process on a per-thread stack
    that {!Span.with_} maintains — so nested spans parent correctly even
    across the socket transport's handler threads. *)

module Context : sig
  type t = { trace_id : string; span_id : string }

  val to_header : t -> string
  (** ["trace_id/span_id"], the wire form carried on protocol ops. *)

  val of_header : string -> t option
  (** Inverse of {!to_header}; [None] on anything malformed. *)

  val current : unit -> t option
  (** The calling thread's innermost active span context, if any. *)

  val push : t -> unit
  val pop : t -> unit
  (** Explicit stack maintenance for code that carries a context across
      a callback boundary; {!Span.with_} does this automatically. *)
end

(** {1 Structured tracing} *)

module Trace : sig
  val set_node : string -> unit
  (** Name this process's trace identity (default ["main"]).  Span ids
      are ["<node>-<n>"], so distinct node names keep ids unique across
      the processes later merged by {!Trace_merge}; the name is also
      written into the trace document for the merged track label. *)

  val node_name : unit -> string

  val fresh_id : unit -> string
  (** Next span id from the per-process counter ({!start} resets it to
      1, so sim-transport runs replay to bit-identical ids). *)

  val start : unit -> unit
  (** Reset the event buffers and start collecting spans.  Timestamps
      are microseconds since this call, read from the ambient
      {!Timed.Clock} — under a simulator clock the trace carries
      virtual time, so install the clock ({!Timed.Clock.with_clock})
      before starting the trace. *)

  val active : unit -> bool

  val stop : unit -> unit
  (** Stop collecting.  Buffered events stay readable until the next
      {!start}. *)

  val inject :
    ?args:(string * string) list ->
    ?tid:int ->
    ?dur_s:float ->
    name:string ->
    at:float ->
    unit ->
    unit
  (** Append one raw event at the absolute ambient-clock timestamp [at]
      (seconds), bypassing span bracketing — the hook that merges
      externally-timestamped logs (e.g. the {!Timed.Fabric} delivery
      log) into the trace.  [dur_s > 0] records a complete ("X") event,
      otherwise an instant; [tid] selects the timeline row.  Timestamps
      before the trace epoch clamp to it.  No-op while tracing is
      inactive. *)

  val to_string : unit -> string
  (** The collected events as a Chrome [trace_event] JSON object
      ([{"traceEvents": [...], ...}]), events sorted by timestamp. *)

  val write : string -> unit
  (** Write {!to_string} to a file. *)
end

module Span : sig
  val with_ :
    ?attrs:(string * string) list ->
    ?parent:Context.t ->
    name:string ->
    (unit -> 'a) ->
    'a
  (** [with_ ~name f] runs [f ()]; when tracing is active, records a
      complete ("X") event named [name] covering [f]'s execution on the
      calling domain's timeline, with [attrs] as its [args].  The event
      is recorded even when [f] raises, so traces are always
      well-nested.

      Every active span carries identity args: [trace_id], [span_id],
      and — when it has a parent — [parent_id].  The parent is [parent]
      when given (a context decoded from the wire), else the calling
      thread's current ambient context; a parentless span starts a new
      trace.  While [f] runs, the span's context is the thread's
      ambient context, so nested spans chain automatically and
      {!Context.current} is what a client injects into outgoing ops. *)

  val instant : ?attrs:(string * string) list -> string -> unit
  (** A zero-duration marker ("i" event) on the calling domain's
      timeline. *)
end

(** {1 Structured logs} *)

module Log : sig
  val set_output : out_channel option -> unit
  (** Route JSON-lines structured logs to [oc] ([None], the default,
      disables them).  The CLI's [--log-json] flag drives this. *)

  val enabled : unit -> bool

  val emit : ?fields:(string * string) list -> string -> unit
  (** Emit one JSON line: ambient-clock [ts], this process's [node]
      name, the [event] name, the calling thread's current trace/span
      correlation ids (when a span is active), then [fields].  No-op
      when no output is set. *)
end

(** {1 Runtime gauges} *)

val sample_gc : unit -> unit
(** Refresh the [runtime_gc_*] gauges (heap/top-heap words, lifetime
    allocated words, minor/major collection counts, compactions) from
    [Gc.quick_stat]; allocated words also count what the calling
    domain's minor heap holds since its last collection.  Registers the
    gauges on first call, so processes that never sample keep them out
    of their registry. *)

(** {1 Multi-process trace merging} *)

module Trace_merge = Trace_merge
