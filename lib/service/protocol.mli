(** Wire helpers shared by every actor of the service protocol.

    The protocol is one request line in, one reply line out: requests
    are single-line JSON documents; an object with an ["op"] field is
    a control request, anything else an analysis request
    ({!Job.request_of_json}).  {!Shard} is the one endpoint that
    analyses, {!Router} fronts shards; both build their replies from
    the helpers here, as does the client side of [batch --connect].

    {1 Trace context}

    Any request may carry a ["trace": "<trace_id>/<span_id>"] member —
    the sender's {!Obs.Context} in wire form.  While tracing is active,
    an actor opens a child span for the request ({!with_request_span})
    parented on that context, so a client request, the router hop and
    the owner shard's work line up as one causally-linked timeline once
    the per-process trace files are merged ({!Obs.Trace_merge}).
    Requests without the member trace exactly as before.  Transports
    may deliver a request more than once (the sim fabric is
    at-least-once); a span is opened at most once per distinct context
    header, so duplicated deliveries do not mint duplicate spans. *)

val counters_json : Runner.config -> Json.t
(** The cache/attribution counter object a shard serves for
    [{"op":"stats"}] (the {!Router} merges one reply per shard). *)

val gc_json : unit -> Json.t
(** The [runtime_gc_*] gauges as an object (call {!Obs.sample_gc}
    first) — shared by shard and router health replies. *)

val metrics_json : unit -> Json.t
(** The whole {!Obs} registry, one member per metric sorted by name;
    histogram values carry [sum]/[count]/[buckets] members. *)

val gauge_value : string -> float
(** The current value of the gauge registered under this name, [0.]
    when there is none. *)

val error_json : string -> string
(** The canonical one-line error reply. *)

val metric_slug : string -> string
(** Map an endpoint name (possibly a socket address) to the
    [[a-zA-Z0-9_]] alphabet Prometheus metric names allow. *)

(** {1 Trace-context helpers}

    Shared by every protocol actor (shard, router) and the client side
    of [batch --connect]. *)

val op_label : Json.t -> string
(** The request's ["op"], or ["analyze"] for an analysis request. *)

val trace_context : Json.t -> Obs.Context.t option
(** The decoded ["trace"] member, if present and well-formed. *)

val set_trace : Json.t -> Obs.Context.t option -> Json.t
(** Replace (or with [None], remove) the ["trace"] member on a request
    object — how the router re-parents a request onto its own span
    before forwarding. *)

type span_gate
(** Dedup state for server-side request spans: remembers which context
    headers have already opened one. *)

val make_span_gate : unit -> span_gate

val with_request_span :
  span_gate -> name:string -> endpoint:string -> Json.t -> (unit -> 'a) -> 'a
(** [with_request_span gate ~name ~endpoint json f] runs [f] inside a
    child span parented on [json]'s trace context — when tracing is
    active, the context is present, and this gate has not seen that
    context before; plain [f ()] otherwise.  The span carries
    [endpoint] and the request's op as args. *)
