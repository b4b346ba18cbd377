(** {!Transport} over Unix-domain and TCP sockets.

    Endpoint names are addresses: [unix:/path/to.sock] or
    [tcp:HOST:PORT].  Framing is line-oriented — one request line up,
    one reply line back, the same bytes the stdio [serve] loop speaks —
    so [nc -U] or [batch --connect] can talk to any endpoint directly.

    [serve] binds a listener and handles each accepted connection on
    its own thread; a connection carries any number of request/reply
    exchanges.  [call] keeps one pooled connection per destination and
    reuses it across calls; on a timeout the connection is closed (a
    late reply must never be read as the answer to the next request)
    and the next call reconnects.  SIGPIPE is ignored process-wide on
    {!create} so a peer hanging up surfaces as an error, not a
    killed process. *)

type t

type addr = Unix_sock of string | Tcp of string * int

val parse_addr : string -> (addr, string) result
(** [unix:PATH] or [tcp:HOST:PORT]. *)

val create : unit -> t

val make : t -> Transport.t

val serve : t -> string -> (string -> string) -> unit
(** [serve t addr handler] binds [addr] (unlinking a stale Unix-socket
    path first) and starts accepting in a background thread.
    @raise Invalid_argument on an unparseable address;
    @raise Unix.Unix_error when the bind fails. *)

val serve_http : t -> string -> (string -> (string * string) option) -> unit
(** [serve_http t addr pages] binds [addr] and answers minimal HTTP/1.0
    GETs: [pages path] returns [(content_type, body)] for a [200], or
    [None] for a [404].  One request per connection
    ([Connection: close]).  This is the [--metrics-listen] scrape
    endpoint; it shares {!stop}/{!wait} with the line listeners.
    @raise Invalid_argument / @raise Unix.Unix_error as {!serve}. *)

val call :
  t ->
  ?timeout:float ->
  src:string ->
  dst:string ->
  string ->
  (string, Transport.error) result
(** Connect-on-demand (pooled) call to the endpoint at address [dst].
    [Error (No_endpoint _)] when nothing listens there, [Error Timeout]
    after [timeout] seconds without a reply. *)

val stop : t -> unit
(** Close every listener and pooled connection; serving threads wind
    down.  Unix-socket paths are unlinked. *)

val wait : t -> unit
(** Block until {!stop} is called (from another thread or a handler).
    The [serve --listen] CLI parks its main thread here. *)
