(* Sockets transport: line framing over Unix-domain / TCP.  See
   transport_socket.mli. *)

type addr = Unix_sock of string | Tcp of string * int

let parse_addr s =
  match String.index_opt s ':' with
  | None -> Error (Printf.sprintf "address %S: expected unix:PATH or tcp:HOST:PORT" s)
  | Some i -> (
      let scheme = String.sub s 0 i in
      let rest = String.sub s (i + 1) (String.length s - i - 1) in
      match scheme with
      | "unix" ->
          if rest = "" then Error "unix: address needs a path"
          else Ok (Unix_sock rest)
      | "tcp" -> (
          match String.rindex_opt rest ':' with
          | None -> Error (Printf.sprintf "address %S: tcp needs HOST:PORT" s)
          | Some j -> (
              let host = String.sub rest 0 j in
              let port = String.sub rest (j + 1) (String.length rest - j - 1) in
              match int_of_string_opt port with
              | Some p when p > 0 && p < 65536 && host <> "" ->
                  Ok (Tcp (host, p))
              | _ -> Error (Printf.sprintf "address %S: bad port" s)))
      | _ -> Error (Printf.sprintf "address %S: unknown scheme %S" s scheme))

let sockaddr_of = function
  | Unix_sock path -> Unix.ADDR_UNIX path
  | Tcp (host, port) ->
      let ip =
        try (Unix.gethostbyname host).Unix.h_addr_list.(0)
        with Not_found -> Unix.inet_addr_of_string host
      in
      Unix.ADDR_INET (ip, port)

(* One pooled client connection.  The mutex serializes calls to the
   same destination — replies on a connection must pair with requests
   in order.  Incoming bytes are buffered here, not in an in_channel,
   so reads can honor a deadline via [select]. *)
type conn = {
  fd : Unix.file_descr;
  buf : Buffer.t;
  conn_mutex : Mutex.t;
}

type listener = { lfd : Unix.file_descr; laddr : addr }

type t = {
  mutable listeners : listener list;
  mutable accepted : Unix.file_descr list;  (* live server-side conns *)
  pool : (string, conn) Hashtbl.t;
  mutex : Mutex.t;  (* listeners, accepted, pool *)
  stopped : bool ref;
  cond : Condition.t;
}

let create () =
  if Sys.os_type = "Unix" then
    Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  {
    listeners = [];
    accepted = [];
    pool = Hashtbl.create 8;
    mutex = Mutex.create ();
    stopped = ref false;
    cond = Condition.create ();
  }

let locked t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

(* Server side: one thread per accepted connection, a line loop over
   buffered channels (no deadline needed — servers wait forever). *)
let handle_connection t handler fd =
  let ic = Unix.in_channel_of_descr fd in
  let oc = Unix.out_channel_of_descr fd in
  let rec loop () =
    match input_line ic with
    | exception (End_of_file | Sys_error _) -> ()
    | line when String.trim line = "" -> loop ()
    | line -> (
        let reply = handler line in
        match
          output_string oc reply;
          output_char oc '\n';
          flush oc
        with
        | () -> loop ()
        | exception Sys_error _ -> ())
  in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      locked t (fun () ->
          t.accepted <- List.filter (fun c -> c != fd) t.accepted))
    loop

(* Bind + accept loop shared by the line protocol ([serve]) and the
   HTTP scrape endpoint ([serve_http]): one thread per accepted
   connection running [conn_handler]. *)
let listen t ~what name conn_handler =
  let addr =
    match parse_addr name with
    | Ok a -> a
    | Error msg -> invalid_arg (what ^ ": " ^ msg)
  in
  (match addr with
  | Unix_sock path when Sys.file_exists path -> (
      try Unix.unlink path with Unix.Unix_error _ -> ())
  | _ -> ());
  let domain =
    match addr with Unix_sock _ -> Unix.PF_UNIX | Tcp _ -> Unix.PF_INET
  in
  let lfd = Unix.socket domain Unix.SOCK_STREAM 0 in
  (match addr with
  | Tcp _ -> Unix.setsockopt lfd Unix.SO_REUSEADDR true
  | Unix_sock _ -> ());
  (try Unix.bind lfd (sockaddr_of addr)
   with e -> (try Unix.close lfd with Unix.Unix_error _ -> ()); raise e);
  Unix.listen lfd 64;
  locked t (fun () -> t.listeners <- { lfd; laddr = addr } :: t.listeners);
  (* The accept thread owns [lfd] and closes it on exit; [stop] only
     [shutdown]s the listener.  (A plain [close] from another thread
     would NOT wake a blocked [accept] — the thread would hang forever,
     which matters once someone [Domain.join]s the serving domain —
     and closing here while the thread might still enter [accept]
     risks the fd number being reused under it.) *)
  let rec accept_loop () =
    if !(t.stopped) then ()
    else
      match Unix.accept lfd with
      | exception
          Unix.Unix_error
            ( ( Unix.EBADF | Unix.EINVAL | Unix.ECONNABORTED
              | Unix.ENOTCONN ),
              _,
              _ ) ->
          ()  (* listener shut down by [stop] *)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> accept_loop ()
      | fd, _ ->
          locked t (fun () -> t.accepted <- fd :: t.accepted);
          ignore (Thread.create conn_handler fd);
          accept_loop ()
  in
  ignore
    (Thread.create
       (fun () ->
         Fun.protect
           ~finally:(fun () ->
             try Unix.close lfd with Unix.Unix_error _ -> ())
           accept_loop)
       ())

let serve t name handler =
  listen t ~what:"Transport_socket.serve" name (handle_connection t handler)

(* {1 The scrape endpoint}

   Just enough HTTP/1.0 for a Prometheus scraper or [curl]: read the
   request line, drain headers, answer GETs from [pages] (path ->
   content-type * body), close.  Lives here because this module owns
   every socket in the codebase (see [make lint-invariants]). *)

let handle_http_connection t pages fd =
  let ic = Unix.in_channel_of_descr fd in
  let oc = Unix.out_channel_of_descr fd in
  let respond status headers body =
    try
      output_string oc (Printf.sprintf "HTTP/1.0 %s\r\n" status);
      List.iter
        (fun (k, v) -> output_string oc (Printf.sprintf "%s: %s\r\n" k v))
        (headers
        @ [
            ("Content-Length", string_of_int (String.length body));
            ("Connection", "close");
          ]);
      output_string oc "\r\n";
      output_string oc body;
      flush oc
    with Sys_error _ -> ()
  in
  let handle () =
    match input_line ic with
    | exception (End_of_file | Sys_error _) -> ()
    | request_line -> (
        (* drain headers up to the blank line *)
        (try
           while String.trim (input_line ic) <> "" do
             ()
           done
         with End_of_file | Sys_error _ -> ());
        match String.split_on_char ' ' (String.trim request_line) with
        | "GET" :: path :: _ -> (
            match pages path with
            | Some (content_type, body) ->
                respond "200 OK" [ ("Content-Type", content_type) ] body
            | None -> respond "404 Not Found" [] "not found\n")
        | _ -> respond "400 Bad Request" [] "bad request\n")
  in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      locked t (fun () ->
          t.accepted <- List.filter (fun c -> c != fd) t.accepted))
    handle

let serve_http t name pages =
  listen t ~what:"Transport_socket.serve_http" name
    (handle_http_connection t pages)

(* Client side. *)

let close_conn conn = try Unix.close conn.fd with Unix.Unix_error _ -> ()

let drop_pooled t dst conn =
  locked t (fun () ->
      match Hashtbl.find_opt t.pool dst with
      | Some c when c == conn -> Hashtbl.remove t.pool dst
      | _ -> ());
  close_conn conn

let connect dst =
  match parse_addr dst with
  | Error msg -> Error (Transport.Unreachable msg)
  | Ok addr -> (
      let domain =
        match addr with Unix_sock _ -> Unix.PF_UNIX | Tcp _ -> Unix.PF_INET
      in
      let fd = Unix.socket domain Unix.SOCK_STREAM 0 in
      match Unix.connect fd (sockaddr_of addr) with
      | () ->
          Ok { fd; buf = Buffer.create 256; conn_mutex = Mutex.create () }
      | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _) ->
          (try Unix.close fd with Unix.Unix_error _ -> ());
          Error (Transport.No_endpoint dst)
      | exception Unix.Unix_error (e, _, _) ->
          (try Unix.close fd with Unix.Unix_error _ -> ());
          Error (Transport.Unreachable (Unix.error_message e)))

let get_conn t dst =
  match locked t (fun () -> Hashtbl.find_opt t.pool dst) with
  | Some conn -> Ok conn
  | None -> (
      match connect dst with
      | Error _ as e -> e
      | Ok conn ->
          locked t (fun () ->
              (* A racing call may have connected too; keep ours out of
                 the pool in that case and use it one-shot. *)
              if not (Hashtbl.mem t.pool dst) then Hashtbl.add t.pool dst conn);
          Ok conn)

let send_all fd s =
  let bytes = Bytes.of_string s in
  let len = Bytes.length bytes in
  let rec go off =
    if off < len then go (off + Unix.write fd bytes off (len - off))
  in
  go 0

(* Read one '\n'-terminated line into/out of the connection buffer,
   waiting no later than [deadline] (absolute seconds, [None] = wait
   forever). *)
let read_line conn ~deadline =
  let chunk = Bytes.create 4096 in
  let take_line () =
    let s = Buffer.contents conn.buf in
    match String.index_opt s '\n' with
    | None -> None
    | Some i ->
        Buffer.clear conn.buf;
        Buffer.add_string conn.buf
          (String.sub s (i + 1) (String.length s - i - 1));
        Some (String.sub s 0 i)
  in
  let rec go () =
    match take_line () with
    | Some line -> Ok line
    | None -> (
        let wait =
          match deadline with
          | None -> -1.  (* select: wait forever *)
          | Some d ->
              let remaining = d -. Timed.Clock.gettimeofday () in
              if remaining <= 0. then 0. else remaining
        in
        if wait = 0. && deadline <> None then Error Transport.Timeout
        else
          match Unix.select [ conn.fd ] [] [] wait with
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
          | [], _, _ -> Error Transport.Timeout
          | _ -> (
              match Unix.read conn.fd chunk 0 (Bytes.length chunk) with
              | 0 -> Error (Transport.Unreachable "connection closed by peer")
              | n ->
                  Buffer.add_subbytes conn.buf chunk 0 n;
                  go ()
              | exception Unix.Unix_error (e, _, _) ->
                  Error (Transport.Unreachable (Unix.error_message e))))
  in
  go ()

let call t ?timeout ~src:_ ~dst payload =
  let attempt ~fresh =
    match (if fresh then connect dst else get_conn t dst) with
    | Error _ as e -> e
    | Ok conn -> (
        Mutex.lock conn.conn_mutex;
        let result =
          Fun.protect
            ~finally:(fun () -> Mutex.unlock conn.conn_mutex)
            (fun () ->
              match send_all conn.fd (payload ^ "\n") with
              | exception Unix.Unix_error (e, _, _) ->
                  Error (Transport.Unreachable (Unix.error_message e))
              | () ->
                  let deadline =
                    Option.map
                      (fun s -> Timed.Clock.gettimeofday () +. s)
                      timeout
                  in
                  read_line conn ~deadline)
        in
        (match result with
        | Ok _ -> ()
        | Error _ ->
            (* Never reuse a connection after a failed exchange: a late
               reply would desynchronize the next call. *)
            drop_pooled t dst conn);
        result)
  in
  match attempt ~fresh:false with
  | Ok _ as ok -> ok
  | Error Transport.Timeout -> Error Transport.Timeout
  | Error _ ->
      (* The pooled connection may just have been stale (server
         restarted since the last call): retry once on a fresh one. *)
      attempt ~fresh:true

let stop t =
  let listeners, accepted, conns =
    locked t (fun () ->
        let l = t.listeners and a = t.accepted in
        let c = Hashtbl.fold (fun _ conn acc -> conn :: acc) t.pool [] in
        t.listeners <- [];
        t.accepted <- [];
        Hashtbl.reset t.pool;
        !(t.stopped) |> ignore;
        t.stopped := true;
        Condition.broadcast t.cond;
        (l, a, c))
  in
  List.iter
    (fun { lfd; laddr } ->
      (* [shutdown], not [close]: it reliably wakes a thread blocked in
         [accept] (with EINVAL/ENOTCONN); the accept thread then closes
         the fd it owns *)
      (try Unix.shutdown lfd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
      match laddr with
      | Unix_sock path -> (
          try Unix.unlink path with Unix.Unix_error _ | Sys_error _ -> ())
      | Tcp _ -> ())
    listeners;
  (* likewise for handler threads blocked reading a live connection:
     shutdown wakes the read with EOF and the thread closes its own fd
     on the way out (closing here would race fd reuse) *)
  List.iter
    (fun fd ->
      try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ())
    accepted;
  List.iter close_conn conns

let wait t =
  Mutex.lock t.mutex;
  while not !(t.stopped) do
    Condition.wait t.cond t.mutex
  done;
  Mutex.unlock t.mutex

module Impl = struct
  type nonrec t = t

  let serve = serve
  let call = call
end

let make t = Transport.Endpoint ((module Impl), t)
