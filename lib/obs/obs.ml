(* Metrics registry + span tracing.  See obs.mli for the contract.

   A counter is one [Atomic.t] and a histogram one atomic per bucket
   plus an atomic sum, so scheduler workers and socket threads update
   them from several domains without a lock and without losing counts. *)

let on = Atomic.make true
let set_enabled b = Atomic.set on b
let enabled () = Atomic.get on

(* Add to a float atomic, retrying the CAS until no other writer got in
   between. *)
let rec atomic_add_float cell x =
  let old = Atomic.get cell in
  if not (Atomic.compare_and_set cell old (old +. x)) then
    atomic_add_float cell x

type counter = { c_name : string; c_help : string; c_cell : int Atomic.t }

type gauge = { g_name : string; g_help : string; g_cell : float Atomic.t }

type histogram = {
  h_name : string;
  h_help : string;
  h_bounds : float array;  (* finite upper bounds, strictly increasing *)
  h_cells : int Atomic.t array;  (* by bucket, incl. overflow *)
  h_sum : float Atomic.t;
}

type metric =
  | Counter_m of counter
  | Gauge_m of gauge
  | Histogram_m of histogram

type registry = { mutex : Mutex.t; tbl : (string, metric) Hashtbl.t }

let create_registry () = { mutex = Mutex.create (); tbl = Hashtbl.create 64 }
let default_registry = create_registry ()

let with_lock r f =
  Mutex.lock r.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock r.mutex) f

(* Register [name], reusing an existing registration when the kind
   matches (module initialization order must not matter) and rejecting a
   kind clash loudly: two libraries fighting over one name is a bug. *)
let register registry name build match_existing =
  with_lock registry (fun () ->
      match Hashtbl.find_opt registry.tbl name with
      | Some m -> (
          match match_existing m with
          | Some existing -> existing
          | None ->
              invalid_arg
                (Printf.sprintf
                   "Obs: metric %S already registered with another kind" name))
      | None ->
          let built = build () in
          Hashtbl.replace registry.tbl name (fst built);
          snd built)

module Counter = struct
  type t = counter

  let make ?(registry = default_registry) ?(help = "") name =
    register registry name
      (fun () ->
        let c = { c_name = name; c_help = help; c_cell = Atomic.make 0 } in
        (Counter_m c, c))
      (function Counter_m c -> Some c | _ -> None)

  let incr ?(by = 1) c =
    if by < 0 then invalid_arg "Obs.Counter.incr: negative increment";
    if Atomic.get on then ignore (Atomic.fetch_and_add c.c_cell by)

  let value c = Atomic.get c.c_cell
  let name c = c.c_name
end

module Gauge = struct
  type t = gauge

  let make ?(registry = default_registry) ?(help = "") name =
    register registry name
      (fun () ->
        let g = { g_name = name; g_help = help; g_cell = Atomic.make 0. } in
        (Gauge_m g, g))
      (function Gauge_m g -> Some g | _ -> None)

  let set g v = if Atomic.get on then Atomic.set g.g_cell v
  let value g = Atomic.get g.g_cell
  let name g = g.g_name
end

module Histogram = struct
  type t = histogram

  (* durations in seconds, 1ms .. 100s *)
  let default_buckets = [ 0.001; 0.01; 0.1; 1.; 10.; 100. ]

  let make ?(registry = default_registry) ?(help = "")
      ?(buckets = default_buckets) name =
    let bounds = Array.of_list buckets in
    Array.iteri
      (fun i b ->
        if i > 0 && b <= bounds.(i - 1) then
          invalid_arg "Obs.Histogram.make: buckets must be strictly increasing")
      bounds;
    if Array.length bounds = 0 then
      invalid_arg "Obs.Histogram.make: empty bucket list";
    register registry name
      (fun () ->
        let h =
          {
            h_name = name;
            h_help = help;
            h_bounds = bounds;
            h_cells =
              Array.init (Array.length bounds + 1) (fun _ -> Atomic.make 0);
            h_sum = Atomic.make 0.;
          }
        in
        (Histogram_m h, h))
      (function Histogram_m h -> Some h | _ -> None)

  (* first bucket whose upper bound covers [v] (le semantics); the last
     slot is the +Inf overflow *)
  let bucket_of h v =
    let n = Array.length h.h_bounds in
    let i = ref 0 in
    while !i < n && v > h.h_bounds.(!i) do
      incr i
    done;
    !i

  let observe h v =
    if Atomic.get on then begin
      ignore (Atomic.fetch_and_add h.h_cells.(bucket_of h v) 1);
      atomic_add_float h.h_sum v
    end

  let bucket h v = bucket_of h v

  let add h ~counts ~sum =
    if Array.length counts <> Array.length h.h_bounds + 1 then
      invalid_arg "Obs.Histogram.add: one count per bucket";
    if Atomic.get on then begin
      Array.iteri
        (fun b k ->
          if k <> 0 then ignore (Atomic.fetch_and_add h.h_cells.(b) k))
        counts;
      atomic_add_float h.h_sum sum
    end

  let counts h = Array.map Atomic.get h.h_cells
  let sum h = Atomic.get h.h_sum
  let count h = Array.fold_left (fun acc n -> acc + n) 0 (counts h)

  let buckets h =
    let cs = counts h in
    List.init (Array.length cs) (fun i ->
        ( (if i < Array.length h.h_bounds then h.h_bounds.(i) else infinity),
          cs.(i) ))

  let name h = h.h_name
end

(* {1 Reading} *)

type value =
  | Counter_value of int
  | Gauge_value of float
  | Histogram_value of {
      bounds : float array;
      counts : int array;
      sum : float;
      count : int;
    }

type sample = { name : string; help : string; value : value }

let sample_of = function
  | Counter_m c ->
      { name = c.c_name; help = c.c_help; value = Counter_value (Counter.value c) }
  | Gauge_m g ->
      { name = g.g_name; help = g.g_help; value = Gauge_value (Gauge.value g) }
  | Histogram_m h ->
      let counts = Histogram.counts h in
      {
        name = h.h_name;
        help = h.h_help;
        value =
          Histogram_value
            {
              bounds = h.h_bounds;
              counts;
              sum = Histogram.sum h;
              count = Array.fold_left ( + ) 0 counts;
            };
      }

let snapshot ?(registry = default_registry) () =
  let metrics =
    with_lock registry (fun () ->
        Hashtbl.fold (fun _ m acc -> m :: acc) registry.tbl [])
  in
  List.sort
    (fun a b -> String.compare a.name b.name)
    (List.map sample_of metrics)

let find ?(registry = default_registry) name =
  let m = with_lock registry (fun () -> Hashtbl.find_opt registry.tbl name) in
  Option.map sample_of m

(* %g prints integral floats without a trailing ".", matching the
   conventional Prometheus bound rendering ({le="1"}, {le="0.5"}). *)
let pp_bound ppf b = Fmt.pf ppf "%g" b

let render_prometheus ?(registry = default_registry) () =
  let buf = Buffer.create 2048 in
  let pf fmt = Printf.bprintf buf fmt in
  List.iter
    (fun s ->
      if s.help <> "" then pf "# HELP %s %s\n" s.name s.help;
      match s.value with
      | Counter_value v ->
          pf "# TYPE %s counter\n" s.name;
          pf "%s %d\n" s.name v
      | Gauge_value v ->
          pf "# TYPE %s gauge\n" s.name;
          pf "%s %g\n" s.name v
      | Histogram_value { bounds; counts; sum; count } ->
          pf "# TYPE %s histogram\n" s.name;
          let cumulative = ref 0 in
          Array.iteri
            (fun i c ->
              cumulative := !cumulative + c;
              if i < Array.length bounds then
                pf "%s_bucket{le=\"%s\"} %d\n" s.name
                  (Fmt.str "%a" pp_bound bounds.(i))
                  !cumulative
              else pf "%s_bucket{le=\"+Inf\"} %d\n" s.name !cumulative)
            counts;
          pf "%s_sum %g\n" s.name sum;
          pf "%s_count %d\n" s.name count)
    (snapshot ~registry ());
  Buffer.contents buf

(* {1 Trace context} *)

module Context = struct
  type t = { trace_id : string; span_id : string }

  let to_header ctx = ctx.trace_id ^ "/" ^ ctx.span_id

  let of_header s =
    match String.index_opt s '/' with
    | Some i when i > 0 && i < String.length s - 1 ->
        Some
          {
            trace_id = String.sub s 0 i;
            span_id = String.sub s (i + 1) (String.length s - i - 1);
          }
    | _ -> None

  (* Ambient context is per *thread*, not per domain: systhreads within
     one domain share [Domain.DLS], so a DLS-keyed stack would be
     corrupted by the socket transport's handler threads.  A Hashtbl
     keyed by [Thread.id] costs a mutex on span entry/exit only while
     tracing is active. *)
  let stacks : (int, t list ref) Hashtbl.t = Hashtbl.create 64
  let stacks_mutex = Mutex.create ()

  let my_stack () =
    let key = Thread.id (Thread.self ()) in
    Mutex.lock stacks_mutex;
    let s =
      match Hashtbl.find_opt stacks key with
      | Some s -> s
      | None ->
          let s = ref [] in
          Hashtbl.replace stacks key s;
          s
    in
    Mutex.unlock stacks_mutex;
    s

  let current () = match !(my_stack ()) with [] -> None | c :: _ -> Some c
  let push c = (my_stack ()) := c :: !(my_stack ())

  (* Remove [ctx] wherever it sits in the stack, not just the head: the
     simulator interleaves tasks on one thread, so span exits are not
     always LIFO with respect to the pushes. *)
  let pop ctx =
    let s = my_stack () in
    let rec remove = function
      | [] -> []
      | c :: tl -> if c == ctx then tl else c :: remove tl
    in
    s := remove !s
end

(* {1 Tracing} *)

type event = {
  ev_name : string;
  ev_ph : char;  (* 'X' complete, 'i' instant *)
  ev_ts : float;  (* us since Trace.start *)
  ev_dur : float;  (* us; 0 for instants *)
  ev_tid : int;
  ev_args : (string * string) list;
}

module Trace = struct
  let active_flag = Atomic.make false
  let epoch = Atomic.make 0.
  let mutex = Mutex.create ()

  (* Identity of this process in a merged multi-process trace.  Span ids
     are ["<node>-<n>"] with [n] from an atomic counter that [start]
     resets, so a fixed workload on the sim transport replays to
     bit-identical ids, and distinct node names keep ids globally unique
     across the processes a [Trace_merge] run stitches together. *)
  let node = Atomic.make "main"
  let set_node n = Atomic.set node n
  let node_name () = Atomic.get node
  let next_id = Atomic.make 1

  let fresh_id () =
    Printf.sprintf "%s-%d" (Atomic.get node) (Atomic.fetch_and_add next_id 1)

  (* One buffer per domain, domain-local appends; the global list only
     grows (a dead domain's buffer stays readable). *)
  let buffers : event list ref list ref = ref []

  let dls : event list ref Domain.DLS.key =
    Domain.DLS.new_key (fun () ->
        let b = ref [] in
        Mutex.lock mutex;
        buffers := b :: !buffers;
        Mutex.unlock mutex;
        b)

  let active () = Atomic.get active_flag

  (* Timestamps come from the ambient [Timed.Clock]: a run under the
     simulator records virtual microseconds, so exported traces show
     virtual time.  [start] captures the epoch from the same source —
     install the clock before starting the trace. *)
  let now_us () = (Timed.Clock.gettimeofday () -. Atomic.get epoch) *. 1e6

  let record ev =
    let b = Domain.DLS.get dls in
    b := ev :: !b

  let start () =
    Mutex.lock mutex;
    List.iter (fun b -> b := []) !buffers;
    Mutex.unlock mutex;
    Atomic.set next_id 1;
    Atomic.set epoch (Timed.Clock.gettimeofday ());
    Atomic.set active_flag true

  let stop () = Atomic.set active_flag false

  (* Raw-event injection: merge an externally-timestamped log (the
     fabric delivery log, for one) into the trace.  [at] is an absolute
     timestamp on the ambient clock's scale; events before the trace
     epoch are clamped to it, so an injected prefix cannot produce
     negative Chrome timestamps. *)
  let inject ?(args = []) ?(tid = 0) ?(dur_s = 0.) ~name ~at () =
    if Atomic.get active_flag then
      record
        {
          ev_name = name;
          ev_ph = (if dur_s > 0. then 'X' else 'i');
          ev_ts = Float.max 0. ((at -. Atomic.get epoch) *. 1e6);
          ev_dur = dur_s *. 1e6;
          ev_tid = tid;
          ev_args = args;
        }

  let events () =
    Mutex.lock mutex;
    let evs = List.concat_map (fun b -> !b) !buffers in
    Mutex.unlock mutex;
    List.stable_sort (fun a b -> compare a.ev_ts b.ev_ts) evs

  let escape s =
    let buf = Buffer.create (String.length s + 8) in
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | '\r' -> Buffer.add_string buf "\\r"
        | '\t' -> Buffer.add_string buf "\\t"
        | c when Char.code c < 0x20 ->
            Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char buf c)
      s;
    Buffer.contents buf

  let to_string () =
    let pid = Unix.getpid () in
    let buf = Buffer.create 4096 in
    let pf fmt = Printf.bprintf buf fmt in
    pf "{\"traceEvents\": [";
    List.iteri
      (fun i ev ->
        if i > 0 then pf ",";
        pf "\n  {\"name\": \"%s\", \"cat\": \"aadl_sched\", \"ph\": \"%c\", "
          (escape ev.ev_name) ev.ev_ph;
        pf "\"ts\": %.3f, " ev.ev_ts;
        if ev.ev_ph = 'X' then pf "\"dur\": %.3f, " ev.ev_dur
        else pf "\"s\": \"t\", ";
        pf "\"pid\": %d, \"tid\": %d" pid ev.ev_tid;
        (match ev.ev_args with
        | [] -> ()
        | args ->
            pf ", \"args\": {";
            List.iteri
              (fun j (k, v) ->
                if j > 0 then pf ", ";
                pf "\"%s\": \"%s\"" (escape k) (escape v))
              args;
            pf "}");
        pf "}")
      (events ());
    (* [node]/[epoch_s] are read back by [Trace_merge] to name each
       process track and align timelines onto one clock; they go after
       the events array so tools (and tests) that only look at the
       leading line keep working. *)
    pf "\n], \"displayTimeUnit\": \"ms\", \"node\": \"%s\", \"epoch_s\": %.6f}\n"
      (escape (Atomic.get node))
      (Atomic.get epoch);
    Buffer.contents buf

  let write path =
    let oc = open_out path in
    Fun.protect
      ~finally:(fun () -> close_out_noerr oc)
      (fun () -> output_string oc (to_string ()))
end

module Span = struct
  let with_ ?(attrs = []) ?parent ~name f =
    if not (Atomic.get Trace.active_flag) then f ()
    else begin
      let parent =
        match parent with Some _ as p -> p | None -> Context.current ()
      in
      let trace_id, parent_args =
        match parent with
        | Some p -> (p.Context.trace_id, [ ("parent_id", p.Context.span_id) ])
        | None -> ("t" ^ Trace.fresh_id (), [])
      in
      let ctx = { Context.trace_id; span_id = Trace.fresh_id () } in
      Context.push ctx;
      let t0 = Trace.now_us () in
      let tid = (Domain.self () :> int) in
      Fun.protect
        ~finally:(fun () ->
          Context.pop ctx;
          Trace.record
            {
              ev_name = name;
              ev_ph = 'X';
              ev_ts = t0;
              ev_dur = Trace.now_us () -. t0;
              ev_tid = tid;
              ev_args =
                attrs
                @ (("trace_id", trace_id) :: ("span_id", ctx.Context.span_id)
                   :: parent_args);
            })
        f
    end

  let instant ?(attrs = []) name =
    if Atomic.get Trace.active_flag then
      Trace.record
        {
          ev_name = name;
          ev_ph = 'i';
          ev_ts = Trace.now_us ();
          ev_dur = 0.;
          ev_tid = (Domain.self () :> int);
          ev_args = attrs;
        }
end

(* {1 Structured logs} *)

module Log = struct
  let chan : out_channel option ref = ref None
  let mutex = Mutex.create ()
  let set_output oc = chan := oc
  let enabled () = !chan <> None

  let emit ?(fields = []) event =
    match !chan with
    | None -> ()
    | Some oc ->
        let buf = Buffer.create 160 in
        let pf fmt = Printf.bprintf buf fmt in
        pf "{\"ts\": %.6f, \"node\": \"%s\", \"event\": \"%s\""
          (Timed.Clock.gettimeofday ())
          (Trace.escape (Trace.node_name ()))
          (Trace.escape event);
        (match Context.current () with
        | None -> ()
        | Some ctx ->
            pf ", \"trace_id\": \"%s\", \"span_id\": \"%s\""
              (Trace.escape ctx.Context.trace_id)
              (Trace.escape ctx.Context.span_id));
        List.iter
          (fun (k, v) ->
            pf ", \"%s\": \"%s\"" (Trace.escape k) (Trace.escape v))
          fields;
        pf "}\n";
        Mutex.lock mutex;
        output_string oc (Buffer.contents buf);
        flush oc;
        Mutex.unlock mutex
end

(* {1 Runtime gauges} *)

(* Lazy so the gauges only appear in the registry once something asks
   for a GC sample (the health op, the scrape endpoint, --stats). *)
let gc_gauges =
  lazy
    ( Gauge.make ~help:"major heap size (words)" "runtime_gc_heap_words",
      Gauge.make ~help:"peak major heap size (words)" "runtime_gc_top_heap_words",
      Gauge.make ~help:"words allocated over the process lifetime"
        "runtime_gc_allocated_words",
      Gauge.make ~help:"minor collections" "runtime_gc_minor_collections",
      Gauge.make ~help:"major collection cycles" "runtime_gc_major_collections",
      Gauge.make ~help:"heap compactions" "runtime_gc_compactions" )

(* [Gc.quick_stat] counts a domain's minor words only when a minor
   collection empties its minor heap; add what the calling domain has
   allocated there since.  [Gc.get_minor_free] counts bytes on OCaml 5. *)
let uncollected_minor_words () =
  let free_words = Gc.get_minor_free () / (Sys.word_size / 8) in
  max 0 ((Gc.get ()).Gc.minor_heap_size - free_words)

let sample_gc () =
  let heap, top, alloc, minor, major, compactions = Lazy.force gc_gauges in
  let s = Gc.quick_stat () in
  Gauge.set heap (float_of_int s.Gc.heap_words);
  Gauge.set top (float_of_int s.Gc.top_heap_words);
  Gauge.set alloc
    (s.Gc.minor_words
    +. float_of_int (uncollected_minor_words ())
    +. s.Gc.major_words -. s.Gc.promoted_words);
  Gauge.set minor (float_of_int s.Gc.minor_collections);
  Gauge.set major (float_of_int s.Gc.major_collections);
  Gauge.set compactions (float_of_int s.Gc.compactions)

module Trace_merge = Trace_merge
