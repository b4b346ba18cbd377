(* One job, end to end: load -> plan -> cache probe -> budgeted
   exploration -> degradation ladder -> cache fill.  See runner.mli. *)

module Metrics = struct
  let jobs =
    Obs.Counter.make ~help:"Analysis jobs run to completion"
      "service_jobs_total"

  let degraded =
    Obs.Counter.make
      ~help:"Jobs whose exploration was truncated and fell back to analytic bounds"
      "service_jobs_degraded_total"

  let miss_novel =
    Obs.Counter.make
      ~help:"Verdict-cache misses on a structure never seen before"
      "service_miss_novel_total"

  let miss_options_only =
    Obs.Counter.make
      ~help:"Verdict-cache misses where only analysis options changed"
      "service_miss_options_only_total"
end

(* Miss attribution: remember the last Merkle key seen per structure
   digest; when a later key of the same structure misses, the changed
   fragment ids name the components responsible.  Both tables hold at
   most [bound] entries, the verdict cache's capacity: past it, the
   entry written longest ago goes, so a long-lived shard's attribution
   does not grow with every model it ever sees. *)
type attribution = {
  mutable novel : int;
  mutable options_only : int;
  bound : int;
  mutable clock : int;  (* writes so far, to date each entry *)
  last : (string, int * Key.t) Hashtbl.t;
      (* structure -> (written at, last key) *)
  changed : (string, int * int) Hashtbl.t;
      (* fragment id -> (written at, miss count) *)
  mutex : Mutex.t;
}

type attribution_counters = {
  novel : int;
  options_only : int;
  changed_components : (string * int) list;
}

let create_attribution ~bound =
  {
    novel = 0;
    options_only = 0;
    bound = max 1 bound;
    clock = 0;
    last = Hashtbl.create 16;
    changed = Hashtbl.create 16;
    mutex = Mutex.create ();
  }

type config = {
  cache : Job.outcome Lru.t option;
  attribution : attribution option;
  on_store : (string -> Job.outcome -> unit) option;
}

let default_config = { cache = None; attribution = None; on_store = None }

let with_cache ?(capacity = 256) config =
  {
    config with
    cache = Some (Lru.create ~capacity);
    attribution = Some (create_attribution ~bound:capacity);
  }

(* Write [v] under [key], dropping the entry written longest ago once
   [tbl] holds more than [a.bound].  The scan is O(bound), on a miss,
   which then explores. *)
let write a tbl key v =
  a.clock <- a.clock + 1;
  Hashtbl.replace tbl key (a.clock, v);
  if Hashtbl.length tbl > a.bound then begin
    let oldest, _ =
      Hashtbl.fold
        (fun k (at, _) (old, old_at) ->
          if at < old_at then (k, at) else (old, old_at))
        tbl (key, max_int)
    in
    Hashtbl.remove tbl oldest
  end

let attribute config (key : Key.t) =
  match config.attribution with
  | None -> ()
  | Some a ->
      Mutex.lock a.mutex;
      (match Hashtbl.find_opt a.last key.Key.structure with
      | Some (_, prev) -> (
          match Key.changed_fragments ~prev key with
          | [] ->
              a.options_only <- a.options_only + 1;
              Obs.Counter.incr Metrics.miss_options_only
          | ids ->
              List.iter
                (fun id ->
                  let n =
                    match Hashtbl.find_opt a.changed id with
                    | Some (_, n) -> n
                    | None -> 0
                  in
                  write a a.changed id (n + 1))
                ids)
      | None ->
          a.novel <- a.novel + 1;
          Obs.Counter.incr Metrics.miss_novel);
      write a a.last key.Key.structure key;
      Mutex.unlock a.mutex

let attribution_counters config =
  match config.attribution with
  | None -> { novel = 0; options_only = 0; changed_components = [] }
  | Some a ->
      Mutex.lock a.mutex;
      let changed_components =
        Hashtbl.fold (fun id (_, n) acc -> (id, n) :: acc) a.changed []
        |> List.sort (fun (ia, na) (ib, nb) ->
               match compare nb na with 0 -> String.compare ia ib | c -> c)
      in
      let r =
        { novel = a.novel; options_only = a.options_only; changed_components }
      in
      Mutex.unlock a.mutex;
      r

let attribution_sizes config =
  match config.attribution with
  | None -> (0, 0)
  | Some a ->
      Mutex.lock a.mutex;
      let sizes = (Hashtbl.length a.last, Hashtbl.length a.changed) in
      Mutex.unlock a.mutex;
      sizes

let pp_attribution ppf (c : attribution_counters) =
  Fmt.pf ppf "%d novel, %d options-only%a" c.novel c.options_only
    (fun ppf -> function
      | [] -> ()
      | changed ->
          Fmt.pf ppf "; changed: %a"
            (Fmt.list ~sep:(Fmt.any ", ") (fun ppf (id, n) ->
                 Fmt.pf ppf "%s (%d)" id n))
            changed)
    c.changed_components

(* Read a model file straight into a string of its size.  Every request
   for a file model, cache hits included, reads it; an input channel
   would malloc a 64 KiB buffer that is only freed when the channel is
   finalized, and under a fast stream of hits on two domains those
   buffers fragment the C heap (doc/PERFORMANCE.md §4g).  Failures are
   reported as [open_in_bin] reports them. *)
let read_file path =
  let fail ?(prefix = "") err =
    raise (Sys_error (prefix ^ Unix.error_message err))
  in
  match Unix.openfile path [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0 with
  | exception Unix.Unix_error (err, _, _) -> fail ~prefix:(path ^ ": ") err
  | fd ->
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          try
            let size = Unix.lseek fd 0 Unix.SEEK_END in
            ignore (Unix.lseek fd 0 Unix.SEEK_SET);
            let buf = Bytes.create size in
            let rec fill off =
              if off = size then off
              else
                match Unix.read fd buf off (size - off) with
                | 0 -> off
                | n -> fill (off + n)
                | exception Unix.Unix_error (Unix.EINTR, _, _) -> fill off
            in
            let len = fill 0 in
            if len = size then Bytes.unsafe_to_string buf
            else Bytes.sub_string buf 0 len
          with Unix.Unix_error (err, _, _) -> fail err)

let load (req : Job.request) =
  match req.source with
  | Job.Inline text -> Aadl.Instantiate.of_string ?root:req.root text
  | Job.File path ->
      let contents = read_file path in
      if Filename.check_suffix path ".xml" then
        Aadl.Instance_xml.of_string contents
      else Aadl.Instantiate.of_string ?root:req.root contents

(* Rejected models become [Failed] outcomes carrying the CLI's diagnostic
   text; anything else escapes (it's a bug). *)
let load_error (req : Job.request) = function
  | Aadl.Diag.Error d ->
      let file =
        match req.source with Job.File path -> Some path | Job.Inline _ -> None
      in
      Some (Aadl.Diag.to_string ?file d)
  | Sys_error msg -> Some msg
  | _ -> None

let analysis_options (req : Job.request) ~now ~cancel =
  {
    (* keying and running share the translation options: see Key *)
    Analysis.Schedulability.translation_options = Key.translation_options req;
    max_states = req.max_states;
    all_violations = false;
    deadline = Option.map (fun s -> now +. s) req.timeout_s;
    poll = cancel;
    symmetry = true;
  }

let degrade ~reason (req : Job.request) (result : Analysis.Schedulability.t) =
  let fb =
    Analysis.Fallback.analyze ?force_protocol:req.protocol
      result.translation.Translate.Pipeline.workload
  in
  match fb.Analysis.Fallback.verdict with
  | Analysis.Fallback.Likely_schedulable m ->
      Job.Bounded { analytic_schedulable = true; method_ = m }
  | Analysis.Fallback.Analytically_unschedulable m ->
      Job.Bounded { analytic_schedulable = false; method_ = m }
  | Analysis.Fallback.Unknown m -> Job.Unknown (reason ^ "; " ^ m)

let explore (req : Job.request) ~options plan ~cancel =
  let tr = Translate.Pipeline.of_plan plan in
  let result = Analysis.Schedulability.analyze_translation ~options tr in
  let states = Versa.Explorer.num_states result.exploration in
  let verdict, degraded =
    match result.verdict with
    | Analysis.Schedulability.Schedulable -> (Job.Schedulable, false)
    | Analysis.Schedulability.Not_schedulable { scenario; trace = _ } ->
        ( Job.Not_schedulable
            {
              violation_time = scenario.Analysis.Raise_trace.violation_time;
              scenario = Fmt.str "%a" Analysis.Raise_trace.pp scenario;
            },
          false )
    | Analysis.Schedulability.Inconclusive reason ->
        let cancelled = match cancel with Some p -> p () | None -> false in
        if cancelled then (Job.Cancelled, false)
        else (degrade ~reason req result, true)
  in
  (verdict, degraded, states)

let run ?cancel config (req : Job.request) =
  Obs.Counter.incr Metrics.jobs;
  Obs.Span.with_ ~name:"service.job" ~attrs:[ ("id", req.Job.id) ]
  @@ fun () ->
  let now = Timed.Clock.gettimeofday () in
  let outcome verdict ~states ~degraded =
    if degraded then Obs.Counter.incr Metrics.degraded;
    {
      Job.id = req.id;
      verdict;
      states;
      cached = false;
      degraded;
      wall_s = Timed.Clock.gettimeofday () -. now;
    }
  in
  let failed e =
    match load_error req e with
    | Some msg -> outcome (Job.Failed msg) ~states:0 ~degraded:false
    | None -> raise e
  in
  match load req with
  | exception e -> failed e
  | root -> (
      let options = analysis_options req ~now ~cancel in
      match
        Translate.Pipeline.plan
          ~options:options.Analysis.Schedulability.translation_options root
      with
      | exception e -> failed e
      | plan -> (
          let compute () =
            match explore req ~options plan ~cancel with
            | verdict, degraded, states -> outcome verdict ~states ~degraded
            | exception e -> failed e
          in
          match config.cache with
          | None -> compute ()
          | Some cache -> (
              let key = Key.of_plan plan ~options:(Key.request_fingerprint req) in
              (* Single-flight: concurrent duplicates wait for the lease
                 holder instead of re-exploring, so a duplicate manifest
                 entry is a cache hit at any worker count. *)
              match Lru.find_or_lease cache key.Key.merkle with
              | `Hit o ->
                  {
                    o with
                    Job.id = req.id;
                    cached = true;
                    wall_s = Timed.Clock.gettimeofday () -. now;
                  }
              | `Lease ->
                  attribute config key;
                  let stored = ref false in
                  Fun.protect
                    ~finally:(fun () ->
                      if not !stored then Lru.abandon cache key.Key.merkle)
                    (fun () ->
                      let o = compute () in
                      (match o.Job.verdict with
                      | Job.Cancelled | Job.Failed _ -> ()
                      | _ ->
                          Lru.fulfill cache key.Key.merkle o;
                          stored := true;
                          match config.on_store with
                          | Some f -> f key.Key.merkle o
                          | None -> ());
                      o))))
