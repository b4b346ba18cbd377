(* Priority scheduling over Versa.Pool.  run_all sorts the pending jobs
   by (priority desc, submission seq asc) into an array; Pool.run hands
   out indices in increasing order, so workers pick jobs up in priority
   order even though completion order is nondeterministic.  Outcomes are
   reported back in submission order, which keeps batch output stable. *)

module Metrics = struct
  let queue_depth =
    Obs.Gauge.make ~help:"Jobs submitted but not yet completed"
      "service_queue_depth"

  let wait =
    Obs.Histogram.make
      ~help:"Seconds between job submission and the start of its run"
      "service_job_wait_seconds"

  let run_time =
    Obs.Histogram.make ~help:"Seconds a job spent running"
      "service_job_run_seconds"
end

(* submitted-but-not-completed jobs, across all concurrent batches *)
let depth = Atomic.make 0

let depth_add d =
  let now = Atomic.fetch_and_add depth d + d in
  Obs.Gauge.set Metrics.queue_depth (float_of_int now)

type handle = {
  seq : int;
  request : Job.request;
  submitted : float;  (* Timed.Clock time at submit, for wait times *)
  cancelled : bool Atomic.t;
  result : Job.outcome option Atomic.t;
}

type t = {
  config : Runner.config;
  workers : int;
  mutable pending : handle list;  (* newest first *)
  mutable next_seq : int;
}

let create ?(workers = 1) config =
  { config; workers = max 1 workers; pending = []; next_seq = 0 }

let submit t request =
  let handle =
    {
      seq = t.next_seq;
      request;
      submitted = Timed.Clock.gettimeofday ();
      cancelled = Atomic.make false;
      result = Atomic.make None;
    }
  in
  t.next_seq <- t.next_seq + 1;
  t.pending <- handle :: t.pending;
  depth_add 1;
  handle

let cancel handle = Atomic.set handle.cancelled true
let outcome handle = Atomic.get handle.result

let run_one config handle =
  let started = Timed.Clock.gettimeofday () in
  Obs.Histogram.observe Metrics.wait (started -. handle.submitted);
  let o =
    if Atomic.get handle.cancelled then
      {
        Job.id = handle.request.Job.id;
        verdict = Job.Cancelled;
        states = 0;
        cached = false;
        degraded = false;
        wall_s = 0.;
      }
    else
      Runner.run
        ~cancel:(fun () -> Atomic.get handle.cancelled)
        config handle.request
  in
  Obs.Histogram.observe Metrics.run_time (Timed.Clock.gettimeofday () -. started);
  depth_add (-1);
  Atomic.set handle.result (Some o)

let run_all t =
  let batch = List.rev t.pending in
  t.pending <- [];
  let by_priority =
    List.sort
      (fun a b ->
        match compare b.request.Job.priority a.request.Job.priority with
        | 0 -> compare a.seq b.seq
        | c -> c)
      batch
  in
  let jobs = Array.of_list by_priority in
  let n = Array.length jobs in
  if n > 0 then
    if t.workers <= 1 then
      Array.iter (fun h -> run_one t.config h) jobs
    else begin
      (* the calling domain participates, so workers - 1 extra domains *)
      let pool = Versa.Pool.create (t.workers - 1) in
      Fun.protect
        ~finally:(fun () -> Versa.Pool.shutdown pool)
        (fun () -> Versa.Pool.run pool n (fun i -> run_one t.config jobs.(i)));
      (* A joined domain leaves its part of the heap for later major
         cycles to sweep.  Collecting now keeps the peak resident set
         of a process that drains batch after batch near that of one
         that never respawns its workers (doc/PERFORMANCE.md §4g). *)
      Gc.full_major ()
    end;
  List.map
    (fun h ->
      match Atomic.get h.result with
      | Some o -> o
      | None ->
          (* unreachable: every index ran or the exception propagated *)
          assert false)
    batch
