(* A small persistent pool of worker domains for data-parallel loops.

   The service scheduler runs its jobs in batches; each is a
   [run pool n f] call that evaluates [f 0 .. f (n-1)] across the
   workers plus the calling domain, pulling indices from a shared
   atomic counter (dynamic scheduling — the items are irregular, some
   models cost far more than others).  Workers persist across [run]
   calls, so per-batch overhead is a broadcast on a condition variable
   rather than a domain spawn.

   Exceptions raised by [f] are captured — first one wins — and
   re-raised in the caller once the batch has drained, so a failing
   batch does not leave domains running.  A failure that originated on
   a worker domain is re-raised wrapped in [Worker_error] so the caller
   can tell which domain died; a failure on the calling domain itself is
   re-raised as-is. *)

exception Worker_error of { index : int; error : exn }

let () =
  Printexc.register_printer (function
    | Worker_error { index; error } ->
        Some
          (Printf.sprintf "Versa.Pool.Worker_error(worker %d: %s)" index
             (Printexc.to_string error))
    | _ -> None)

let failures =
  Obs.Counter.make
    ~help:"Batches in which a pool worker domain raised an exception"
    "versa_pool_worker_failures_total"

(* The calling domain participates in every batch under this pseudo-index;
   its failures are not wrapped. *)
let caller_index = -1

type t = {
  workers : int;  (* worker domains, excluding the caller *)
  mutex : Mutex.t;
  work_ready : Condition.t;
  work_done : Condition.t;
  mutable generation : int;  (* bumped once per batch *)
  mutable task : (int -> unit) option;
  mutable count : int;  (* size of the current batch *)
  next : int Atomic.t;  (* next index to claim *)
  mutable active : int;  (* workers still inside the current batch *)
  mutable stopping : bool;
  mutable error : (int * exn) option;  (* (origin index, exception) *)
  mutable domains : unit Domain.t list;
}

let record_error pool index e =
  if index <> caller_index then Obs.Counter.incr failures;
  Mutex.lock pool.mutex;
  if pool.error = None then pool.error <- Some (index, e);
  Mutex.unlock pool.mutex

(* Claim and run indices until the batch is exhausted.  On an error the
   remaining indices are drained without running [f]: the batch still
   terminates promptly and deterministically.  [index] identifies the
   draining domain (worker index, or [caller_index]) for attribution. *)
let drain pool ~index f n =
  let continue = ref true in
  while !continue do
    let i = Atomic.fetch_and_add pool.next 1 in
    if i >= n then continue := false
    else
      match f i with
      | () -> ()
      | exception e ->
          record_error pool index e;
          continue := false
  done

let worker pool index () =
  let seen_generation = ref 0 in
  let running = ref true in
  while !running do
    Mutex.lock pool.mutex;
    while pool.generation = !seen_generation && not pool.stopping do
      Condition.wait pool.work_ready pool.mutex
    done;
    if pool.stopping then begin
      Mutex.unlock pool.mutex;
      running := false
    end
    else begin
      seen_generation := pool.generation;
      let f = Option.get pool.task and n = pool.count in
      Mutex.unlock pool.mutex;
      Obs.Span.with_ ~name:"pool.worker"
        ~attrs:[ ("worker", string_of_int index) ]
        (fun () -> drain pool ~index f n);
      Mutex.lock pool.mutex;
      pool.active <- pool.active - 1;
      if pool.active = 0 then Condition.broadcast pool.work_done;
      Mutex.unlock pool.mutex
    end
  done

let create workers =
  let workers = max 0 workers in
  let pool =
    {
      workers;
      mutex = Mutex.create ();
      work_ready = Condition.create ();
      work_done = Condition.create ();
      generation = 0;
      task = None;
      count = 0;
      next = Atomic.make 0;
      active = 0;
      stopping = false;
      error = None;
      domains = [];
    }
  in
  pool.domains <- List.init workers (fun i -> Domain.spawn (worker pool i));
  pool

let run pool n f =
  if n > 0 then begin
    Mutex.lock pool.mutex;
    pool.task <- Some f;
    pool.count <- n;
    pool.error <- None;
    Atomic.set pool.next 0;
    pool.active <- pool.workers;
    pool.generation <- pool.generation + 1;
    Condition.broadcast pool.work_ready;
    Mutex.unlock pool.mutex;
    (* The caller is a participant too.  Even if its drain dies with an
       exception that [drain] cannot capture (Out_of_memory,
       Stack_overflow), the batch must still be waited out: returning
       while workers hold the task closure would let a later [run] or
       [shutdown] race them, deadlocking the pool. *)
    Fun.protect
      ~finally:(fun () ->
        Mutex.lock pool.mutex;
        while pool.active > 0 do
          Condition.wait pool.work_done pool.mutex
        done;
        pool.task <- None;
        Mutex.unlock pool.mutex)
      (fun () -> drain pool ~index:caller_index f n);
    match pool.error with
    | Some (index, error) when index <> caller_index ->
        raise (Worker_error { index; error })
    | Some (_, e) -> raise e
    | None -> ()
  end

(* Join every domain even if one of the joins re-raises (a worker that
   died outside [drain] makes [Domain.join] re-raise its exception); the
   first exception wins, but no domain is ever leaked. *)
let rec join_all = function
  | [] -> ()
  | d :: rest ->
      Fun.protect ~finally:(fun () -> join_all rest) (fun () -> Domain.join d)

let shutdown pool =
  Mutex.lock pool.mutex;
  pool.stopping <- true;
  Condition.broadcast pool.work_ready;
  Mutex.unlock pool.mutex;
  let domains = pool.domains in
  pool.domains <- [];
  join_all domains
