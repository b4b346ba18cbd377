(* Hashtbl + intrusive doubly-linked recency list, guarded by one mutex.
   The list head is the most recently used entry; eviction pops the
   tail.  A sentinel node closes the ring so link/unlink have no
   edge cases. *)

(* The only production instantiation of this cache is the service's
   verdict cache (Runner), so its registry metrics carry that name. *)
module Metrics = struct
  let hits =
    Obs.Counter.make ~help:"Verdict-cache lookups served from the cache"
      "service_verdict_cache_hits_total"

  let misses =
    Obs.Counter.make ~help:"Verdict-cache lookups that missed"
      "service_verdict_cache_misses_total"

  let evictions =
    Obs.Counter.make ~help:"Verdict-cache entries evicted by capacity"
      "service_verdict_cache_evictions_total"

  let size =
    Obs.Gauge.make ~help:"Verdict-cache entries currently stored"
      "service_verdict_cache_size"
end

type 'a node = {
  key : string;
  mutable value : 'a option;  (* None only on the sentinel *)
  mutable prev : 'a node;
  mutable next : 'a node;
}

type 'a t = {
  mutex : Mutex.t;
  cond : Condition.t;  (* signalled when a lease is released *)
  tbl : (string, 'a node) Hashtbl.t;
  inflight : (string, unit) Hashtbl.t;  (* keys under a single-flight lease *)
  sentinel : 'a node;  (* sentinel.next = MRU, sentinel.prev = LRU *)
  cap : int;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
}

let create ~capacity =
  let cap = max 1 capacity in
  let rec sentinel = { key = ""; value = None; prev = sentinel; next = sentinel } in
  {
    mutex = Mutex.create ();
    cond = Condition.create ();
    tbl = Hashtbl.create (2 * cap);
    inflight = Hashtbl.create 8;
    sentinel;
    cap;
    hits = 0;
    misses = 0;
    evictions = 0;
  }

let capacity t = t.cap
let length t = Hashtbl.length t.tbl

let unlink node =
  node.prev.next <- node.next;
  node.next.prev <- node.prev

let link_front t node =
  node.next <- t.sentinel.next;
  node.prev <- t.sentinel;
  t.sentinel.next.prev <- node;
  t.sentinel.next <- node

let with_lock t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

let find t key =
  with_lock t (fun () ->
      match Hashtbl.find_opt t.tbl key with
      | Some node ->
          t.hits <- t.hits + 1;
          Obs.Counter.incr Metrics.hits;
          unlink node;
          link_front t node;
          node.value
      | None ->
          t.misses <- t.misses + 1;
          Obs.Counter.incr Metrics.misses;
          None)

let add_locked t key value =
  (match Hashtbl.find_opt t.tbl key with
  | Some node ->
      node.value <- Some value;
      unlink node;
      link_front t node
  | None ->
      let rec node = { key; value = Some value; prev = node; next = node } in
      Hashtbl.replace t.tbl key node;
      link_front t node);
  if Hashtbl.length t.tbl > t.cap then begin
    let lru = t.sentinel.prev in
    unlink lru;
    Hashtbl.remove t.tbl lru.key;
    t.evictions <- t.evictions + 1;
    Obs.Counter.incr Metrics.evictions
  end;
  Obs.Gauge.set Metrics.size (float_of_int (Hashtbl.length t.tbl))

let add t key value = with_lock t (fun () -> add_locked t key value)

(* Single-flight: the first thread to miss a key takes a lease and
   computes; concurrent threads asking for the same key block until the
   lease is released, then re-probe (a fulfilled lease turns them into
   hits, an abandoned one hands the lease to the first waiter). *)

let find_or_lease t key =
  Mutex.lock t.mutex;
  let rec probe () =
    match Hashtbl.find_opt t.tbl key with
    | Some node ->
        t.hits <- t.hits + 1;
        Obs.Counter.incr Metrics.hits;
        unlink node;
        link_front t node;
        `Hit (match node.value with Some v -> v | None -> assert false)
    | None ->
        if Hashtbl.mem t.inflight key then begin
          Condition.wait t.cond t.mutex;
          probe ()
        end
        else begin
          t.misses <- t.misses + 1;
          Obs.Counter.incr Metrics.misses;
          Hashtbl.replace t.inflight key ();
          `Lease
        end
  in
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) probe

let release_locked t key =
  Hashtbl.remove t.inflight key;
  Condition.broadcast t.cond

let fulfill t key value =
  with_lock t (fun () ->
      add_locked t key value;
      release_locked t key)

let abandon t key = with_lock t (fun () -> release_locked t key)

type counters = {
  hits : int;
  misses : int;
  evictions : int;
  size : int;
  capacity : int;
}

let counters t =
  with_lock t (fun () ->
      {
        hits = t.hits;
        misses = t.misses;
        evictions = t.evictions;
        size = Hashtbl.length t.tbl;
        capacity = t.cap;
      })

let pp_counters ppf c =
  Fmt.pf ppf "%d hits, %d misses, %d evictions, size %d/%d" c.hits c.misses
    c.evictions c.size c.capacity
