(* Observed worst-case response times, extracted from the model by state
   exploration: the smallest latency bound (dispatch -> completion of the
   same thread) that holds on every path, found by binary search over the
   observer's bound.

   This turns the latency-observer machinery of Section 5 into a
   measurement instrument; on deterministic periodic task sets it must
   coincide exactly with classical response-time analysis, which the test
   suite checks. *)

type t = {
  thread : string list;
  response : int option;
      (** quanta; [None] when even the deadline bound is violated (the
          thread misses deadlines) *)
  deadline : int;
}

let met ~options ~thread ~bound_q ~quantum root =
  let bound = Aadl.Time.of_ns (bound_q * Aadl.Time.to_ns quantum) in
  let r = Latency.check ~options ~from_thread:thread ~to_thread:thread ~bound root in
  match r.Latency.verdict with
  | Latency.Latency_met -> true
  | Latency.Latency_violated _ | Latency.Deadline_missed _ -> false
  | Latency.Latency_inconclusive why ->
      Aadl.Diag.fail ~subject:thread "%s" why

let worst_response ?(options = Schedulability.default_options)
    ~(thread : string list) (root : Aadl.Instance.t) : t =
  let quantum =
    match
      options.Schedulability.translation_options.Translate.Pipeline.quantum
    with
    | Some q -> q
    | None -> Translate.Workload.suggest_quantum root
  in
  let wl = Translate.Workload.extract ~quantum root in
  let task =
    match Translate.Workload.find_task wl thread with
    | Some t -> t
    | None ->
        Aadl.Diag.fail "no thread %a in the model" Aadl.Instance.pp_path thread
  in
  let deadline = task.Translate.Workload.deadline in
  if not (met ~options ~thread ~bound_q:deadline ~quantum root) then
    { thread; response = None; deadline }
  else begin
    (* smallest passing bound in [cmin, deadline] *)
    let rec search lo hi =
      (* invariant: hi passes, lo - 1 <= everything below lo is untested
         or failing *)
      if lo >= hi then hi
      else
        let mid = (lo + hi) / 2 in
        if met ~options ~thread ~bound_q:mid ~quantum root then search lo mid
        else search (mid + 1) hi
    in
    let r = search (max 1 task.Translate.Workload.cmin) deadline in
    { thread; response = Some r; deadline }
  end

let pp ppf t =
  Fmt.pf ppf "%a: observed response %a (deadline %d)" Aadl.Instance.pp_path
    t.thread
    Fmt.(option ~none:(any "exceeds deadline") int)
    t.response t.deadline
