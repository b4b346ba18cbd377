(* Encodings of scheduling policies as priority assignment rules (paper,
   Section 5).

   A policy determines, for each thread bound to a processor, the priority
   of every access to that processor's resource in the thread's timed
   actions.  Fixed-priority policies yield integer constants; dynamic
   policies yield expressions over the parameters of the thread's Compute
   process: [t] (time since dispatch) and [e] (accumulated execution).

   ACSR preemption needs priorities >= 1 for a computing step to preempt
   idling, so every encoding below is offset to start at 1; offsets shift
   all priorities of a processor uniformly and do not change the relative
   preemption order. *)

open Acsr

type assignment = {
  task : Workload.task;
  cpu_priority : Expr.t;
      (** may reference the Compute-process parameters [e] and [t] *)
}

(* Distinct static priorities 1..n: [rank] orders tasks from lowest to
   highest priority; ties broken by instance path for determinism. *)
let static_by cmp tasks =
  let ordered =
    List.stable_sort
      (fun a b ->
        match cmp a b with
        | 0 -> Stdlib.compare a.Workload.path b.Workload.path
        | c -> c)
      tasks
  in
  (* ordered from highest-priority first; assign n..1 *)
  let n = List.length ordered in
  List.mapi
    (fun i task -> { task; cpu_priority = Expr.Int (n - i) })
    ordered

(* Periodic distance for rate-monotonic ordering: threads without a period
   (aperiodic, background) sort below every periodic thread. *)
let period_key task =
  match task.Workload.period with Some p -> p | None -> max_int

let rate_monotonic tasks =
  static_by (fun a b -> Int.compare (period_key a) (period_key b)) tasks

let deadline_monotonic tasks =
  static_by
    (fun a b -> Int.compare a.Workload.deadline b.Workload.deadline)
    tasks

(* Highest value of the AADL Priority property = highest priority. *)
let highest_priority_first tasks =
  let key task =
    match task.Workload.aadl_priority with Some p -> p | None -> min_int
  in
  static_by (fun a b -> Int.compare (key b) (key a)) tasks

(* EDF: pi = dmax - (d_i - t) + 1.  The earlier the absolute deadline of
   the current dispatch, the larger the priority (paper, Section 5). *)
let edf tasks =
  let dmax =
    List.fold_left (fun m task -> max m task.Workload.deadline) 0 tasks
  in
  List.map
    (fun task ->
      let base = dmax - task.Workload.deadline + 1 in
      { task; cpu_priority = Expr.(Add (Int base, Var "t")) })
    tasks

(* LLF: laxity_i = (d_i - t) - (cmax_i - e); the smaller the laxity, the
   higher the priority: pi = dmax - laxity_i + 1. *)
let llf tasks =
  let dmax =
    List.fold_left (fun m task -> max m task.Workload.deadline) 0 tasks
  in
  List.map
    (fun task ->
      let base = dmax - task.Workload.deadline + task.Workload.cmax + 1 in
      {
        task;
        cpu_priority = Expr.(Sub (Add (Int base, Var "t"), Var "e"));
      })
    tasks

(* {1 Hierarchical scheduling (extension; paper Section 7 future work)}

   Two levels: a fixed priority order across groups of threads, and a
   local policy within each group, encoded by priority *bands*: group i
   (counting from the lowest) gets priorities in ((i-1)*B, i*B], where B
   bounds the local priority values of every group.  A thread of a
   higher-ranked group then preempts any thread of a lower-ranked one,
   while the relative order within a group is the local policy's — the
   "new priority encodings" the paper anticipates for hierarchical
   scheduling.  (Priority bands provide the scheduling order, not
   temporal isolation: budgets are out of scope.) *)

type group = {
  group_name : string list;
  group_rank : int;  (** higher = scheduled first *)
  local_protocol : Aadl.Props.scheduling_protocol;
  members : Workload.task list;
}

(* An inclusive upper bound on the values a local assignment's priority
   expression can take: static ranks are bounded by the member count; the
   EDF expression base + t is bounded by dmax + 1 (t is capped at the
   deadline); LLF additionally adds cmax. *)
let local_bound protocol members =
  let dmax =
    List.fold_left (fun m t -> max m t.Workload.deadline) 0 members
  in
  let cmax =
    List.fold_left (fun m t -> max m t.Workload.cmax) 0 members
  in
  match protocol with
  | Aadl.Props.Rate_monotonic | Aadl.Props.Deadline_monotonic
  | Aadl.Props.Highest_priority_first ->
      max 1 (List.length members)
  | Aadl.Props.Edf -> dmax + 1
  | Aadl.Props.Llf -> dmax + cmax + 1
  | Aadl.Props.Hierarchical ->
      Aadl.Diag.fail "nested hierarchical scheduling is not supported"

let rec assign protocol tasks =
  match protocol with
  | Aadl.Props.Rate_monotonic -> rate_monotonic tasks
  | Aadl.Props.Deadline_monotonic -> deadline_monotonic tasks
  | Aadl.Props.Highest_priority_first -> highest_priority_first tasks
  | Aadl.Props.Edf -> edf tasks
  | Aadl.Props.Llf -> llf tasks
  | Aadl.Props.Hierarchical ->
      Aadl.Diag.fail
        "hierarchical scheduling needs explicit groups; use \
         Sched_policy.hierarchical"

and hierarchical (groups : group list) =
  let band =
    List.fold_left
      (fun b g -> max b (local_bound g.local_protocol g.members))
      1 groups
  in
  (* groups ordered from lowest to highest rank; ties broken by name *)
  let ordered =
    List.stable_sort
      (fun a b ->
        match Int.compare a.group_rank b.group_rank with
        | 0 -> Stdlib.compare a.group_name b.group_name
        | c -> c)
      groups
  in
  List.concat
    (List.mapi
       (fun i g ->
         let offset = i * band in
         List.map
           (fun a ->
             match a.cpu_priority with
             | Expr.Int n -> { a with cpu_priority = Expr.Int (offset + n) }
             | e when offset = 0 -> { a with cpu_priority = e }
             | e ->
                 { a with cpu_priority = Expr.Add (Expr.Int offset, e) })
           (assign g.local_protocol g.members))
       ordered)

let find assignments (task : Workload.task) =
  match
    List.find_opt
      (fun a -> a.task.Workload.path = task.Workload.path)
      assignments
  with
  | Some a -> a.cpu_priority
  | None -> Aadl.Diag.fail ~subject:task.Workload.path "no priority assigned"

let pp_assignment ppf a =
  Fmt.pf ppf "%a -> %a" Aadl.Instance.pp_path a.task.Workload.path Expr.pp
    a.cpu_priority
