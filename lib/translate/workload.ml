(* Extraction of the timed task view of an instance model.

   All durations are converted to integral numbers of scheduling quanta
   (paper, Section 4.1: discrete time, fixed-size quanta).  Execution
   times round up and deadlines/periods round down, so the quantized model
   over-approximates the timing behaviour of the original, as the paper
   requires: analysis may produce false deadline violations but never
   false guarantees. *)

type task = {
  path : string list;
  name : string;  (** sanitized identifier *)
  dispatch : Aadl.Props.dispatch_protocol;
  period : int option;  (** quanta; [Some] for periodic and sporadic *)
  cmin : int;  (** minimum execution time, quanta, >= 1 *)
  cmax : int;  (** maximum execution time, quanta, >= cmin *)
  deadline : int;  (** quanta *)
  aadl_priority : int option;  (** the AADL [Priority] property *)
  processor : string list;  (** bound processor instance path *)
  incoming_events : Aadl.Semconn.t list;
      (** event-like semantic connections ending at this thread *)
  outgoing : Aadl.Semconn.t list;
  out_buses : string list list;
      (** buses carrying outgoing connections: used by the final
          computation steps of a dispatch *)
  data_shared : string list list;
      (** shared data components reached by access connections *)
}

type t = {
  root : Aadl.Instance.t;
  quantum : Aadl.Time.t;
  tasks : task list;
  sconns : Aadl.Semconn.t list;
  by_processor : (Aadl.Instance.t * task list) list;
}

let quanta_ceil ~quantum time = Aadl.Time.to_quanta ~quantum time

let task_of_thread ~root ~quantum sconns (th : Aadl.Instance.t) =
  let props = th.Aadl.Instance.props in
  let path = th.Aadl.Instance.path in
  let loc name = Option.value (Aadl.Props.loc_of name props) ~default:th.loc in
  let missing what = Aadl.Diag.fail ~loc:th.loc ~subject:path "missing %s" what in
  let quanta_floor what time =
    let q = Aadl.Time.to_quanta_floor ~quantum time in
    if q = 0 then
      Aadl.Diag.fail ~loc:(loc what) ~subject:path
        "%s (%a) is smaller than the quantum (%a)" what Aadl.Time.pp time
        Aadl.Time.pp quantum
    else q
  in
  let dispatch =
    match Aadl.Props.dispatch_protocol props with
    | Some d -> d
    | None -> missing "Dispatch_Protocol"
  in
  let cmin, cmax =
    match Aadl.Props.compute_execution_time props with
    | Some (lo, hi) ->
        (max 1 (quanta_ceil ~quantum lo), max 1 (quanta_ceil ~quantum hi))
    | None -> missing "Compute_Execution_Time"
  in
  let deadline =
    match Aadl.Props.compute_deadline props with
    | Some d -> quanta_floor "Compute_Deadline" d
    | None -> missing "Compute_Deadline"
  in
  let period =
    match (dispatch, Aadl.Props.period props) with
    | (Aadl.Props.Periodic | Aadl.Props.Sporadic), Some p ->
        Some (quanta_floor "Period" p)
    | (Aadl.Props.Periodic | Aadl.Props.Sporadic), None -> missing "Period"
    | (Aadl.Props.Aperiodic | Aadl.Props.Background), p ->
        Option.map (quanta_floor "Period") p
  in
  let processor =
    (Aadl.Binding.processor_of_exn ~root th).Aadl.Instance.path
  in
  let incoming_events =
    List.filter Aadl.Semconn.is_event_like (Aadl.Semconn.incoming sconns th)
  in
  let outgoing = Aadl.Semconn.outgoing sconns th in
  let out_buses =
    List.filter_map
      (fun sc ->
        Option.map
          (fun (b : Aadl.Instance.t) -> b.Aadl.Instance.path)
          (Aadl.Binding.bus_of ~root sc))
      outgoing
    |> List.sort_uniq Stdlib.compare
  in
  let data_shared =
    Aadl.Semconn.resolve_access root
    |> List.filter (fun (a : Aadl.Semconn.access) ->
           List.map String.lowercase_ascii a.Aadl.Semconn.thread
           = List.map String.lowercase_ascii path)
    |> List.map (fun (a : Aadl.Semconn.access) -> a.Aadl.Semconn.data)
    |> List.sort_uniq Stdlib.compare
  in
  if cmax > deadline then
    Aadl.Diag.fail ~loc:(loc "compute_execution_time") ~subject:path
      "maximum execution time (%d quanta) exceeds the deadline (%d quanta); \
       the thread can never meet it"
      cmax deadline;
  {
    path;
    name = Naming.of_path path;
    dispatch;
    period;
    cmin;
    cmax;
    deadline;
    aadl_priority = Aadl.Props.priority props;
    processor;
    incoming_events;
    outgoing;
    out_buses;
    data_shared;
  }

let extract ~quantum root =
  let sconns = Aadl.Semconn.resolve root in
  let tasks =
    List.map (task_of_thread ~root ~quantum sconns) (Aadl.Instance.threads root)
  in
  let by_processor =
    List.filter_map
      (fun (proc, threads) ->
        if threads = [] then None
        else
          let procpath p = List.map String.lowercase_ascii p in
          let bound =
            List.filter
              (fun task ->
                procpath task.processor
                = procpath proc.Aadl.Instance.path)
              tasks
          in
          Some (proc, bound))
      (Aadl.Binding.threads_by_processor ~root)
  in
  { root; quantum; tasks; sconns; by_processor }

(* The largest quantum that represents every timing property of the model
   exactly: the gcd of all time values appearing anywhere in the instance
   tree.  The paper notes that smaller quanta improve precision at the
   cost of state space; the gcd is the coarsest lossless choice. *)
let suggest_quantum root =
  let rec gcd a b = if b = 0 then a else gcd b (a mod b) in
  let rec times_of_pvalue = function
    | Aadl.Ast.Ptime t -> [ Aadl.Time.to_ns t ]
    | Aadl.Ast.Prange (a, b) -> times_of_pvalue a @ times_of_pvalue b
    | Aadl.Ast.Plist vs -> List.concat_map times_of_pvalue vs
    | Aadl.Ast.Pint _ | Aadl.Ast.Preal _ | Aadl.Ast.Pbool _
    | Aadl.Ast.Pstring _ | Aadl.Ast.Penum _ | Aadl.Ast.Preference _ ->
        []
  in
  let acc =
    Aadl.Instance.fold
      (fun acc inst ->
        List.fold_left
          (fun acc (p : Aadl.Ast.prop) ->
            List.fold_left
              (fun acc ns -> if ns > 0 then gcd acc ns else acc)
              acc
              (times_of_pvalue p.Aadl.Ast.pvalue))
          acc inst.Aadl.Instance.props)
      0 root
  in
  if acc = 0 then Aadl.Time.of_ms 1 else Aadl.Time.of_ns acc

let find_task t path =
  List.find_opt
    (fun task ->
      List.map String.lowercase_ascii task.path
      = List.map String.lowercase_ascii path)
    t.tasks

(* Utilization of a task set on one processor, using maximum execution
   times; background and aperiodic tasks contribute only if they carry a
   period. *)
let utilization tasks =
  List.fold_left
    (fun acc task ->
      match task.period with
      | Some p -> acc +. (float_of_int task.cmax /. float_of_int p)
      | None -> acc)
    0.0 tasks

let pp_task ppf task =
  Fmt.pf ppf "%a: %a cet=[%d,%d] deadline=%d%a on %a" Aadl.Instance.pp_path
    task.path Aadl.Props.pp_dispatch_protocol task.dispatch task.cmin
    task.cmax task.deadline
    Fmt.(option (any " period=" ++ int))
    task.period Aadl.Instance.pp_path task.processor

let pp ppf t =
  Fmt.pf ppf "@[<v>quantum=%a@,%a@]" Aadl.Time.pp t.quantum
    Fmt.(list ~sep:cut pp_task)
    t.tasks
