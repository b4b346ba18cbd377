(* Sensitivity analysis: how much can a thread's execution time grow
   before the system stops being schedulable?

   The exploration verdict is a monotone function of each thread's
   execution time (more computation can only add behaviours that miss
   deadlines: the Compute process's completion window only moves right),
   so binary search over a synthetic Compute_Execution_Time override
   finds the breakdown point exactly.  This is the "design exploration"
   use the paper's introduction motivates: analyze alternatives early, at
   the architecture level.

   Every probe re-translates the model with one thread's cet changed —
   the motivating case for the fragment IR: all probes share one
   Fragment_cache, so each point re-generates only the perturbed
   thread's skeleton/dispatcher fragment (its digest covers cmin/cmax)
   and reuses every other unit by physical identity.  The sweep quantum
   is pinned before probing so digests stay comparable across points. *)

type point = {
  cet : int;  (** quanta *)
  schedulable : bool;
  fragments_reused : int;
  fragments_rebuilt : int;
}

type t = {
  thread : string list;
  original_cmax : int;  (** quanta *)
  breakdown_cmax : int option;
      (** the largest cet (quanta) that keeps the whole system
          schedulable; [None] when the system is unschedulable already at
          cet = 1 *)
  slack : int option;  (** breakdown - original, when both exist *)
  probes : int;  (** exploration runs performed by the search *)
  fragments_reused : int;  (** across all probes *)
  fragments_rebuilt : int;
}

type options = {
  schedulability : Schedulability.options;
  max_cmax : int option;
      (** search ceiling; defaults to the thread's deadline *)
}

let default_options =
  { schedulability = Schedulability.default_options; max_cmax = None }

(* Rebuild the workload with the thread's cet forced to [cet] quanta, by
   overriding the instance property before translation.  We synthesize a
   property in quanta-sized time units appended to the thread's
   association list (later associations win). *)
let with_cet ~(quantum : Aadl.Time.t) ~(thread : string list) ~cet
    (root : Aadl.Instance.t) : Aadl.Instance.t =
  let cet_time = Aadl.Time.of_ns (cet * Aadl.Time.to_ns quantum) in
  let prop =
    {
      Aadl.Ast.pname = "compute_execution_time";
      pvalue = Aadl.Ast.Ptime cet_time;
      applies_to = [];
      ploc = Aadl.Ast.no_loc;
    }
  in
  let rec update (inst : Aadl.Instance.t) path =
    match path with
    | [] -> { inst with Aadl.Instance.props = inst.Aadl.Instance.props @ [ prop ] }
    | seg :: rest ->
        {
          inst with
          Aadl.Instance.children =
            List.map
              (fun (c : Aadl.Instance.t) ->
                if
                  String.lowercase_ascii c.Aadl.Instance.name
                  = String.lowercase_ascii seg
                then update c rest
                else c)
              inst.Aadl.Instance.children;
        }
  in
  update root thread

let probes_total =
  Obs.Counter.make ~help:"Sensitivity probe points explored"
    "analysis_sensitivity_probes_total"

(* The per-probe fragment reuse/rebuild split lands in the registry via
   the pipeline's translate_fragments_* counters; here we only count the
   probes themselves and bracket each with a span. *)
let probe ~options ~cache ~quantum ~(task : Translate.Workload.task) ~cet root
    : point =
  Obs.Counter.incr probes_total;
  Obs.Span.with_ ~name:"sensitivity.probe"
    ~attrs:[ ("cet", string_of_int cet) ]
  @@ fun () ->
  let root' = with_cet ~quantum ~thread:task.Translate.Workload.path ~cet root in
  let sched_options =
    {
      options.schedulability with
      Schedulability.translation_options =
        {
          options.schedulability.Schedulability.translation_options with
          Translate.Pipeline.quantum = Some quantum;
        };
    }
  in
  if cet > task.Translate.Workload.deadline then
    (* cet beyond the deadline is trivially unschedulable *)
    { cet; schedulable = false; fragments_reused = 0; fragments_rebuilt = 0 }
  else
    let tr =
      Translate.Pipeline.translate
        ~options:sched_options.Schedulability.translation_options ~cache root'
    in
    let r = Schedulability.analyze_translation ~options:sched_options tr in
    (* an inconclusive probe is not a miss: counting it as one would
       report a smaller breakdown as exact *)
    let schedulable =
      match r.Schedulability.verdict with
      | Schedulability.Schedulable -> true
      | Schedulability.Not_schedulable _ -> false
      | Schedulability.Inconclusive why ->
          Aadl.Diag.fail ~loc:task.Translate.Workload.loc
            ~subject:task.Translate.Workload.path "cet %d: %s" cet why
    in
    {
      cet;
      schedulable;
      fragments_reused = tr.Translate.Pipeline.fragments_reused;
      fragments_rebuilt =
        List.length tr.Translate.Pipeline.fragments
        - tr.Translate.Pipeline.fragments_reused;
    }

let resolved_quantum ~options root =
  match
    options.schedulability.Schedulability.translation_options
      .Translate.Pipeline.quantum
  with
  | Some q -> q
  | None -> Translate.Workload.suggest_quantum root

let find_task ~quantum ~thread root =
  let wl = Translate.Workload.extract ~quantum root in
  match Translate.Workload.find_task wl thread with
  | Some t -> t
  | None -> Aadl.Diag.fail "no thread %a in the model" Aadl.Instance.pp_path thread

let sweep ?(options = default_options) ~(thread : string list) ~(cets : int list)
    (root : Aadl.Instance.t) : point list =
  let quantum = resolved_quantum ~options root in
  let task = find_task ~quantum ~thread root in
  let cache = Translate.Fragment_cache.create () in
  List.map (fun cet -> probe ~options ~cache ~quantum ~task ~cet root) cets

let breakdown ?(options = default_options) ~(thread : string list)
    (root : Aadl.Instance.t) : t =
  let quantum = resolved_quantum ~options root in
  let task = find_task ~quantum ~thread root in
  let original_cmax = task.Translate.Workload.cmax in
  let ceiling =
    match options.max_cmax with
    | Some m -> m
    | None -> task.Translate.Workload.deadline
  in
  let cache = Translate.Fragment_cache.create () in
  let probes = ref 0 and reused = ref 0 and rebuilt = ref 0 in
  let ok cet =
    let p = probe ~options ~cache ~quantum ~task ~cet root in
    incr probes;
    reused := !reused + p.fragments_reused;
    rebuilt := !rebuilt + p.fragments_rebuilt;
    p.schedulable
  in
  let result breakdown_cmax slack =
    {
      thread;
      original_cmax;
      breakdown_cmax;
      slack;
      probes = !probes;
      fragments_reused = !reused;
      fragments_rebuilt = !rebuilt;
    }
  in
  if not (ok 1) then result None None
  else begin
    (* largest passing cet in [1, ceiling]: binary search on the monotone
       boundary *)
    let rec search lo hi =
      (* invariant: lo passes; hi + 1 fails or hi = ceiling *)
      if lo >= hi then lo
      else
        let mid = (lo + hi + 1) / 2 in
        if ok mid then search mid hi else search lo (mid - 1)
    in
    let b = search 1 ceiling in
    result (Some b) (Some (b - original_cmax))
  end

let pp ppf t =
  match t.breakdown_cmax with
  | None ->
      Fmt.pf ppf "%a: unschedulable even at cet=1 (original %d)"
        Aadl.Instance.pp_path t.thread t.original_cmax
  | Some b ->
      Fmt.pf ppf "%a: cet %d, breakdown %d (slack %d quanta)"
        Aadl.Instance.pp_path t.thread t.original_cmax b
        (Option.value t.slack ~default:0)

let pp_reuse ppf t =
  Fmt.pf ppf "%d probes: %d fragments rebuilt, %d reused" t.probes
    t.fragments_rebuilt t.fragments_reused

let pp_point ppf p =
  Fmt.pf ppf "cet %d: %s (%d fragments rebuilt, %d reused)" p.cet
    (if p.schedulable then "schedulable" else "NOT schedulable")
    p.fragments_rebuilt p.fragments_reused
