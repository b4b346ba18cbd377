(* The content-hashed intermediate representation of the translation.

   The paper's Algorithm 1 is per-component: each thread contributes a
   skeleton + dispatcher, each queued connection a queue process, each
   device-driven connection a stimulus, and the system is their parallel
   composition under restriction.  A [Fragment.t] materializes one such
   unit together with (a) the registry entries that map its generated
   names back to AADL, (b) the labels it asks the composition to
   restrict, and (c) a digest of exactly the instance slice and derived
   parameters its ACSR terms were computed from.

   Planning is cheap and total: [plan] walks the checked model and
   produces one [spec] per unit, each carrying its digest and a thunk
   that generates the fragment.  Realizing specs through a
   {!Fragment_cache} lets an unchanged component reuse the previously
   generated fragment by physical identity instead of generating it
   again.  Reuse saves generation only: an exploration interns every
   node of the composed system into its own table ([Acsr.Hproc.of_proc]
   walks the whole term). *)

open Acsr

(* {1 Translation options} (the types [Pipeline] re-exports) *)

type observer = {
  from_thread : string list;
  to_thread : string list;
  bound : Aadl.Time.t;
}

type options = {
  quantum : Aadl.Time.t option;
  force_protocol : Aadl.Props.scheduling_protocol option;
  observer : observer option;
}

let default_options = { quantum = None; force_protocol = None; observer = None }

(* {1 Fragments} *)

type kind = Thread_unit | Queue | Stimulus | Modal_manager | Observer

type t = {
  kind : kind;
  id : string;
  digest : string;
  sym_digest : string;
  cacheable : bool;
  defs : (string * string list * Proc.t) list;
  initials : Proc.t list;
  restricted : Label.t list;
  entries : (string * Naming.meaning) list;
}

type spec = {
  spec_kind : kind;
  spec_id : string;
  spec_digest : string;
  spec_cacheable : bool;
  build : unit -> t;
}

type plan = {
  root : Aadl.Instance.t;
  workload : Workload.t;
  assignments : (string list * Sched_policy.assignment list) list;
  specs : spec list;
}

let spec_id s = s.spec_id
let spec_digest s = s.spec_digest
let spec_cacheable s = s.spec_cacheable

let realize (s : spec) : t = s.build ()

let spec ?(cacheable = true) kind id digest build =
  {
    spec_kind = kind;
    spec_id = id;
    spec_digest = digest;
    spec_cacheable = cacheable;
    build;
  }

(* {2 Digests}

   A digest covers every input the generation thunk reads: the task
   record fields, the scope-resolved names (so a collision-induced
   qualification changes the digest), the priority expression assigned by
   the scheduling policy (so a sibling's parameter change that shifts
   this thread's priority correctly invalidates it), probe and trigger
   labels, and queue/stimulus parameters.  The field separator cannot
   occur in sanitized names, and list sections are length-prefixed, so
   distinct inputs cannot alias. *)

let digest_of parts =
  Digest.to_hex (Digest.string (String.concat "\x1f" parts))

let section tag items = (tag ^ "#" ^ string_of_int (List.length items)) :: items

let opt_int = function None -> "-" | Some i -> string_of_int i

let dispatch_tag = function
  | Aadl.Props.Periodic -> "periodic"
  | Aadl.Props.Aperiodic -> "aperiodic"
  | Aadl.Props.Sporadic -> "sporadic"
  | Aadl.Props.Background -> "background"

let overflow_tag = function
  | Aadl.Props.Drop_newest -> "dropn"
  | Aadl.Props.Drop_oldest -> "dropo"
  | Aadl.Props.Error -> "error"

(* {2 The latency observer} (paper, Section 5)

   An observer is "triggered by an input event and, just like a
   dispatcher process, deadlocks if the output event is not observed by
   the flow deadline".  The trigger and the target are probe events
   that the planned thread units fire: [flow_start] right after the
   dispatch of the flow's first thread, [flow_end] right after the
   completion of its last one.  The observer is one more unit of the
   composition, and restricting both labels forces it to see every
   occurrence.

   The observer is non-pipelined: while a flow instance is being
   tracked, further triggers are absorbed without starting a new
   measurement (the paper notes pipelined flows need dynamically spawned
   observers).

     Obs       = start?.Wait(0) + end?.Obs + {}:Obs
     Wait(k)   = end?.Obs + start?.Wait(k) + [k < L] {}:Wait(k+1)

   At k = L with the end event unavailable the observer refuses to let
   time pass: a deadlock, reported as the latency violation. *)

let flow_start = Label.make "flow_start"
let flow_end = Label.make "flow_end"
let observer_name = "Obs_flow"
let observer_wait = "Obs_flow_wait"

let observer_defs ~bound =
  let var_k = Expr.Var "k" in
  let idle_to k = Proc.act Action.idle k in
  let main_body =
    Proc.choice_list
      [
        Proc.receive flow_start (Proc.call observer_wait [ Expr.Int 0 ]);
        Proc.receive flow_end (Proc.call observer_name []);
        idle_to (Proc.call observer_name []);
      ]
  in
  let wait_body =
    Proc.choice_list
      [
        Proc.receive flow_end (Proc.call observer_name []);
        Proc.receive flow_start (Proc.call observer_wait [ var_k ]);
        Proc.if_
          Guard.(lt var_k (Expr.Int bound))
          (idle_to (Proc.call observer_wait [ Expr.Add (var_k, Expr.Int 1) ]));
      ]
  in
  [ (observer_name, [], main_body); (observer_wait, [ "k" ], wait_body) ]

(* The bound in quanta and both endpoints are checked here, at plan
   time, so a request names its mistake before anything is generated. *)
let observer_spec ~(root : Aadl.Instance.t) ~quantum (wl : Workload.t)
    (o : observer) : spec =
  let bound = Aadl.Time.to_quanta_floor ~quantum o.bound in
  if bound <= 0 then
    Aadl.Diag.fail ~loc:root.Aadl.Instance.loc
      "latency bound %a is smaller than the scheduling quantum %a"
      Aadl.Time.pp o.bound Aadl.Time.pp quantum;
  List.iter
    (fun path ->
      if Workload.find_task wl path = None then
        Aadl.Diag.fail ~loc:root.Aadl.Instance.loc
          "no thread %a in the model" Aadl.Instance.pp_path path)
    [ o.from_thread; o.to_thread ];
  let digest = digest_of [ "observer.v1"; string_of_int bound ] in
  let build () =
    {
      kind = Observer;
      id = "observer";
      digest;
      sym_digest = digest;
      cacheable = true;
      defs = observer_defs ~bound;
      initials = [ Proc.call observer_name [] ];
      restricted = [ flow_start; flow_end ];
      entries = [];
    }
  in
  spec Observer "observer" digest build

let rec observer_waited (p : Proc.t) =
  match p with
  | Proc.Call (name, [ k ]) when name = observer_wait ->
      Some (Expr.eval Expr.Env.empty k)
  | Proc.Restrict (_, k) -> observer_waited k
  | Proc.Par (a, b) -> (
      match observer_waited a with Some _ as w -> w | None -> observer_waited b)
  | _ -> None

(* {2 Planning} *)

let is_thread_at root path =
  match Aadl.Instance.find root path with
  | Some i -> i.Aadl.Instance.category = Aadl.Ast.Thread
  | None -> false

let is_device_at root path =
  match Aadl.Instance.find root path with
  | Some i -> i.Aadl.Instance.category = Aadl.Ast.Device
  | None -> false

let dedup_by key items =
  let seen = Hashtbl.create 16 in
  List.filter
    (fun item ->
      let k = key item in
      if Hashtbl.mem seen k then false
      else begin
        Hashtbl.add seen k ();
        true
      end)
    items

(* priority assignment rule per processor (Section 5); hierarchical
   scheduling groups a processor's threads by their nearest
   process-category ancestor, ranked by the process's Priority property,
   with the process's own Scheduling_Protocol as the local policy *)
let hierarchical_groups root tasks =
  let group_host (task : Workload.task) =
    (* nearest ancestor of category Process on the thread's path *)
    let rec walk inst path best =
      match path with
      | [] -> best
      | seg :: rest -> (
          match
            List.find_opt
              (fun (c : Aadl.Instance.t) -> Aadl.Name.equal c.Aadl.Instance.name seg)
              inst.Aadl.Instance.children
          with
          | Some child ->
              let best =
                if child.Aadl.Instance.category = Aadl.Ast.Process then
                  Some child
                else best
              in
              walk child rest best
          | None -> best)
    in
    walk root task.Workload.path None
  in
  let table = Hashtbl.create 8 in
  List.iter
    (fun task ->
      let key, rank, local =
        match group_host task with
        | Some proc ->
            ( proc.Aadl.Instance.path,
              Option.value ~default:0
                (Aadl.Props.priority proc.Aadl.Instance.props),
              Option.value ~default:Aadl.Props.Rate_monotonic
                (Aadl.Props.scheduling_protocol proc.Aadl.Instance.props) )
        | None -> (task.Workload.path, 0, Aadl.Props.Rate_monotonic)
      in
      let prev =
        match Hashtbl.find_opt table key with
        | Some (r, l, members) -> (r, l, task :: members)
        | None -> (rank, local, [ task ])
      in
      Hashtbl.replace table key prev)
    tasks;
  Hashtbl.fold
    (fun key (rank, local, members) acc ->
      {
        Sched_policy.group_name = key;
        group_rank = rank;
        local_protocol = local;
        members = List.rev members;
      }
      :: acc)
    table []
  |> List.sort (fun a b ->
         Stdlib.compare a.Sched_policy.group_name b.Sched_policy.group_name)

let thread_spec ~options ~scope ~modal ~all_assignments (task : Workload.task)
    : spec =
  let path = task.Workload.path in
  let cpu_priority = Sched_policy.find all_assignments task in
  let gate =
    match modal with
    | None -> None
    | Some m ->
        if List.exists (fun p -> p = path) (Modal.restricted_threads m) then
          Some
            {
              Dispatcher.activate = Modal.activate_label path;
              deactivate = Modal.deactivate_label path;
              initially_active = Modal.initially_active m ~thread:path;
            }
        else None
  in
  let triggers =
    match modal with
    | None -> []
    | Some m -> Modal.internal_triggers_of m ~thread:path
  in
  let probes endpoint label =
    match options.observer with
    | Some o when Aadl.Name.equal_path (endpoint o) path -> [ label ]
    | Some _ | None -> []
  in
  let completion_probes = probes (fun o -> o.to_thread) flow_end in
  let dispatch_probes = probes (fun o -> o.from_thread) flow_start in
  (* Resolve scoped names now: planning claims names in deterministic
     model order, and the resolved names are part of the digest. *)
  let spath = Naming.scoped_path scope path in
  let sproc = Naming.scoped_path scope task.Workload.processor in
  let sdata = List.map (Naming.scoped_path scope) task.Workload.data_shared in
  let sbuses = List.map (Naming.scoped_path scope) task.Workload.out_buses in
  let outgoing_events =
    List.filter Aadl.Semconn.is_event_like task.Workload.outgoing
  in
  let out_conns =
    List.map
      (fun (sc : Aadl.Semconn.t) ->
        Naming.scoped_conn scope (Aadl.Semconn.name sc)
        ^ "="
        ^
        match sc.Aadl.Semconn.kind with
        | Aadl.Ast.Event_data_port -> "ed"
        | _ -> "e")
      outgoing_events
  in
  let in_conns =
    List.map
      (fun (sc : Aadl.Semconn.t) ->
        Naming.scoped_conn scope (Aadl.Semconn.name sc)
        ^ "="
        ^ opt_int (Aadl.Props.urgency (Aadl.Semconn.props sc)))
      task.Workload.incoming_events
  in
  let content =
    [
      dispatch_tag task.Workload.dispatch;
      opt_int task.Workload.period;
      string_of_int task.Workload.cmin;
      string_of_int task.Workload.cmax;
      string_of_int task.Workload.deadline;
      opt_int task.Workload.aadl_priority;
      Naming.of_path sproc;
      Expr.to_string cpu_priority;
    ]
    @ section "data" (List.map Naming.of_path sdata)
    @ section "bus" (List.map Naming.of_path sbuses)
    @ section "out" out_conns
    @ section "in" in_conns
    @ section "gate"
        (match gate with
        | None -> []
        | Some g ->
            [
              Label.name g.Dispatcher.activate;
              Label.name g.Dispatcher.deactivate;
              string_of_bool g.Dispatcher.initially_active;
            ])
    @ section "trig" (List.map Label.name triggers)
    @ section "dprobe" (List.map Label.name dispatch_probes)
    @ section "cprobe" (List.map Label.name completion_probes)
  in
  (* [path_token] is the thread's own resolved path for the content
     digest, and a fixed placeholder for the symmetry digest: two threads
     whose digests agree once their own identity is masked out are
     interchangeable candidates (the pipeline still verifies the claim
     structurally — see [Pipeline.detect_symmetry]).  Everything else
     stays: per-thread probe/gate/trigger labels or connections make the
     symmetry digests differ, which conservatively disables merging. *)
  let digest_parts path_token = "thread.v1" :: path_token :: content in
  let digest = digest_of (digest_parts (Naming.of_path spath)) in
  let sym_digest = digest_of (digest_parts "*") in
  let spec_id = "thread:" ^ String.concat "." path in
  let build () =
    let registry = Naming.create_registry () in
    let sk =
      Skeleton.generate ~scope ~extra_anytime:triggers ~completion_probes
        ~registry ~task ~cpu_priority ()
    in
    let disp =
      Dispatcher.generate ~scope ?modal:gate ~dispatch_probes ~registry ~task
        ~dispatch:sk.Skeleton.dispatch ~done_:sk.Skeleton.done_ ()
    in
    {
      kind = Thread_unit;
      id = spec_id;
      digest;
      sym_digest;
      cacheable = true;
      defs = sk.Skeleton.defs @ disp.Dispatcher.defs;
      initials = [ sk.Skeleton.initial; disp.Dispatcher.initial ];
      restricted = [ sk.Skeleton.dispatch; sk.Skeleton.done_ ];
      entries = Naming.entries registry;
    }
  in
  spec Thread_unit spec_id digest build

let queue_spec ~scope ~root (sc : Aadl.Semconn.t) : spec =
  let cname = Aadl.Semconn.name sc in
  let sname = Naming.scoped_conn scope cname in
  let { Equeue.size; overflow; urgency } = Equeue.queue_params ~root sc in
  let digest =
    digest_of
      [
        "queue.v1";
        Naming.sanitize sname;
        string_of_int size;
        overflow_tag overflow;
        string_of_int urgency;
      ]
  in
  let spec_id = "queue:" ^ cname in
  let build () =
    let registry = Naming.create_registry () in
    let q = Equeue.queue ~scope ~registry ~root sc in
    {
      kind = Queue;
      id = spec_id;
      digest;
      sym_digest = digest;
      cacheable = true;
      defs = q.Equeue.defs;
      initials = [ q.Equeue.initial ];
      restricted = [ Naming.enqueue_label sname; Naming.dequeue_label sname ];
      entries = Naming.entries registry;
    }
  in
  spec Queue spec_id digest build

let stimulus_spec ~scope ~root ~quantum (sc : Aadl.Semconn.t) : spec =
  let cname = Aadl.Semconn.name sc in
  let sname = Naming.scoped_conn scope cname in
  let src = sc.Aadl.Semconn.src.Aadl.Semconn.inst in
  let spath = Naming.scoped_path scope src in
  let period = Equeue.stimulus_period ~root ~quantum sc in
  let digest =
    digest_of
      [
        "stimulus.v1";
        Naming.sanitize sname;
        Naming.of_path spath;
        Naming.sanitize sc.Aadl.Semconn.src.Aadl.Semconn.feature;
        opt_int period;
      ]
  in
  let spec_id = "stimulus:" ^ cname in
  let build () =
    let registry = Naming.create_registry () in
    let s = Equeue.stimulus ~scope ~registry ~root ~quantum sc in
    {
      kind = Stimulus;
      id = spec_id;
      digest;
      sym_digest = digest;
      cacheable = true;
      defs = s.Equeue.defs;
      initials = [ s.Equeue.initial ];
      restricted = [];
      entries = Naming.entries registry;
    }
  in
  spec Stimulus spec_id digest build

(* The mode manager is a whole-model construct (it reads every mode
   transition and every mode-dependent thread), so it is regenerated on
   every plan rather than content-addressed on an input slice; its digest
   is taken over the generated output so Merkle keys still see mode
   changes.  It is excluded from reuse counters. *)
let modal_spec m : spec =
  let registry = Naming.create_registry () in
  let g = Modal.generate ~registry m in
  let frag =
    {
      kind = Modal_manager;
      id = "modal";
      digest = "";
      sym_digest = "";
      cacheable = false;
      defs = g.Modal.defs @ g.Modal.stimuli;
      initials = g.Modal.initial :: g.Modal.stimuli_initials;
      restricted = g.Modal.internal_labels;
      entries = Naming.entries registry;
    }
  in
  let digest =
    digest_of
      ("modal.v1"
      :: List.concat_map
           (fun (name, formals, body) ->
             [ name; String.concat "," formals; Fmt.str "%a" Proc.pp body ])
           frag.defs
      @ List.map (fun p -> Fmt.str "%a" Proc.pp p) frag.initials
      @ List.map Label.name frag.restricted)
  in
  let frag = { frag with digest; sym_digest = digest } in
  spec ~cacheable:false Modal_manager "modal" digest (fun () -> frag)

let plan ?(options = default_options) (root : Aadl.Instance.t) : plan =
  (* bindings and connections are resolved here, once, for both the
     checks and the extraction *)
  let deployment = Aadl.Binding.resolve root in
  (match Aadl.Check.errors (Aadl.Check.run deployment) with
  | [] -> ()
  | d :: rest ->
      let more = List.length rest in
      let message =
        if more = 0 then d.message else Fmt.str "%s (and %d more)" d.message more
      in
      raise (Aadl.Diag.Error { d with message }));
  let quantum =
    match options.quantum with
    | Some q -> q
    | None -> Workload.suggest_quantum root
  in
  let wl = Workload.of_binding ~quantum deployment in
  (* mode support (extension): at most one modal component *)
  let modal =
    match Modal.find root with
    | None -> None
    | Some host -> Some (Modal.analyze ~root ~quantum host)
  in
  let assignments =
    List.map
      (fun ((proc : Aadl.Instance.t), tasks) ->
        let protocol =
          match options.force_protocol with
          | Some p -> p
          | None -> (
              match Aadl.Props.scheduling_protocol proc.Aadl.Instance.props with
              | Some p -> p
              | None ->
                  Aadl.Diag.fail ~loc:proc.Aadl.Instance.loc
                    ~subject:proc.Aadl.Instance.path "missing Scheduling_Protocol")
        in
        let assignment =
          match protocol with
          | Aadl.Props.Hierarchical ->
              Sched_policy.hierarchical (hierarchical_groups root tasks)
          | p -> Sched_policy.assign p tasks
        in
        (proc.Aadl.Instance.path, assignment))
      wl.Workload.by_processor
  in
  let all_assignments = List.concat_map snd assignments in
  let scope = Naming.create_scope () in
  let thread_specs =
    List.map
      (thread_spec ~options ~scope ~modal ~all_assignments)
      wl.Workload.tasks
  in
  (* queue processes: event-like semantic connections ending at threads *)
  let queued_conns =
    wl.Workload.sconns
    |> List.filter (fun sc ->
           Aadl.Semconn.is_event_like sc
           && is_thread_at root sc.Aadl.Semconn.dst.Aadl.Semconn.inst)
    |> dedup_by Aadl.Semconn.name
  in
  let queue_specs = List.map (queue_spec ~scope ~root) queued_conns in
  (* stimuli closing device-sourced queued connections *)
  let device_conns =
    List.filter
      (fun sc -> is_device_at root sc.Aadl.Semconn.src.Aadl.Semconn.inst)
      queued_conns
  in
  let stimulus_specs =
    List.map (stimulus_spec ~scope ~root ~quantum) device_conns
  in
  let modal_specs =
    match modal with None -> [] | Some m -> [ modal_spec m ]
  in
  let observer_specs =
    match options.observer with
    | None -> []
    | Some o -> [ observer_spec ~root ~quantum wl o ]
  in
  {
    root;
    workload = wl;
    assignments;
    specs =
      thread_specs @ queue_specs @ stimulus_specs @ modal_specs
      @ observer_specs;
  }

let digests (p : plan) =
  List.map (fun s -> (s.spec_id, s.spec_digest)) p.specs
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)
