(* Legality checks: the preconditions the paper's translation places on a
   completely instantiated and bound model (Section 4.1):

   1. at least one thread and one processor; every thread bound;
   2. every thread has Dispatch_Protocol, Compute_Execution_Time and
      Compute_Deadline (and a Period for periodic/sporadic threads);
   3. every processor with bound threads has Scheduling_Protocol;
   4. for non-periodic threads, every in event / in event-data port has an
      incoming semantic connection. *)

(* A diagnostic about an instance, located at its declaration unless a
   more precise [loc] (a property association, a connection) is given. *)
let error ?loc (i : Instance.t) fmt =
  Diag.error ~loc:(Option.value loc ~default:i.Instance.loc)
    ~subject:i.Instance.path fmt

let warning ?loc (i : Instance.t) fmt =
  Diag.warning ~loc:(Option.value loc ~default:i.Instance.loc)
    ~subject:i.Instance.path fmt

let errors diags = List.filter (fun d -> d.Diag.severity = `Error) diags
let is_ok diags = errors diags = []

let check_thread ~root sconns (th : Instance.t) =
  let p = th.Instance.props in
  let at name = Props.loc_of name p in
  let diags = ref [] in
  let add d = diags := d :: !diags in
  let dispatch =
    match Props.dispatch_protocol p with
    | Some d -> Some d
    | None ->
        add (error th "missing Dispatch_Protocol");
        None
  in
  (match Props.compute_execution_time p with
  | Some (lo, hi) ->
      if Time.compare lo hi > 0 then
        add
          (error ?loc:(at "compute_execution_time") th
             "Compute_Execution_Time range has min > max");
      if Time.compare hi Time.zero <= 0 then
        add
          (error ?loc:(at "compute_execution_time") th
             "Compute_Execution_Time must be positive")
  | None -> add (error th "missing Compute_Execution_Time"));
  (match Props.compute_deadline p with
  | Some d ->
      if Time.compare d Time.zero <= 0 then
        add
          (error ?loc:(at "compute_deadline") th
             "Compute_Deadline must be positive")
  | None -> add (error th "missing Compute_Deadline"));
  (match dispatch with
  | Some (Props.Periodic | Props.Sporadic) ->
      (match Props.period p with
      | Some per ->
          if Time.compare per Time.zero <= 0 then
            add (error ?loc:(at "period") th "Period must be positive")
      | None -> add (error th "periodic/sporadic thread is missing Period"))
  | Some (Props.Aperiodic | Props.Background) | None -> ());
  (* deadline within period is the usual sanity condition; a violation is
     legal AADL but almost surely a modeling error *)
  (match (Props.compute_deadline p, Props.period p) with
  | Some d, Some per when Time.compare d per > 0 ->
      add
        (warning ?loc:(at "compute_deadline") th
           "Compute_Deadline exceeds Period")
  | _ -> ());
  (match Binding.processor_of ~root th with
  | Some _ -> ()
  | None -> add (error th "thread is not bound to a processor")
  | exception Diag.Error d -> add d);
  (* rule 4: incoming connections on event ports of non-periodic threads *)
  (match dispatch with
  | Some (Props.Aperiodic | Props.Sporadic | Props.Background) ->
      let incoming = Semconn.incoming sconns th in
      List.iter
        (fun (f : Ast.feature) ->
          match f.Ast.fkind with
          | Ast.Port (Ast.In, (Ast.Event_port | Ast.Event_data_port), _) ->
              let has_conn =
                List.exists
                  (fun (sc : Semconn.t) ->
                    String.lowercase_ascii sc.Semconn.dst.Semconn.feature
                    = String.lowercase_ascii f.Ast.fname)
                  incoming
              in
              if not has_conn then
                add
                  (error th
                     "in event port %s of a non-periodic thread has no \
                      incoming connection"
                     f.Ast.fname)
          | Ast.Port _ | Ast.Data_access _ -> ())
        th.Instance.features
  | Some Props.Periodic | None -> ());
  List.rev !diags

let check_processor (proc : Instance.t) bound_threads =
  if bound_threads = [] then
    [
      warning proc
        "processor has no bound threads; it is ignored by the translation";
    ]
  else
    match Props.scheduling_protocol proc.Instance.props with
    | Some _ -> []
    | None -> [ error proc "missing Scheduling_Protocol" ]
    | exception Diag.Error d -> [ { d with subject = proc.Instance.path } ]

(* Structural well-formedness of each instance: unique child names,
   connection ends that resolve to features or subcomponents, unique mode
   names, transitions between declared modes. *)
let check_structure (inst : Instance.t) =
  let diags = ref [] in
  let add d = diags := d :: !diags in
  let lc = String.lowercase_ascii in
  (* duplicate subcomponent names *)
  let seen = Hashtbl.create 8 in
  List.iter
    (fun (c : Instance.t) ->
      let k = lc c.Instance.name in
      if Hashtbl.mem seen k then
        add
          (error ~loc:c.Instance.loc inst "duplicate subcomponent %s"
             c.Instance.name)
      else Hashtbl.add seen k ())
    inst.Instance.children;
  (* connection ends *)
  let end_ok (e : Ast.conn_end) =
    match e.Ast.ce_sub with
    | None ->
        (* own feature, or a data subcomponent named directly *)
        Instance.feature_opt inst e.Ast.ce_feature <> None
        || List.exists
             (fun (c : Instance.t) -> lc c.Instance.name = lc e.Ast.ce_feature)
             inst.Instance.children
    | Some sub -> (
        match
          List.find_opt
            (fun (c : Instance.t) -> lc c.Instance.name = lc sub)
            inst.Instance.children
        with
        | None -> false
        | Some child -> Instance.feature_opt child e.Ast.ce_feature <> None)
  in
  List.iter
    (fun (c : Ast.connection) ->
      let loc = c.Ast.conn_loc in
      if not (end_ok c.Ast.conn_src) then
        add
          (error ~loc inst "connection source %a does not resolve"
             Ast.pp_conn_end c.Ast.conn_src);
      if not (end_ok c.Ast.conn_dst) then
        add
          (error ~loc inst
             "connection destination %a does not resolve" Ast.pp_conn_end
             c.Ast.conn_dst))
    inst.Instance.connections;
  (* modes *)
  let mode_names =
    List.map (fun m -> lc m.Ast.mode_name) inst.Instance.modes
  in
  if
    List.length (List.sort_uniq String.compare mode_names)
    <> List.length mode_names
  then add (error inst "duplicate mode names");
  if
    List.length
      (List.filter (fun m -> m.Ast.mode_initial) inst.Instance.modes)
    > 1
  then add (error inst "several initial modes");
  List.iter
    (fun (t : Ast.mode_transition) ->
      let loc = t.Ast.mt_loc in
      if not (List.mem (lc t.Ast.mt_src) mode_names) then
        add
          (error ~loc inst "mode transition from unknown mode %s"
             t.Ast.mt_src);
      if not (List.mem (lc t.Ast.mt_dst) mode_names) then
        add
          (error ~loc inst "mode transition to unknown mode %s"
             t.Ast.mt_dst))
    inst.Instance.transitions;
  (* in-modes clauses of children must reference declared modes *)
  List.iter
    (fun (c : Instance.t) ->
      List.iter
        (fun m ->
          if not (List.mem (lc m) mode_names) then
            add
              (error c
                 "'in modes (%s)' references an undeclared mode" m))
        c.Instance.in_modes)
    inst.Instance.children;
  List.rev !diags

let run root =
  let threads = Instance.threads root in
  let processors = Instance.processors root in
  let global =
    (if threads = [] then
       [ error root "model contains no thread" ]
     else [])
    @
    if processors = [] then
      [ error root "model contains no processor" ]
    else []
  in
  let sconns = Semconn.resolve root in
  let thread_diags =
    List.concat_map
      (fun th ->
        try check_thread ~root sconns th
        with Diag.Error d -> [ { d with subject = th.Instance.path } ])
      threads
  in
  let proc_diags =
    List.concat_map
      (fun (proc, bound) -> check_processor proc bound)
      (Binding.threads_by_processor ~root)
  in
  let structure_diags =
    List.concat_map check_structure (Instance.all root)
  in
  global @ structure_diags @ thread_diags @ proc_diags

let pp_report ?file ppf diags =
  if diags = [] then Fmt.string ppf "model is well-formed"
  else Fmt.pf ppf "@[<v>%a@]" Fmt.(list ~sep:cut (Diag.pp ?file)) diags
