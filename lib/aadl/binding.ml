(* Resolution of deployment bindings: threads to processors
   (Actual_Processor_Binding) and semantic connections to buses
   (Actual_Connection_Binding).  Binding properties may be declared on the
   component itself, via contained associations in enclosing
   implementations (already merged by instantiation), or on the traversed
   declared connections. *)

let processor_of ~root (thread : Instance.t) =
  let props = thread.Instance.props in
  match Props.actual_processor_binding props with
  | None -> None
  | Some ref_path -> (
      let fail fmt =
        Diag.fail
          ?loc:(Props.loc_of "actual_processor_binding" props)
          ~subject:thread.Instance.path fmt
      in
      match
        Instance.resolve_reference ~root ~from:thread.Instance.path ref_path
      with
      | Some inst when inst.Instance.category = Ast.Processor -> Some inst
      | Some inst ->
          fail "processor binding resolves to a %a" Ast.pp_category
            inst.Instance.category
      | None ->
          fail "processor binding reference %a does not resolve"
            Instance.pp_path ref_path)

let processor_of_exn ~root thread =
  match processor_of ~root thread with
  | Some p -> p
  | None ->
      Diag.fail ~loc:thread.Instance.loc ~subject:thread.Instance.path
        "thread is not bound to a processor"

(* The bus a semantic connection is mapped to, if any: look at the binding
   property of each traversed declared connection (innermost declaration
   wins), resolving the reference from the declaring implementation. *)
let bus_of ~root (sc : Semconn.t) =
  let of_link (l : Semconn.link) =
    let props = l.Semconn.conn.Ast.conn_props in
    match Props.actual_connection_binding props with
    | None -> None
    | Some ref_path -> (
        let fail fmt =
          Diag.fail
            ?loc:(Props.loc_of "actual_connection_binding" props)
            ~subject:l.Semconn.declared_in fmt
        in
        match
          Instance.resolve_reference ~root ~from:l.Semconn.declared_in
            ref_path
        with
        | Some inst when inst.Instance.category = Ast.Bus -> Some inst
        | Some inst ->
            fail "connection binding resolves to a %a, not a bus" Ast.pp_category
              inst.Instance.category
        | None ->
            fail "connection binding reference %a does not resolve"
              Instance.pp_path ref_path)
  in
  List.fold_left
    (fun acc l -> match of_link l with Some b -> Some b | None -> acc)
    None sc.Semconn.links

(* Threads grouped by their bound processor, in instance order: the outer
   loop of the paper's Algorithm 1. *)
let threads_by_processor ~root =
  let threads = Instance.threads root in
  let procs = Instance.processors root in
  List.map
    (fun (proc : Instance.t) ->
      let bound =
        List.filter
          (fun th ->
            match processor_of ~root th with
            | Some p -> p.Instance.path = proc.Instance.path
            | None -> false)
          threads
      in
      (proc, bound))
    procs
