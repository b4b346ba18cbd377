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

(* {1 A model's deployment, resolved once}

   The legality checks and the workload extraction read the same
   bindings and connections.  They are resolved here, once per model,
   and both consumers read the result.  A binding that does not resolve
   is kept as its diagnostic: the checks report it against its thread,
   and the extraction raises it when it reaches that thread. *)

type t = {
  root : Instance.t;
  threads : Instance.t list;
  processors : Instance.t list;
  sconns : Semconn.t list;
  accesses : Semconn.access list;
  bound : (Instance.t option, Diag.t) result list;
}

let resolve root =
  let all = Instance.all root in
  let threads = List.filter (fun i -> i.Instance.category = Ast.Thread) all in
  {
    root;
    threads;
    processors = List.filter (fun i -> i.Instance.category = Ast.Processor) all;
    sconns = Semconn.resolve root;
    accesses = Semconn.resolve_access root;
    bound =
      List.map
        (fun th ->
          match processor_of ~root th with
          | p -> Ok p
          | exception Diag.Error d -> Error d)
        threads;
  }

(* Threads grouped by their bound processor, in instance order: the outer
   loop of the paper's Algorithm 1.  When there is a processor, the first
   thread whose binding does not resolve rejects the model. *)
let threads_by_processor b =
  if b.processors <> [] then
    List.iter (function Error d -> raise (Diag.Error d) | Ok _ -> ()) b.bound;
  List.map
    (fun (proc : Instance.t) ->
      let on_proc th = function
        | Ok (Some (p : Instance.t)) when p.Instance.path = proc.Instance.path ->
            Some th
        | Ok _ | Error _ -> None
      in
      (proc, List.filter_map Fun.id (List.map2 on_proc b.threads b.bound)))
    b.processors
