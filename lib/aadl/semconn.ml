(* Semantic connection resolution.

   A semantic connection starts at an ultimate source (a port of a thread
   or device instance), follows declared connections up the containment
   hierarchy through the ports of enclosing components, crosses one sibling
   connection, and descends to the ultimate destination (paper, Section 2).
   We implement this as reachability over the directed graph whose nodes
   are (instance path, feature) pairs and whose edges are the declared
   connections of every implementation in the instance tree. *)

type port_ref = { inst : string list; feature : string }

let pp_port_ref ppf r =
  if r.inst = [] then Fmt.string ppf r.feature
  else Fmt.pf ppf "%a.%s" Instance.pp_path r.inst r.feature

type link = { declared_in : string list; conn : Ast.connection }

type t = {
  kind : Ast.port_kind;  (** port kind of the ultimate source feature *)
  src : port_ref;
  dst : port_ref;
  links : link list;  (** traversed declared connections, source first *)
}

let pp ppf sc =
  Fmt.pf ppf "%a -> %a (%a, %d links)" pp_port_ref sc.src pp_port_ref sc.dst
    Ast.pp_port_kind sc.kind (List.length sc.links)

(* All property associations applying to the semantic connection: the
   properties of each traversed declared connection, source link first. *)
let props sc = List.concat_map (fun l -> l.conn.Ast.conn_props) sc.links

let lc = String.lowercase_ascii
let node_key (path, feature) = (List.map lc path, lc feature)

(* Where does a connection end refer to, seen from instance [inst]? *)
let end_node (inst : Instance.t) (e : Ast.conn_end) =
  match e.Ast.ce_sub with
  | Some sub -> (inst.Instance.path @ [ sub ], e.Ast.ce_feature)
  | None -> (inst.Instance.path, e.Ast.ce_feature)

type graph = {
  edges : ((string list * string), (string list * string) * link) Hashtbl.t;
  root : Instance.t;
}

let build_graph root =
  let edges = Hashtbl.create 64 in
  Instance.iter
    (fun inst ->
      List.iter
        (fun (conn : Ast.connection) ->
          match conn.Ast.conn_kind with
          | Ast.Access_connection -> ()
          | Ast.Port_connection ->
              let src = end_node inst conn.Ast.conn_src in
              let dst = end_node inst conn.Ast.conn_dst in
              let link = { declared_in = inst.Instance.path; conn } in
              Hashtbl.add edges (node_key src) (dst, link);
              if conn.Ast.conn_bidirectional then
                Hashtbl.add edges (node_key dst) (src, link))
        inst.Instance.connections)
    root;
  { edges; root }

let _port_kind_of root (path, feature) =
  match Instance.find root path with
  | None -> None
  | Some inst -> (
      match Instance.feature_opt inst feature with
      | Some { Ast.fkind = Ast.Port (_, kind, _); _ } -> Some kind
      | Some { Ast.fkind = Ast.Data_access _; _ } | None -> None)

let is_ultimate_endpoint root (path, _feature) =
  match Instance.find root path with
  | Some inst -> Instance.is_thread_or_device inst
  | None -> false

(* Depth-first search from an ultimate source node, collecting every
   complete chain that reaches an ultimate destination. *)
let chains_from g start =
  let rec go node links visited acc =
    if List.mem (node_key node) visited then acc
    else
      let nexts = Hashtbl.find_all g.edges (node_key node) in
      List.fold_left
        (fun acc (next, link) ->
          let links' = links @ [ link ] in
          if is_ultimate_endpoint g.root next then (next, links') :: acc
          else go next links' (node_key node :: visited) acc)
        acc nexts
  in
  go start [] [] []

let resolve root =
  let g = build_graph root in
  let sources =
    List.concat_map
      (fun inst ->
        List.filter_map
          (fun (f : Ast.feature) ->
            match f.Ast.fkind with
            | Ast.Port ((Ast.Out | Ast.In_out), kind, _) ->
                Some (inst, f.Ast.fname, kind)
            | Ast.Port (Ast.In, _, _) | Ast.Data_access _ -> None)
          inst.Instance.features)
      (List.filter Instance.is_thread_or_device (Instance.all root))
  in
  List.concat_map
    (fun (inst, feature, kind) ->
      let start = (inst.Instance.path, feature) in
      List.rev_map
        (fun ((dst_path, dst_feature), links) ->
          {
            kind;
            src = { inst = inst.Instance.path; feature };
            dst = { inst = dst_path; feature = dst_feature };
            links;
          })
        (chains_from g start))
    sources

(* {1 Classification} *)

(* Event-like connections dispatch aperiodic/sporadic destinations and are
   queued; pure data connections are not (paper, Sections 4.3-4.4). *)
let is_event_like sc =
  match sc.kind with
  | Ast.Event_port | Ast.Event_data_port -> true
  | Ast.Data_port -> false

let same_path a b = List.map lc a = List.map lc b

let incoming sc_list (thread : Instance.t) =
  List.filter (fun sc -> same_path sc.dst.inst thread.Instance.path) sc_list

let outgoing sc_list (thread : Instance.t) =
  List.filter (fun sc -> same_path sc.src.inst thread.Instance.path) sc_list

(* The feature at the ultimate destination: its Queue_Size and
   Overflow_Handling_Protocol properties govern the queue process
   ("the last port of the connection", Section 4.4). *)
let dst_feature root sc =
  match Instance.find root sc.dst.inst with
  | None -> None
  | Some inst -> Instance.feature_opt inst sc.dst.feature

let src_feature root sc =
  match Instance.find root sc.src.inst with
  | None -> None
  | Some inst -> Instance.feature_opt inst sc.src.feature

(* A stable human-readable name for the semantic connection, used for ACSR
   label generation and trace raising. *)
let name sc =
  Fmt.str "%s_%s__%s_%s"
    (String.concat "_" sc.src.inst)
    sc.src.feature
    (String.concat "_" sc.dst.inst)
    sc.dst.feature

(* {1 Semantic access connections} *)

type access = {
  thread : string list;  (** requiring thread instance *)
  access_feature : string;
  data : string list;  (** the shared data component instance *)
  access_props : Ast.prop list;
}

let resolve_access root =
  (* Build an undirected reachability over access connections: ends may
     name a data subcomponent directly or an access feature. *)
  let edges = Hashtbl.create 16 in
  Instance.iter
    (fun inst ->
      List.iter
        (fun (conn : Ast.connection) ->
          match conn.Ast.conn_kind with
          | Ast.Port_connection -> ()
          | Ast.Access_connection ->
              let a = end_node inst conn.Ast.conn_src in
              let b = end_node inst conn.Ast.conn_dst in
              Hashtbl.add edges (node_key a) (b, conn);
              Hashtbl.add edges (node_key b) (a, conn))
        inst.Instance.connections)
    root;
  (* a node denotes a data component when (path@[feature]) resolves to a
     Data instance *)
  let as_data (path, feature) =
    match Instance.find root (path @ [ feature ]) with
    | Some i when i.Instance.category = Ast.Data -> Some i
    | _ -> None
  in
  let threads = Instance.threads root in
  List.concat_map
    (fun (th : Instance.t) ->
      List.concat_map
        (fun (f : Ast.feature) ->
          match f.Ast.fkind with
          | Ast.Data_access (Ast.In, _) ->
              let start = (th.Instance.path, f.Ast.fname) in
              let rec bfs frontier visited found props =
                match frontier with
                | [] -> (found, props)
                | node :: rest ->
                    if List.mem (node_key node) visited then
                      bfs rest visited found props
                    else
                      let nexts = Hashtbl.find_all edges (node_key node) in
                      let found, props =
                        List.fold_left
                          (fun (found, props) (next, conn) ->
                            match as_data next with
                            | Some d ->
                                ( d.Instance.path :: found,
                                  props @ conn.Ast.conn_props )
                            | None -> (found, props @ conn.Ast.conn_props))
                          (found, props) nexts
                      in
                      bfs
                        (rest @ List.map fst nexts)
                        (node_key node :: visited)
                        found props
              in
              let datas, props = bfs [ start ] [] [] [] in
              List.map
                (fun data ->
                  {
                    thread = th.Instance.path;
                    access_feature = f.Ast.fname;
                    data;
                    access_props = props;
                  })
                datas
          | Ast.Data_access ((Ast.Out | Ast.In_out), _) | Ast.Port _ -> [])
        th.Instance.features)
    threads
