(* Instantiation: expand a root system implementation into an instance
   tree, merging property associations with AS5506 precedence (component
   type < implementation < subcomponent < contained associations declared
   by enclosing implementations). *)

(* Contained property associations still traveling down the tree: relative
   path from the current instance paired with the association. *)
type inbox = (string list * Ast.prop) list

let lc = String.lowercase_ascii

let split_inbox (inbox : inbox) child_name =
  List.filter_map
    (fun (path, prop) ->
      match path with
      | first :: rest when lc first = lc child_name -> Some (rest, prop)
      | _ -> None)
    inbox

let arrived (inbox : inbox) =
  List.filter_map (fun (path, prop) -> if path = [] then Some prop else None)
    inbox

(* Deliver applies-to associations addressed at connection names of this
   implementation into the connections themselves. *)
let attach_connection_props conns (inbox : inbox) =
  List.map
    (fun (c : Ast.connection) ->
      match c.Ast.conn_name with
      | None -> c
      | Some n ->
          let extra =
            List.filter_map
              (fun (path, prop) ->
                match path with
                | [ single ] when lc single = lc n -> Some prop
                | _ -> None)
              inbox
          in
          { c with Ast.conn_props = c.Ast.conn_props @ extra })
    conns

let rec build decls ~name ~path ~category ~classifier_name
    ~(sub_props : Ast.prop list) ~(in_modes : string list) ~(inbox : inbox)
    ~depth ~loc : Instance.t =
  if depth > 64 then
    Diag.fail ~loc ~subject:path
      "instantiation exceeds depth 64: classifier cycle?";
  let ct, ci =
    match classifier_name with
    | None -> (None, None)
    | Some cls -> (
        match Decls.resolve_classifier decls cls with
        | Some (Decls.Type_only ct) -> (Some ct, None)
        | Some (Decls.Type_and_impl (ct, ci)) -> (Some ct, Some ci)
        | None -> Diag.fail ~loc ~subject:path "unknown classifier %s" cls)
  in
  (match ct with
  | Some ct when ct.Ast.ct_category <> category ->
      Diag.fail ~loc ~subject:path "declared as %a but classifier %s is a %a"
        Ast.pp_category category (Option.get classifier_name) Ast.pp_category
        ct.Ast.ct_category
  | Some _ | None -> ());
  let features = match ct with Some ct -> ct.Ast.ct_features | None -> [] in
  let type_props = match ct with Some ct -> ct.Ast.ct_props | None -> [] in
  let impl_own_props, impl_contained =
    match ci with
    | None -> ([], [])
    | Some ci ->
        List.partition (fun p -> p.Ast.applies_to = []) ci.Ast.ci_props
  in
  let sub_own_props, sub_contained =
    List.partition (fun p -> p.Ast.applies_to = []) sub_props
  in
  (* contained associations declared here, exploded one path per entry *)
  let new_inbox : inbox =
    List.concat_map
      (fun p -> List.map (fun path -> (path, p)) p.Ast.applies_to)
      (impl_contained @ sub_contained)
  in
  let inbox_here = inbox @ new_inbox in
  let props =
    type_props @ impl_own_props @ sub_own_props @ arrived inbox_here
  in
  let connections =
    match ci with
    | None -> []
    | Some ci -> attach_connection_props ci.Ast.ci_connections inbox_here
  in
  let modes = match ci with Some ci -> ci.Ast.ci_modes | None -> [] in
  let transitions =
    match ci with Some ci -> ci.Ast.ci_transitions | None -> []
  in
  let children =
    match ci with
    | None -> []
    | Some ci ->
        List.map
          (fun (sub : Ast.subcomponent) ->
            let child_inbox = split_inbox inbox_here sub.Ast.sub_name in
            build decls ~name:sub.Ast.sub_name
              ~path:(path @ [ sub.Ast.sub_name ])
              ~category:sub.Ast.sub_category
              ~classifier_name:sub.Ast.sub_classifier
              ~sub_props:sub.Ast.sub_props
              ~in_modes:sub.Ast.sub_modes ~inbox:child_inbox
              ~depth:(depth + 1) ~loc:sub.Ast.sub_loc)
          ci.Ast.ci_subcomponents
  in
  {
    Instance.name;
    path;
    category;
    classifier = classifier_name;
    features;
    props;
    connections;
    modes;
    transitions;
    in_modes;
    children;
    loc;
  }

let instantiate (model : Ast.model) ~root : Instance.t =
  let decls = Decls.of_model model in
  let ci =
    match Decls.find_impl_opt decls root with
    | Some ci -> ci
    | None -> (
        (* accept a bare type name if it has exactly one implementation *)
        match
          List.filter
            (fun ci -> lc ci.Ast.ci_type_name = lc root)
            (Decls.impls decls)
        with
        | [ ci ] -> ci
        | [] -> Diag.fail "no implementation named %s" root
        | _ -> Diag.fail "type %s has several implementations; name one" root)
  in
  build decls
    ~name:(Ast.impl_full_name ci)
    ~path:[] ~category:ci.Ast.ci_category
    ~classifier_name:(Some (Ast.impl_full_name ci))
    ~sub_props:[] ~in_modes:[] ~inbox:[] ~depth:0 ~loc:ci.Ast.ci_loc

let of_string ?root text =
  let model = Parser.parse_string text in
  let root =
    match root with
    | Some r -> r
    | None -> (
        (* default: the unique system implementation that is not used as a
           subcomponent anywhere (the topmost one) *)
        let decls = Decls.of_model model in
        let impls = Decls.impls decls in
        let used = Hashtbl.create 16 in
        List.iter
          (fun ci ->
            List.iter
              (fun (s : Ast.subcomponent) ->
                match s.Ast.sub_classifier with
                | Some c -> Hashtbl.replace used (lc c) ()
                | None -> ())
              ci.Ast.ci_subcomponents)
          impls;
        let roots =
          List.filter
            (fun ci ->
              ci.Ast.ci_category = Ast.System
              && (not (Hashtbl.mem used (lc (Ast.impl_full_name ci)))))
            impls
        in
        match roots with
        | [ ci ] -> Ast.impl_full_name ci
        | [] -> Diag.fail "no root system implementation found"
        | _ -> Diag.fail "several candidate root systems; name one as the root")
  in
  instantiate model ~root
