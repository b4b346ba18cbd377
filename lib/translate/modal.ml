(* Mode support — an extension beyond the paper's translation scope.

   The paper describes AADL modes (Section 2: active components change
   during execution in response to events; the standard prescribes
   activation/deactivation rules) but explicitly omits them from the
   translation (Section 4.1: "we do not discuss handling of modes ...
   which is, in general, quite involved").  We implement the single-modal-
   component case:

   - exactly one component of the instance tree declares modes; its
     subcomponents carry [in modes (...)] activity clauses, which
     propagate to the threads below them;
   - a mode transition [m1 -[ sub.port ]-> m2] is triggered by an event
     raised on an out event port of a thread or device subcomponent, or
     by the environment for ports with no internal source;
   - the generated *mode manager* process tracks the current mode; when a
     trigger fires it delivers deactivation events to the threads leaving
     the mode and activation events to the threads entering it, urgently
     but patiently (it idles until each dispatcher can accept, so a thread
     completes its current dispatch before deactivating, per the
     standard's rules);
   - dispatchers are gated: an inactive thread is not dispatched; its
     dispatcher waits in an Inactive state for the activation event.

   Connections with [in modes] clauses are not interpreted (the connection
   is treated as present in all modes); multi-modal hierarchies are
   rejected. *)

open Acsr

type trigger =
  | Internal of { source : string list; port : string; label : Label.t }
      (** raised by a thread during computation *)
  | Environment of { port : string; label : Label.t }
      (** no internal source: the environment may raise it at any time *)
  | Device_source of {
      source : string list;
      port : string;
      label : Label.t;
      period : int option;
    }

type transition = { src : string; dst : string; triggers : trigger list }

type t = {
  host : Aadl.Instance.t;
  mode_names : string list;
  initial : string;
  transitions : transition list;
  (* thread path -> modes in which it is active (empty = all) *)
  thread_activity : (string list * string list) list;
}

let lc = String.lowercase_ascii
let lc_path = List.map lc

(* {1 Detection} *)

let find root =
  match List.filter Aadl.Instance.is_modal (Aadl.Instance.all root) with
  | [] -> None
  | [ host ] -> Some host
  | hosts ->
      Aadl.Diag.fail "several modal components (%a): only one is supported"
        Fmt.(
          list ~sep:comma (fun ppf (i : Aadl.Instance.t) ->
              Aadl.Instance.pp_path ppf i.Aadl.Instance.path))
        hosts

(* The modes in which a thread below the modal component is active: the
   [in modes] clause of the subcomponent of [host] on the path to the
   thread.  Deeper [in modes] clauses are not interpreted. *)
let thread_modes ~(host : Aadl.Instance.t) (thread : Aadl.Instance.t) =
  let hp = lc_path host.Aadl.Instance.path in
  let tp = lc_path thread.Aadl.Instance.path in
  let rec strip_prefix pre l =
    match (pre, l) with
    | [], rest -> Some rest
    | p :: pre', x :: l' when p = x -> strip_prefix pre' l'
    | _ -> None
  in
  match strip_prefix hp tp with
  | None | Some [] -> [] (* not below the modal component: always active *)
  | Some (first :: deeper) -> (
      (* reject uninterpreted deeper clauses *)
      let rec check_deeper (inst : Aadl.Instance.t) = function
        | [] -> ()
        | seg :: rest -> (
            match
              List.find_opt
                (fun c -> lc c.Aadl.Instance.name = seg)
                inst.Aadl.Instance.children
            with
            | Some child ->
                if child.Aadl.Instance.in_modes <> [] then
                  Aadl.Diag.fail ~loc:child.Aadl.Instance.loc
                    ~subject:child.Aadl.Instance.path
                    "nested 'in modes' below the modal component is not \
                     supported";
                check_deeper child rest
            | None -> ())
      in
      match
        List.find_opt
          (fun c -> lc c.Aadl.Instance.name = first)
          host.Aadl.Instance.children
      with
      | Some child ->
          check_deeper child deeper;
          child.Aadl.Instance.in_modes
      | None -> [])

(* {1 Trigger resolution} *)

let trigger_label ~(host : Aadl.Instance.t) (ce : Aadl.Ast.conn_end) =
  let base =
    match ce.Aadl.Ast.ce_sub with
    | Some sub -> Naming.of_path (host.Aadl.Instance.path @ [ sub ]) ^ "_" ^ ce.Aadl.Ast.ce_feature
    | None -> Naming.of_path host.Aadl.Instance.path ^ "_" ^ ce.Aadl.Ast.ce_feature
  in
  Label.make ("modetrig_" ^ Naming.sanitize base)

let resolve_trigger ~root ~(host : Aadl.Instance.t) ~quantum ~loc
    (ce : Aadl.Ast.conn_end) =
  let label = trigger_label ~host ce in
  match ce.Aadl.Ast.ce_sub with
  | None -> Environment { port = ce.Aadl.Ast.ce_feature; label }
  | Some sub -> (
      let path = host.Aadl.Instance.path @ [ sub ] in
      match Aadl.Instance.find root path with
      | None ->
          Aadl.Diag.fail ~loc ~subject:host.Aadl.Instance.path
            "mode transition trigger %s.%s does not resolve" sub
            ce.Aadl.Ast.ce_feature
      | Some inst -> (
          match inst.Aadl.Instance.category with
          | Aadl.Ast.Thread ->
              Internal { source = path; port = ce.Aadl.Ast.ce_feature; label }
          | Aadl.Ast.Device ->
              let period =
                Option.map
                  (Aadl.Time.to_quanta_floor ~quantum)
                  (Aadl.Props.period inst.Aadl.Instance.props)
              in
              Device_source
                { source = path; port = ce.Aadl.Ast.ce_feature; label; period }
          | c ->
              Aadl.Diag.fail ~loc ~subject:host.Aadl.Instance.path
                "mode transition trigger %s.%s is a %a; only thread and \
                 device triggers are supported"
                sub ce.Aadl.Ast.ce_feature Aadl.Ast.pp_category c))

(* Mode names are AADL identifiers, so case-insensitive: they are
   lowercased once here, and every generated name and comparison below
   uses the lowercased spelling. *)
let analyze ~root ~quantum (host : Aadl.Instance.t) : t =
  let subject = host.Aadl.Instance.path in
  let mode_names =
    List.map (fun m -> lc m.Aadl.Ast.mode_name) host.Aadl.Instance.modes
  in
  let initial =
    match Aadl.Instance.initial_mode host with
    | Some m -> lc m
    | None ->
        Aadl.Diag.fail ~loc:host.Aadl.Instance.loc ~subject
          "modal component without modes"
  in
  let mode ~loc m =
    if not (List.mem (lc m) mode_names) then
      Aadl.Diag.fail ~loc ~subject "mode transition references unknown mode %s"
        m;
    lc m
  in
  let transitions =
    List.map
      (fun (mt : Aadl.Ast.mode_transition) ->
        let loc = mt.Aadl.Ast.mt_loc in
        {
          src = mode ~loc mt.Aadl.Ast.mt_src;
          dst = mode ~loc mt.Aadl.Ast.mt_dst;
          triggers =
            List.map
              (resolve_trigger ~root ~host ~quantum ~loc)
              mt.Aadl.Ast.mt_triggers;
        })
      host.Aadl.Instance.transitions
  in
  let thread_activity =
    List.map
      (fun th -> (th.Aadl.Instance.path, thread_modes ~host th))
      (Aadl.Instance.threads root)
  in
  { host; mode_names; initial; transitions; thread_activity }

let active_in t ~mode ~thread =
  match
    List.find_opt (fun (p, _) -> lc_path p = lc_path thread) t.thread_activity
  with
  | Some (_, []) -> true
  | Some (_, modes) -> List.exists (fun m -> lc m = lc mode) modes
  | None -> true

let initially_active t ~thread = active_in t ~mode:t.initial ~thread

let restricted_threads t =
  List.filter_map
    (fun (p, modes) -> if modes = [] then None else Some p)
    t.thread_activity

(* Trigger ports raised by a given thread (for the skeleton's event
   self-loops). *)
let internal_triggers_of t ~thread =
  List.concat_map
    (fun tr ->
      List.filter_map
        (function
          | Internal { source; label; _ } when lc_path source = lc_path thread
            ->
              Some label
          | Internal _ | Environment _ | Device_source _ -> None)
        tr.triggers)
    t.transitions
  |> List.sort_uniq Stdlib.compare

(* {1 Generated processes} *)

let manager_name t mode =
  "MM_" ^ Naming.of_path t.host.Aadl.Instance.path ^ "_" ^ Naming.sanitize mode

let switch_name t src dst step =
  Fmt.str "MMsw_%s_%s_%s_%d"
    (Naming.of_path t.host.Aadl.Instance.path)
    (Naming.sanitize src) (Naming.sanitize dst) step

let activate_label thread = Label.make ("activate_" ^ Naming.of_path thread)

let deactivate_label thread =
  Label.make ("deactivate_" ^ Naming.of_path thread)

type generated = {
  defs : (string * string list * Proc.t) list;
  initial : Proc.t;
  stimuli : (string * string list * Proc.t) list;
  stimuli_initials : Proc.t list;
  internal_labels : Label.t list;
}

(* The control events delivered during the switch src -> dst, in order:
   deactivations first, then activations. *)
let switch_controls t ~src ~dst =
  let deact =
    List.filter
      (fun p -> active_in t ~mode:src ~thread:p && not (active_in t ~mode:dst ~thread:p))
      (restricted_threads t)
  in
  let act =
    List.filter
      (fun p -> (not (active_in t ~mode:src ~thread:p)) && active_in t ~mode:dst ~thread:p)
      (restricted_threads t)
  in
  List.map deactivate_label deact @ List.map activate_label act

let generate ~(registry : Naming.registry) (t : t) : generated =
  (* switch sequences: deliver each control event urgently but patiently *)
  let switch_defs = ref [] in
  let transition_branches_of mode =
    List.filter_map
      (fun tr ->
        if tr.src <> mode then None
        else begin
          let controls = switch_controls t ~src:tr.src ~dst:tr.dst in
          let n = List.length controls in
          (* define MMsw_src_dst_k for k = 0..n-1 *)
          List.iteri
            (fun k control ->
              let next =
                if k = n - 1 then Proc.call (manager_name t tr.dst) []
                else Proc.call (switch_name t tr.src tr.dst (k + 1)) []
              in
              let body =
                Proc.choice
                  (Proc.send ~prio:(Expr.Int 1) control next)
                  (Proc.act Action.idle
                     (Proc.call (switch_name t tr.src tr.dst k) []))
              in
              switch_defs :=
                (switch_name t tr.src tr.dst k, [], body) :: !switch_defs)
            controls;
          let target =
            if n = 0 then Proc.call (manager_name t tr.dst) []
            else Proc.call (switch_name t tr.src tr.dst 0) []
          in
          (* one branch per trigger of this transition; the label may be
             shared by several transitions, so the registry entry names
             the triggering port, not a direction *)
          Some
            (List.map
               (fun trig ->
                 let label, description =
                   match trig with
                   | Internal { source; port; label } ->
                       ( label,
                         Fmt.str "triggered by %s.%s"
                           (Aadl.Instance.path_to_string source)
                           port )
                   | Environment { port; label } ->
                       (label, Fmt.str "triggered by environment port %s" port)
                   | Device_source { source; port; label; _ } ->
                       ( label,
                         Fmt.str "triggered by device %s.%s"
                           (Aadl.Instance.path_to_string source)
                           port )
                 in
                 Naming.register registry (Label.name label)
                   (Naming.Mode_trigger description);
                 Proc.receive label target)
               tr.triggers)
        end)
      t.transitions
    |> List.concat
  in
  let manager_defs =
    List.map
      (fun mode ->
        let branches = transition_branches_of mode in
        let body =
          Proc.choice_list
            (branches
            @ [ Proc.act Action.idle (Proc.call (manager_name t mode) []) ])
        in
        (manager_name t mode, [], body))
      t.mode_names
  in
  (* environment / device stimuli for triggers without a thread source *)
  let stim_defs = ref [] and stim_inits = ref [] in
  List.iter
    (fun tr ->
      List.iter
        (function
          | Internal _ -> ()
          | Environment { port; label } ->
              let sname =
                "StimMode_" ^ Naming.sanitize port ^ "_"
                ^ Naming.of_path t.host.Aadl.Instance.path
              in
              if not (List.exists (fun (n, _, _) -> n = sname) !stim_defs) then begin
                let body =
                  Proc.choice
                    (Proc.send label (Proc.call sname []))
                    (Proc.act Action.idle (Proc.call sname []))
                in
                stim_defs := (sname, [], body) :: !stim_defs;
                stim_inits := Proc.call sname [] :: !stim_inits
              end
          | Device_source { source; port; label; period } -> (
              let sname = Naming.stimulus source port in
              if not (List.exists (fun (n, _, _) -> n = sname) !stim_defs)
              then
                match period with
                | Some p when p > 0 ->
                    let var_k = Expr.Var "k" in
                    let body =
                      Proc.choice
                        (Proc.if_
                           Guard.(ge var_k (Expr.Int p))
                           (Proc.send ~prio:(Expr.Int 1) label
                              (Proc.call sname [ Expr.Int 0 ])))
                        (Proc.if_
                           Guard.(lt var_k (Expr.Int p))
                           (Proc.act Action.idle
                              (Proc.call sname
                                 [ Expr.Add (var_k, Expr.Int 1) ])))
                    in
                    stim_defs := (sname, [ "k" ], body) :: !stim_defs;
                    stim_inits := Proc.call sname [ Expr.Int p ] :: !stim_inits
                | Some _ | None ->
                    let body =
                      Proc.choice
                        (Proc.send label (Proc.call sname []))
                        (Proc.act Action.idle (Proc.call sname []))
                    in
                    stim_defs := (sname, [], body) :: !stim_defs;
                    stim_inits := Proc.call sname [] :: !stim_inits))
        tr.triggers)
    t.transitions;
  (* registry entries for activation control events *)
  List.iter
    (fun p ->
      Naming.register_label registry (activate_label p) (Naming.Activate_of p);
      Naming.register_label registry (deactivate_label p)
        (Naming.Deactivate_of p))
    (restricted_threads t);
  let control_labels =
    List.concat_map
      (fun p -> [ activate_label p; deactivate_label p ])
      (restricted_threads t)
  in
  let trigger_labels =
    List.concat_map
      (fun tr ->
        List.map
          (function
            | Internal { label; _ }
            | Environment { label; _ }
            | Device_source { label; _ } ->
                label)
          tr.triggers)
      t.transitions
  in
  {
    defs = manager_defs @ List.rev !switch_defs;
    initial = Proc.call (manager_name t t.initial) [];
    stimuli = List.rev !stim_defs;
    stimuli_initials = List.rev !stim_inits;
    internal_labels =
      List.sort_uniq Stdlib.compare (control_labels @ trigger_labels);
  }
