(* The translation of AADL instance models into ACSR (paper, Algorithm 1),
   factored through the fragment IR:

     plan    (Fragment.plan)   check the model, derive one content-hashed
                               spec per translation unit;
     realize (Fragment.realize or Fragment_cache.find_or_realize)
                               generate — or reuse — each unit's ACSR;
     compose (of_plan)         merge definitions, replay registry
                               entries, restrict the union of internal
                               labels over the parallel composition.

   The composed system is identical to what the former monolithic
   translation produced: fragments are realized and composed in model
   order, each against a fresh registry whose entries are replayed into
   the composed one.  The resulting closed term is deadlock-free iff
   every thread meets its deadline (Section 5). *)

open Acsr

type t = {
  workload : Workload.t;
  defs : Defs.t;
  system : Proc.t;  (** the closed composition to analyze *)
  registry : Naming.registry;
  restricted : Label.Set.t;
  assignments : (string list * Sched_policy.assignment list) list;
      (** per-processor priority assignments *)
  fragments : Fragment.t list;  (** in composition order *)
  fragments_reused : int;
      (** units served from the {!Fragment_cache} instead of re-generated *)
  symmetry : Symmetry.spec;
      (** interchangeable-thread orbit classes over the composition's
          parallel slots; {!Symmetry.empty} when no two units are
          interchangeable *)
  num_thread_processes : int;
  num_dispatchers : int;
  num_queues : int;
  num_stimuli : int;
}

type observer = Fragment.observer = {
  from_thread : string list;
  to_thread : string list;
  bound : Aadl.Time.t;
}

type options = Fragment.options = {
  quantum : Aadl.Time.t option;
  force_protocol : Aadl.Props.scheduling_protocol option;
  observer : observer option;
}

let default_options = Fragment.default_options

module Metrics = struct
  let plans =
    Obs.Counter.make ~help:"Translation plans derived from instance models"
      "translate_plans_total"

  let reused =
    Obs.Counter.make
      ~help:"Translation units served from the fragment cache"
      "translate_fragments_reused_total"

  let realized =
    Obs.Counter.make ~help:"Translation units generated from scratch"
      "translate_fragments_realized_total"
end

let plan ?options root =
  Obs.Counter.incr Metrics.plans;
  Obs.Span.with_ ~name:"translate.plan" (fun () -> Fragment.plan ?options root)

(* {2 Orbit detection}

   Thread fragments whose symmetry digests agree are *candidates* for
   being interchangeable; the claim is then verified structurally: a
   positional renaming is built between the member's generated names
   (its definition names and restricted labels) and the representative's,
   and the member's definitions and initial processes must become
   literally equal to the representative's under it.  Names the renaming
   does not cover (probe labels, queue labels, modal gates, ...) make the
   equality fail, so merging degrades conservatively to "no symmetry"
   rather than ever producing an unsound spec. *)

let rec proc_has_par (p : Proc.t) =
  match p with
  | Proc.Par _ -> true
  | Proc.Nil | Proc.Call _ -> false
  | Proc.Act (_, k) | Proc.Ev (_, k) | Proc.Restrict (_, k)
  | Proc.Close (_, k)
  | Proc.If (_, k) ->
      proc_has_par k
  | Proc.Choice (a, b) -> proc_has_par a || proc_has_par b
  | Proc.Scope s ->
      proc_has_par s.body || proc_has_par s.timeout
      || (match s.exc with Some (_, h) -> proc_has_par h | None -> false)
      || match s.interrupt with Some i -> proc_has_par i | None -> false

let fragment_has_par (f : Fragment.t) =
  List.exists (fun (_, _, body) -> proc_has_par body) f.Fragment.defs
  || List.exists proc_has_par f.Fragment.initials

let all_distinct names =
  List.length (List.sort_uniq String.compare names) = List.length names

let fragment_names (f : Fragment.t) =
  ( List.map (fun (n, _, _) -> n) f.Fragment.defs,
    List.map Label.name f.Fragment.restricted )

let verify_member ~(rep : Fragment.t) (f : Fragment.t) =
  let rep_defs, rep_labels = fragment_names rep in
  let f_defs, f_labels = fragment_names f in
  if
    List.length f_defs <> List.length rep_defs
    || List.length f_labels <> List.length rep_labels
    || List.length f.Fragment.initials <> List.length rep.Fragment.initials
    || not (all_distinct f_defs && all_distinct f_labels)
  then false
  else
    let to_rep =
      Symmetry.renaming
        ~labels:(List.combine f_labels rep_labels)
        ~calls:(List.combine f_defs rep_defs)
    in
    let defs_ok =
      List.for_all2
        (fun (_, formals, body) (_, rformals, rbody) ->
          formals = rformals
          && Proc.equal (Symmetry.apply_proc to_rep body) rbody)
        f.Fragment.defs rep.Fragment.defs
    in
    let initials_ok =
      List.for_all2
        (fun i ri -> Proc.equal (Symmetry.apply_proc to_rep i) ri)
        f.Fragment.initials rep.Fragment.initials
    in
    defs_ok && initials_ok

let detect_symmetry (fragments : Fragment.t list) : Symmetry.spec =
  if List.exists fragment_has_par fragments then Symmetry.empty
  else begin
    (* slot offset of each fragment in the flattened composition *)
    let offsets =
      List.rev
        (fst
           (List.fold_left
              (fun (acc, off) f ->
                ((f, off) :: acc, off + List.length f.Fragment.initials))
              ([], 0) fragments))
    in
    let slots =
      List.fold_left
        (fun n f -> n + List.length f.Fragment.initials)
        0 fragments
    in
    let groups = Hashtbl.create 8 in
    List.iter
      (fun ((f : Fragment.t), off) ->
        if f.Fragment.kind = Fragment.Thread_unit then begin
          let key = f.Fragment.sym_digest in
          let prev = Option.value ~default:[] (Hashtbl.find_opt groups key) in
          Hashtbl.replace groups key ((f, off) :: prev)
        end)
      offsets;
    let classes =
      Hashtbl.fold
        (fun _ members acc ->
          match List.rev members with
          | ((rep, rep_off) :: rest) when rest <> [] ->
              let rep_defs, rep_labels = fragment_names rep in
              if not (all_distinct rep_defs && all_distinct rep_labels) then
                acc
              else begin
                let member (f, offset) =
                  let calls, labels = fragment_names f in
                  Symmetry.member ~offset
                    ~width:(List.length f.Fragment.initials)
                    ~labels:(Array.of_list labels) ~calls:(Array.of_list calls)
                in
                match List.filter (fun (f, _) -> verify_member ~rep f) rest with
                | [] -> acc
                | verified ->
                    let members = (rep, rep_off) :: verified in
                    (rep_off, Symmetry.cls (List.map member members)) :: acc
              end
          | _ -> acc)
        groups []
      (* Hashtbl.fold order is unspecified; fix class order by slot *)
      |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
      |> List.map snd
    in
    if classes = [] then Symmetry.empty else Symmetry.make ~slots classes
  end

let of_plan ?(cache : Fragment_cache.t option) (p : Fragment.plan) : t =
  Obs.Span.with_ ~name:"translate.compose" @@ fun () ->
  let realized =
    List.map
      (fun spec ->
        Obs.Span.with_ ~name:"translate.realize"
          ~attrs:[ ("unit", Fragment.spec_id spec) ]
          (fun () ->
            match cache with
            | Some c -> Fragment_cache.find_or_realize c spec
            | None -> (Fragment.realize spec, false)))
      p.Fragment.specs
  in
  let fragments = List.map fst realized in
  let fragments_reused =
    List.fold_left (fun n (_, reused) -> if reused then n + 1 else n) 0 realized
  in
  Obs.Counter.incr ~by:fragments_reused Metrics.reused;
  Obs.Counter.incr
    ~by:(List.length realized - fragments_reused)
    Metrics.realized;
  (* definitions environment *)
  let add_defs env (name, formals, body) =
    try Defs.add env ~name ~formals body
    with Defs.Duplicate n ->
      Aadl.Diag.fail "duplicate generated process %s" n
  in
  let defs =
    List.fold_left add_defs Defs.empty
      (List.concat_map (fun f -> f.Fragment.defs) fragments)
  in
  let registry = Naming.create_registry () in
  List.iter (fun f -> Naming.replay registry f.Fragment.entries) fragments;
  (* A latency observer O is composed under the one restriction:
     Restrict (L u S, P_0 || ... || O), where L is what the other units
     restrict and S = {flow_start, flow_end}, rather than around the
     system as Restrict (S, Restrict (L, P_0 || ...) || O), which made
     the whole system one opaque slot of the explorer's frame.  The two
     have the same transitions.  O offers labels of S only, so no offer of O
     meets L; the probes are sends of S labels, which no unit receives
     but O, and S is disjoint from L, so the inner restriction never
     hides a probe.  Restricting L u S over the flat spine then keeps
     and hides exactly the events the nested pair does, the timed
     product of all slots is the product of the inner slots' product
     with O's, and preemption, applied once at the root in both, sees
     the same step set. *)
  let restricted_by fs =
    Label.set_of_list (List.concat_map (fun f -> f.Fragment.restricted) fs)
  in
  let observers, units =
    List.partition (fun f -> f.Fragment.kind = Fragment.Observer) fragments
  in
  assert (Label.Set.disjoint (restricted_by observers) (restricted_by units));
  let restricted = restricted_by fragments in
  let processes = List.concat_map (fun f -> f.Fragment.initials) fragments in
  let system = Proc.restrict restricted (Proc.par_list processes) in
  let count k =
    List.length (List.filter (fun f -> f.Fragment.kind = k) fragments)
  in
  {
    workload = p.Fragment.workload;
    defs;
    system;
    registry;
    restricted;
    assignments = p.Fragment.assignments;
    fragments;
    fragments_reused;
    symmetry = detect_symmetry fragments;
    num_thread_processes = count Fragment.Thread_unit;
    num_dispatchers = count Fragment.Thread_unit;
    num_queues = count Fragment.Queue;
    num_stimuli = count Fragment.Stimulus;
  }

let translate ?(options = default_options) ?cache (root : Aadl.Instance.t) : t
    =
  of_plan ?cache (plan ~options root)

let pp_summary ppf t =
  Fmt.pf ppf
    "%d thread processes, %d dispatchers, %d queues, %d stimuli; %d \
     definitions; quantum %a"
    t.num_thread_processes t.num_dispatchers t.num_queues t.num_stimuli
    (List.length (Defs.names t.defs))
    Aadl.Time.pp t.workload.Workload.quantum
