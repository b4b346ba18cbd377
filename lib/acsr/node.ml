(* Slot nodes: per-exploration records of the distinct slot terms, with
   their compiled step sets.  See node.mli. *)

type t = { term : Hproc.t; hash : int; par : bool; mutable steps : steps }

and steps = {
  code : int array;
  offers : offer array;
  taus : edge array;
  timed : timed array;
}

and offer = { label : Label.t; edge : edge }
and timed = { action : Action.ground; tick : edge }
and edge = { step : Step.t; next : Hproc.t; mutable target : t }

(* The header of [code]: counts, then where each part starts. *)
let num_taus = 0
let num_offers = 1
let num_timed = 2
let offers_at = 3
let timed_at = 4
let ins = 5
let outs = 6
let taus_at = 7
let tau_width = 2
let offer_width = 3
let timed_width = 2

let uncompiled =
  {
    code = [| 0; 0; 0; taus_at; taus_at; 0; 0 |];
    offers = [||];
    taus = [||];
    timed = [||];
  }

let dummy = { term = Hproc.nil; hash = 0; par = false; steps = uncompiled }

type table = { terms : Hproc.table; nodes : (int, t) Hashtbl.t (* by id *) }

let[@inline] bit id = 1 lsl (id land 31)
let resource_bit id = 1 lsl (id mod 63)

let create terms = { terms; nodes = Hashtbl.create 1024 }
let terms tbl = tbl.terms

let compile tbl raw =
  let label_id = Hproc.label_id tbl.terms
  and resource_id = Hproc.resource_id tbl.terms in
  let edge (step, next) = { step; next; target = dummy } in
  let offers, taus, timed =
    List.fold_right
      (fun ((step, _) as sk) (offers, taus, timed) ->
        match step with
        | Step.Event (label, dir, prio) ->
            ((label, dir, prio, edge sk) :: offers, taus, timed)
        | Step.Tau (label, prio) ->
            (offers, (label, prio, edge sk) :: taus, timed)
        | Step.Action action ->
            (offers, taus, { action; tick = edge sk } :: timed))
      raw ([], [], [])
  in
  let taus = Array.of_list taus
  and offers = Array.of_list offers
  and timed = Array.of_list timed in
  let offers_base = taus_at + (tau_width * Array.length taus) in
  let timed_base = offers_base + (offer_width * Array.length offers) in
  let accesses_base = timed_base + (timed_width * Array.length timed) in
  let code =
    Array.make
      (Array.fold_left
         (fun size { action; _ } -> size + 1 + (2 * List.length action))
         accesses_base timed)
      0
  in
  code.(num_taus) <- Array.length taus;
  code.(num_offers) <- Array.length offers;
  code.(num_timed) <- Array.length timed;
  code.(offers_at) <- offers_base;
  code.(timed_at) <- timed_base;
  Array.iteri
    (fun t (label, prio, _) ->
      let at = taus_at + (tau_width * t) in
      code.(at) <- (match label with Some l -> label_id l | None -> -1);
      code.(at + 1) <- prio)
    taus;
  Array.iteri
    (fun a (label, dir, prio, _) ->
      let at = offers_base + (offer_width * a) in
      let id = label_id label in
      let dir, mask =
        match dir with Event.In -> (0, ins) | Event.Out -> (1, outs)
      in
      code.(at) <- id;
      code.(at + 1) <- dir;
      code.(at + 2) <- prio;
      code.(mask) <- code.(mask) lor bit id)
    offers;
  let next = ref accesses_base in
  Array.iteri
    (fun m { action; _ } ->
      let at = timed_base + (timed_width * m) and start = !next in
      code.(at + 1) <- start;
      code.(start) <- List.length action;
      List.iteri
        (fun x (r, prio) ->
          let id = resource_id r in
          code.(at) <- code.(at) lor resource_bit id;
          code.(start + 1 + (2 * x)) <- id;
          code.(start + 2 + (2 * x)) <- prio)
        action;
      next := start + 1 + (2 * List.length action))
    timed;
  {
    code;
    offers = Array.map (fun (label, _, _, edge) -> { label; edge }) offers;
    taus = Array.map (fun (_, _, edge) -> edge) taus;
    timed;
  }

let set_steps n s = n.steps <- s

let get tbl term =
  match Hashtbl.find_opt tbl.nodes (Hproc.id term) with
  | Some n -> n
  | None ->
      let par = match Hproc.node term with Hproc.Par _ -> true | _ -> false in
      let n = { term; hash = Hproc.hash term; par; steps = uncompiled } in
      Hashtbl.add tbl.nodes (Hproc.id term) n;
      n

let size tbl = Hashtbl.length tbl.nodes

let target tbl e =
  let n = e.target in
  if n != dummy then n
  else begin
    let n = get tbl e.next in
    e.target <- n;
    n
  end
