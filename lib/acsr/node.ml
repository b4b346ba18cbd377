(* Slot nodes: per-exploration records of the distinct slot terms, with
   their compiled step sets.  See node.mli. *)

type t = { term : Hproc.t; hash : int; par : bool; mutable steps : steps }

and steps = {
  offers : offer array;
  taus : edge array;
  tau_ids : int array;
  timed : timed array;
  urgent : bool;
  ins : int;
  outs : int;
}

and offer = {
  label : Label.t;
  id : int;
  dir : Event.dir;
  prio : int;
  edge : edge;
}

and timed = { action : Action.ground; tick : edge }
and edge = { step : Step.t; next : Hproc.t; mutable target : t }

let uncompiled =
  {
    offers = [||];
    taus = [||];
    tau_ids = [||];
    timed = [||];
    urgent = false;
    ins = 0;
    outs = 0;
  }

let dummy = { term = Hproc.nil; hash = 0; par = false; steps = uncompiled }

(* Guarded by the lock of [terms]. *)
type table = { terms : Hproc.table; nodes : (int, t) Hashtbl.t (* by id *) }

let[@inline] bit id = 1 lsl (id land 31)

let create terms = { terms; nodes = Hashtbl.create 1024 }
let terms tbl = tbl.terms

let compile tbl raw =
  let id = Hproc.label_id tbl.terms in
  let edge (step, next) = { step; next; target = dummy } in
  let offers, taus, timed =
    List.fold_right
      (fun ((step, _) as sk) (offers, taus, timed) ->
        match step with
        | Step.Event (label, dir, prio) ->
            let o = { label; id = id label; dir; prio; edge = edge sk } in
            (o :: offers, taus, timed)
        | Step.Tau _ -> (offers, edge sk :: taus, timed)
        | Step.Action action ->
            (offers, taus, { action; tick = edge sk } :: timed))
      raw ([], [], [])
  in
  let taus = Array.of_list taus and offers = Array.of_list offers in
  let mask dir =
    Array.fold_left
      (fun m o -> if o.dir = dir then m lor bit o.id else m)
      0 offers
  in
  {
    offers;
    taus;
    tau_ids =
      Array.map
        (fun e ->
          match e.step with Step.Tau (Some l, _) -> id l | _ -> -1)
        taus;
    timed = Array.of_list timed;
    urgent =
      Array.exists
        (fun e -> match e.step with Step.Tau (_, p) -> p > 0 | _ -> false)
        taus;
    ins = mask Event.In;
    outs = mask Event.Out;
  }

let set_steps n s = n.steps <- s

let get tbl term =
  Hproc.protect tbl.terms (fun () ->
      match Hashtbl.find_opt tbl.nodes (Hproc.id term) with
      | Some n -> n
      | None ->
          let par =
            match Hproc.node term with Hproc.Par _ -> true | _ -> false
          in
          let n = { term; hash = Hproc.hash term; par; steps = uncompiled } in
          Hashtbl.add tbl.nodes (Hproc.id term) n;
          n)

let size tbl = Hproc.protect tbl.terms (fun () -> Hashtbl.length tbl.nodes)

(* A racing resolution stores the same node: the table has one per term. *)
let target tbl e =
  let n = e.target in
  if n != dummy then n
  else begin
    let n = get tbl e.next in
    e.target <- n;
    n
  end
