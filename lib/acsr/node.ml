(* Slot nodes: per-exploration records of the distinct slot terms, with
   their compiled step sets and cached orbit images.  See node.mli. *)

type t = {
  term : Hproc.t;
  hash : int;
  mutable steps : steps;
  mutable images : t array;
}

and steps = {
  offers : offer array;
  taus : edge array;
  timed : timed array;
  urgent : bool;
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

let uncompiled = { offers = [||]; taus = [||]; timed = [||]; urgent = false }

let dummy = { term = Hproc.nil; hash = 0; steps = uncompiled; images = [||] }

let compile raw =
  let edge (step, next) = { step; next; target = dummy } in
  let offers, taus, timed =
    List.fold_right
      (fun ((step, _) as sk) (offers, taus, timed) ->
        match step with
        | Step.Event (label, dir, prio) ->
            let o = { label; id = Label.id label; dir; prio; edge = edge sk } in
            (o :: offers, taus, timed)
        | Step.Tau _ -> (offers, edge sk :: taus, timed)
        | Step.Action action ->
            (offers, taus, { action; tick = edge sk } :: timed))
      raw ([], [], [])
  in
  {
    offers = Array.of_list offers;
    taus = Array.of_list taus;
    timed = Array.of_list timed;
    urgent =
      List.exists
        (fun e -> match e.step with Step.Tau (_, p) -> p > 0 | _ -> false)
        taus;
  }

let set_steps n s = n.steps <- s
let set_images n a = n.images <- a

type table = { lock : Mutex.t; nodes : (int, t) Hashtbl.t (* by [Hproc.id] *) }


let create () = { lock = Mutex.create (); nodes = Hashtbl.create 1024 }

let get tbl term =
  Mutex.protect tbl.lock (fun () ->
      match Hashtbl.find_opt tbl.nodes (Hproc.id term) with
      | Some n -> n
      | None ->
          let n =
            { term; hash = Hproc.hash term; steps = uncompiled; images = [||] }
          in
          Hashtbl.add tbl.nodes (Hproc.id term) n;
          n)

(* A racing resolution stores the same node: the table has one per term. *)
let target tbl e =
  let n = e.target in
  if n != dummy then n
  else begin
    let n = get tbl e.next in
    e.target <- n;
    n
  end
