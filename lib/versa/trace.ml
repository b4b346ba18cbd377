(* Executions extracted from an LTS, presented as timelines.

   A trace records the steps from the initial state to some state of
   interest (typically a deadlock).  Because only timed actions advance
   global time, the timeline groups the instantaneous steps occurring at
   each time quantum — this is the "convenient time line form" in which the
   paper reports failing scenarios (Section 7). *)

open Acsr

type entry = { step : Step.t; state : Lts.state_id }

type t = { entries : entry list }

(* A trace is just the path data: it does not retain the LTS it was
   extracted from, so a trace outlives the exploration's store. *)
let of_path path =
  { entries = List.map (fun (step, state) -> { step; state }) path }

let to_deadlock lts state = of_path (Lts.path_to lts state)

let steps t = List.map (fun e -> e.step) t.entries
let length t = List.length t.entries

let duration t =
  List.length (List.filter Step.is_timed (steps t))

(* Group the trace into quanta: each element is the list of instantaneous
   steps followed by the timed action closing the quantum (None for the
   trailing group, if the trace ends between quanta). *)
type quantum = { at_time : int; instant : Step.t list; tick : Step.t option }

let quanta t =
  let rec group time pending acc = function
    | [] ->
        let acc =
          if pending = [] then acc
          else { at_time = time; instant = List.rev pending; tick = None } :: acc
        in
        List.rev acc
    | e :: rest ->
        if Step.is_timed e.step then
          group (time + 1) []
            ({ at_time = time; instant = List.rev pending; tick = Some e.step }
            :: acc)
            rest
        else group time (e.step :: pending) acc rest
  in
  group 0 [] [] t.entries

let pp_quantum ppf q =
  let pp_instant ppf steps =
    match steps with
    | [] -> ()
    | steps -> Fmt.pf ppf "%a " Fmt.(list ~sep:sp Step.pp) steps
  in
  match q.tick with
  | Some tick ->
      Fmt.pf ppf "@[<h>t=%-3d %a%a@]" q.at_time pp_instant q.instant Step.pp
        tick
  | None -> Fmt.pf ppf "@[<h>t=%-3d %a(end)@]" q.at_time pp_instant q.instant

let pp ppf t =
  Fmt.pf ppf "@[<v>%a@]" Fmt.(list ~sep:cut pp_quantum) (quanta t)
