(* Concrete transition labels of the (instantiated) ACSR transition system,
   together with the preemption relation that defines the prioritized
   transition relation (paper, Section 3). *)

type t =
  | Action of Action.ground
      (** A timed action: consumes one quantum of global time. *)
  | Event of Label.t * Event.dir * int
      (** An unsynchronized communication offer, visible to the context. *)
  | Tau of Label.t option * int
      (** An internal step; [Some l] records the label whose
          synchronization produced it (written [tau\@l]). *)

let is_timed = function Action _ -> true | Event _ | Tau _ -> false

let equal (a : t) (b : t) = a = b

(* [Stdlib.compare] on steps, written out so that sorting successor rows
   does not walk them generically: constructors in declaration order,
   then their fields left to right, with labels and resources compared
   as the strings they are, [None] before [Some] and [In] before [Out].
   Only the sign is the same as [Stdlib.compare]'s. *)
let rec compare_ground (a : Action.ground) (b : Action.ground) =
  match (a, b) with
  | [], [] -> 0
  | [], _ :: _ -> -1
  | _ :: _, [] -> 1
  | (r1, p1) :: a', (r2, p2) :: b' ->
      let c = Resource.compare r1 r2 in
      if c <> 0 then c
      else
        let c = Int.compare p1 p2 in
        if c <> 0 then c else compare_ground a' b'

let compare (a : t) (b : t) =
  match (a, b) with
  | Action x, Action y -> compare_ground x y
  | Event (l1, d1, p1), Event (l2, d2, p2) ->
      let c = Label.compare l1 l2 in
      if c <> 0 then c
      else if d1 != d2 then (match d1 with Event.In -> -1 | Event.Out -> 1)
      else Int.compare p1 p2
  | Tau (l1, p1), Tau (l2, p2) ->
      let c =
        match (l1, l2) with
        | None, None -> 0
        | None, Some _ -> -1
        | Some _, None -> 1
        | Some l1, Some l2 -> Label.compare l1 l2
      in
      if c <> 0 then c else Int.compare p1 p2
  | Action _, (Event _ | Tau _) | Event _, Tau _ -> -1
  | Event _, Action _ | Tau _, (Action _ | Event _) -> 1

(* The preemption relation on steps.  [preempts b a] means [b] disables [a]
   when both are enabled in the same state:
   - timed actions preempt each other by resource-wise priority domination;
   - an internal step with non-zero priority preempts any timed action,
     ensuring progress;
   - events with the same label and direction preempt by priority;
   - internal steps all carry the same label (tau — the [Some l]
     annotation only records the synchronization's origin, as the paper's
     [tau\@name] notation does), so a higher-priority internal step
     preempts any lower-priority one.  This is what lets the Urgency
     property arbitrate between the queues of an event-driven dispatcher
     (paper, Section 4.3). *)
let preempts (b : t) (a : t) =
  match (a, b) with
  | Action aa, Action ab -> Action.Ground.preempts ab aa
  | Action _, Tau (_, n) -> n > 0
  | Event (la, da, pa), Event (lb, db, pb) ->
      Label.equal la lb && da = db && pb > pa
  | Tau (_, pa), Tau (_, pb) -> pb > pa
  | Action _, Event _
  | Event _, (Action _ | Tau _)
  | Tau _, (Action _ | Event _) ->
      false

(* Keep only the maximal steps with respect to preemption: this implements
   the prioritized transition relation. *)
let prioritize (steps : (t * 'a) list) =
  let preempted s = List.exists (fun (s', _) -> preempts s' s) steps in
  List.filter (fun (s, _) -> not (preempted s)) steps

let pp ppf = function
  | Action a -> Action.pp_ground ppf a
  | Event (l, d, 0) -> Fmt.pf ppf "%a%a" Label.pp l Event.pp_dir d
  | Event (l, d, p) ->
      Fmt.pf ppf "(%a%a,%d)" Label.pp l Event.pp_dir d p
  | Tau (None, p) -> Fmt.pf ppf "tau:%d" p
  | Tau (Some l, p) -> Fmt.pf ppf "tau@%a:%d" Label.pp l p
