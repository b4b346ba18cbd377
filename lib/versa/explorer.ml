(* The VERSA-style analysis entry point: explore the prioritized state space
   of a closed ACSR term and look for deadlocks.  A deadlock is reported
   with its shortest trace, which serves as the failing scenario raised back
   to the AADL model by the analysis layer (paper, Section 5).

   There is one exploration ([Lts.build]); [engine] only says whether it
   keeps the successor rows.  A plain schedulability query keeps none
   ([On_the_fly]): with [stop_at_deadlock] it ends at the first
   reachable deadlock, in time proportional to the distance to the
   first deadline miss. *)

type engine = Full | On_the_fly

type verdict =
  | Deadlock_free
      (** exhaustive exploration found no deadlock: every timing
          constraint of the model is met *)
  | Deadlock of { state : Lts.state_id; trace : Trace.t }
      (** a reachable state with no outgoing prioritized transition *)
  | Inconclusive of string
      (** exploration was truncated before finding a deadlock *)

type result = { lts : Lts.t; verdict : verdict; elapsed : float }

(* The reason string tells the caller which budget truncated the run —
   the service layer's degradation ladder keys on exactly this
   distinction. *)
let deadlock_verdict lts =
  match Lts.deadlocks lts with
  | state :: _ -> Deadlock { state; trace = Trace.to_deadlock lts state }
  | [] when not (Lts.truncated lts) -> Deadlock_free
  | [] ->
      let n = Lts.num_states lts in
      Inconclusive
        (if (Lts.stats lts).Lts.deadline_expired then
           Fmt.str "wall-clock budget expired after %d states" n
         else Fmt.str "state budget exhausted after %d states" n)

(* [jobs] is a shim for perfbench's [~jobs:1]: exploration is
   sequential, so it accepts only 1. *)
let check_deadlock ?(engine = On_the_fly) ?(max_states = 2_000_000)
    ?(stop_at_deadlock = true) ?(jobs = 1) ?deadline ?poll
    ?(symmetry = Acsr.Symmetry.empty) defs root =
  if jobs <> 1 then
    invalid_arg "Explorer.check_deadlock: ~jobs must be 1";
  Obs.Span.with_ ~name:"explore"
    ~attrs:
      [ ("engine", match engine with Full -> "full" | On_the_fly -> "otf") ]
  @@ fun () ->
  let t0 = Timed.Clock.gettimeofday () in
  let config =
    { Lts.max_states = Some max_states; stop_at_deadlock; deadline; poll }
  in
  let lts =
    Lts.build ~config ~semantics:Lts.Prioritized ~symmetry
      ~edges:(engine = Full) defs root
  in
  let verdict = deadlock_verdict lts in
  { lts; verdict; elapsed = Timed.Clock.gettimeofday () -. t0 }

let is_deadlock_free result =
  match result.verdict with
  | Deadlock_free -> true
  | Deadlock _ | Inconclusive _ -> false

let num_states r = Lts.num_states r.lts
let num_transitions r = Lts.num_transitions r.lts
let deadlocks r = Lts.deadlocks r.lts
let stats r = Lts.stats r.lts

let pp_verdict ppf = function
  | Deadlock_free -> Fmt.string ppf "deadlock-free"
  | Deadlock { state; trace } ->
      Fmt.pf ppf "@[<v>deadlock at state %d (time %d):@,%a@]" state
        (Trace.duration trace) Trace.pp trace
  | Inconclusive reason -> Fmt.pf ppf "inconclusive: %s" reason
