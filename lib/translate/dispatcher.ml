(* Thread dispatchers (paper, Figure 6).

   The dispatcher sends the [dispatch] event to the thread skeleton,
   tracks the deadline of each dispatch, and signals deadline violations
   by blocking — inducing a deadlock in the composed ACSR model, which is
   exactly the condition the analysis looks for (Section 5).

   - Periodic (Fig. 6a): dispatch immediately, await [done] within the
     deadline, idle out the rest of the period, repeat.  The dispatcher
     cannot idle in its initial state: the first dispatch happens at t=0.
   - Aperiodic (Fig. 6b): await a dequeue event from one of the incoming
     connection queues (choice resolved by Urgency priorities), dispatch,
     await [done] within the deadline.
   - Sporadic (Fig. 6c): as aperiodic, but a new dispatch is accepted only
     after the minimum separation (the Period) has elapsed.
   - Background: dispatched immediately upon initialization and not
     subject to a deadline; once complete, the dispatcher idles forever.

   Mode gating (our extension, see Modal): when the thread is active only
   in some modes, the dispatcher accepts a [deactivate] control event at
   its dispatch-boundary states (never mid-dispatch, so the running
   dispatch completes first) and moves to an Inactive state that waits
   for [activate].  (Re)activation re-enters the dispatch cycle. *)

open Acsr

type t = { defs : (string * string list * Proc.t) list; initial : Proc.t }

type modal_gate = {
  activate : Label.t;
  deactivate : Label.t;
  initially_active : bool;
}

let invalid (task : Workload.task) msg =
  Aadl.Diag.fail ~loc:task.Workload.loc ~subject:task.Workload.path "%s" msg

let var_k = Expr.Var "k"
let tick k = Expr.Add (k, Expr.Int 1)

(* dispatch! is urgent: its synchronization must preempt time passage so
   that dispatches happen exactly at their quantum boundary.  Observer
   probes fire right after the dispatch, still instantaneously. *)
let send_dispatch ?(probes : Label.t list = []) label k =
  Proc.send ~prio:(Expr.Int 1) label
    (List.fold_right (fun probe k -> Proc.send ~prio:(Expr.Int 1) probe k)
       probes k)

(* The triggers of an event-driven dispatcher: one dequeue input per
   incoming event-like connection, prioritized by Urgency (>= 1 keeps the
   synchronization urgent). *)
let trigger_inputs ?(scope : Naming.scope option)
    ~(registry : Naming.registry) (task : Workload.task) k =
  let sconn c = match scope with Some s -> Naming.scoped_conn s c | None -> c in
  List.map
    (fun (sc : Aadl.Semconn.t) ->
      let cname = Aadl.Semconn.name sc in
      let deq = Naming.dequeue_label (sconn cname) in
      Naming.register_label registry deq (Naming.Dequeue_on cname);
      let urgency =
        match Aadl.Props.urgency (Aadl.Semconn.props sc) with
        | Some u -> max 1 u
        | None -> 1
      in
      Proc.receive ~prio:(Expr.Int urgency) deq k)
    task.Workload.incoming_events

let generate ?(scope : Naming.scope option) ?(modal : modal_gate option)
    ~(dispatch_probes : Label.t list)
    ~(registry : Naming.registry) ~(task : Workload.task)
    ~(dispatch : Label.t) ~(done_ : Label.t) () : t =
  let path =
    match scope with
    | Some s -> Naming.scoped_path s task.Workload.path
    | None -> task.Workload.path
  in
  let trigger_inputs = trigger_inputs ?scope in
  let d = task.Workload.deadline in
  let main = Naming.dispatcher path in
  let wait = Naming.dispatcher_wait path in
  let idle = Naming.dispatcher_idle path in
  let ready = Naming.dispatcher_ready path in
  let inactive = Naming.dispatcher_inactive path in
  let send_dispatch l k = send_dispatch ~probes:dispatch_probes l k in
  (* add the deactivation branch to a dispatch-boundary state, and build
     the Inactive definition *)
  let gate branches =
    match modal with
    | None -> branches
    | Some g ->
        branches
        @ [
            Proc.receive ~prio:(Expr.Int 1) g.deactivate
              (Proc.call inactive []);
          ]
  in
  let inactive_def =
    match modal with
    | None -> []
    | Some g ->
        [
          ( inactive,
            [],
            Proc.choice
              (Proc.receive g.activate (Proc.call main []))
              (Proc.act Action.idle (Proc.call inactive [])) );
        ]
  in
  let initial =
    match modal with
    | Some g when not g.initially_active -> Proc.call inactive []
    | Some _ | None -> Proc.call main []
  in
  match task.Workload.dispatch with
  | Aadl.Props.Periodic ->
      let p =
        match task.Workload.period with
        | Some p -> p
        | None -> invalid task "periodic thread without a period"
      in
      (* wait(k): done may arrive while k <= d; only idling while k < d *)
      let wait_body =
        Proc.choice
          (Proc.receive done_ (Proc.call idle [ var_k ]))
          (Proc.if_
             Guard.(lt var_k (Expr.Int d))
             (Proc.act Action.idle (Proc.call wait [ tick var_k ])))
      in
      let idle_body =
        Proc.choice_list
          (gate
             [
               Proc.if_
                 Guard.(lt var_k (Expr.Int p))
                 (Proc.act Action.idle (Proc.call idle [ tick var_k ]));
               Proc.if_
                 Guard.(ge var_k (Expr.Int p))
                 (send_dispatch dispatch (Proc.call wait [ Expr.Int 0 ]));
             ])
      in
      let main_body = send_dispatch dispatch (Proc.call wait [ Expr.Int 0 ]) in
      {
        defs =
          [
            (main, [], main_body);
            (wait, [ "k" ], wait_body);
            (idle, [ "k" ], idle_body);
          ]
          @ inactive_def;
        initial;
      }
  | Aadl.Props.Aperiodic ->
      if task.Workload.incoming_events = [] then
        invalid task "aperiodic thread has no incoming event connection";
      let dispatch_now = send_dispatch dispatch (Proc.call wait [ Expr.Int 0 ]) in
      let main_body =
        Proc.choice_list
          (gate
             (trigger_inputs ~registry task dispatch_now
             @ [ Proc.act Action.idle (Proc.call main []) ]))
      in
      let wait_body =
        Proc.choice
          (Proc.receive done_ (Proc.call main []))
          (Proc.if_
             Guard.(lt var_k (Expr.Int d))
             (Proc.act Action.idle (Proc.call wait [ tick var_k ])))
      in
      {
        defs =
          [ (main, [], main_body); (wait, [ "k" ], wait_body) ]
          @ inactive_def;
        initial;
      }
  | Aadl.Props.Sporadic ->
      if task.Workload.incoming_events = [] then
        invalid task "sporadic thread has no incoming event connection";
      let p =
        match task.Workload.period with
        | Some p -> p
        | None -> invalid task "sporadic thread without a period"
      in
      let dispatch_now = send_dispatch dispatch (Proc.call wait [ Expr.Int 0 ]) in
      let ready_body =
        Proc.choice_list
          (gate
             (trigger_inputs ~registry task dispatch_now
             @ [ Proc.act Action.idle (Proc.call ready []) ]))
      in
      let wait_body =
        Proc.choice
          (Proc.receive done_ (Proc.call idle [ var_k ]))
          (Proc.if_
             Guard.(lt var_k (Expr.Int d))
             (Proc.act Action.idle (Proc.call wait [ tick var_k ])))
      in
      (* enforce the minimum separation [p] between dispatches, counting
         from the previous dispatch *)
      let idle_body =
        Proc.choice
          (Proc.if_
             Guard.(lt var_k (Expr.Int p))
             (Proc.act Action.idle (Proc.call idle [ tick var_k ])))
          (Proc.if_ Guard.(ge var_k (Expr.Int p)) (Proc.call ready []))
      in
      {
        defs =
          [
            (main, [], ready_body);
            (ready, [], ready_body);
            (wait, [ "k" ], wait_body);
            (idle, [ "k" ], idle_body);
          ]
          @ inactive_def;
        initial;
      }
  | Aadl.Props.Background ->
      (* dispatched immediately upon initialization (or upon activation);
         no deadline: after completion the dispatcher idles, accepting a
         deactivation that allows a later re-dispatch *)
      let stopped = Naming.dispatcher_idle path in
      let stopped_body =
        Proc.choice_list (gate [ Proc.act Action.idle (Proc.call stopped []) ])
      in
      let wait_body =
        Proc.choice
          (Proc.receive done_ (Proc.call stopped []))
          (Proc.act Action.idle (Proc.call wait [ Expr.Int 0 ]))
      in
      let main_body = send_dispatch dispatch (Proc.call wait [ Expr.Int 0 ]) in
      {
        defs =
          [
            (main, [], main_body);
            (wait, [ "k" ], wait_body);
            (stopped, [], stopped_body);
          ]
          @ inactive_def;
        initial;
      }
