(** Observed worst-case response times via binary search over latency
    observers: the exploration-based counterpart of classical RTA. *)

type t = {
  thread : string list;
  response : int option;
  deadline : int;
}

type options = Latency.options

val default_options : options

val worst_response :
  ?options:options -> thread:string list -> Aadl.Instance.t -> t
(** The smallest dispatch-to-completion bound (in quanta) that holds on
    every path; [None] when the thread can miss its deadline.
    @raise Aadl.Diag.Error for unknown threads or inconclusive explorations. *)

val pp : t Fmt.t
