(** End-to-end latency checking with observer processes (paper, Section 5).

    The observer measures from the dispatch of [from_thread] to the
    completion of [to_thread] and blocks (deadlocks) if the bound is
    exceeded.  Non-pipelined: one flow instance is tracked at a time.
    It is composed as one more translation unit (the [observer] of
    {!Translate.Pipeline.options}), so a check is one
    {!Schedulability.analyze} of the model with its observer. *)

type verdict =
  | Latency_met
  | Latency_violated of { scenario : Raise_trace.t; trace : Versa.Trace.t }
      (** the observer reached its bound before the flow completed *)
  | Deadline_missed of { scenario : Raise_trace.t; trace : Versa.Trace.t }
      (** a thread missed its deadline while the observer could still
          wait: the model is not schedulable, so the bound is not
          decided *)
  | Latency_inconclusive of string

type t = {
  verdict : verdict;
  bound : int;  (** quanta *)
  analysis : Schedulability.t;
      (** the analysis of the model composed with its observer *)
}

val check :
  ?options:Schedulability.options ->
  from_thread:string list ->
  to_thread:string list ->
  bound:Aadl.Time.t ->
  Aadl.Instance.t ->
  t
(** [options] (default {!Schedulability.default_options}) with its
    translation's [observer] set to this flow.
    @raise Aadl.Diag.Error for unknown threads or a sub-quantum bound. *)

val pp_verdict : verdict Fmt.t
val pp : t Fmt.t
