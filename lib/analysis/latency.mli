(** End-to-end latency checking with observer processes (paper, Section 5).

    The observer measures from the dispatch of [from_thread] to the
    completion of [to_thread] and blocks (deadlocks) if the bound is
    exceeded.  Non-pipelined: one flow instance is tracked at a time.
    A deadline violation of the underlying model also surfaces as a
    deadlock here — check plain schedulability first to tell them apart. *)

type verdict =
  | Latency_met
  | Latency_violated of { scenario : Raise_trace.t; trace : Versa.Trace.t }
  | Latency_inconclusive of string

type t = {
  verdict : verdict;
  bound : int;
  exploration : Versa.Explorer.result;
}

type options = {
  translation_options : Translate.Pipeline.options;
  max_states : int;
}

val default_options : options

val check :
  ?options:options ->
  from_thread:string list ->
  to_thread:string list ->
  bound:Aadl.Time.t ->
  Aadl.Instance.t ->
  t
(** @raise Aadl.Diag.Error for unknown threads or a sub-quantum bound. *)

val pp_verdict : verdict Fmt.t
val pp : t Fmt.t
