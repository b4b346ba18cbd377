(** Deployment binding resolution (threads to processors, connections to
    buses). *)

val processor_of : root:Instance.t -> Instance.t -> Instance.t option
(** The processor a thread is bound to via [Actual_Processor_Binding].
    @raise Diag.Error if the reference resolves to a non-processor or not at
    all. *)

val processor_of_exn : root:Instance.t -> Instance.t -> Instance.t

val bus_of : root:Instance.t -> Semconn.t -> Instance.t option
(** The bus a semantic connection is mapped to via
    [Actual_Connection_Binding] on any traversed declared connection. *)

val threads_by_processor : root:Instance.t -> (Instance.t * Instance.t list) list
(** Each processor with the threads bound to it. *)
