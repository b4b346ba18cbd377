(** Deployment binding resolution (threads to processors, connections to
    buses). *)

val processor_of : root:Instance.t -> Instance.t -> Instance.t option
(** The processor a thread is bound to via [Actual_Processor_Binding].
    @raise Diag.Error if the reference resolves to a non-processor or not at
    all. *)

val bus_of : root:Instance.t -> Semconn.t -> Instance.t option
(** The bus a semantic connection is mapped to via
    [Actual_Connection_Binding] on any traversed declared connection. *)

(** {1 A model's deployment, resolved once} *)

type t = {
  root : Instance.t;
  threads : Instance.t list;  (** in instance order *)
  processors : Instance.t list;  (** in instance order *)
  sconns : Semconn.t list;  (** {!Semconn.resolve} *)
  accesses : Semconn.access list;  (** {!Semconn.resolve_access} *)
  bound : (Instance.t option, Diag.t) result list;
      (** each thread's {!processor_of}, in [threads] order; [Error]
          holds the diagnostic it raised *)
}

val resolve : Instance.t -> t
(** Resolve every thread binding and every semantic port and access
    connection of the model.  Never raises {!Diag.Error}: an unresolvable
    binding is kept in [bound]. *)

val threads_by_processor : t -> (Instance.t * Instance.t list) list
(** Each processor with the threads bound to it.
    @raise Diag.Error with the first unresolvable thread binding, when the
    model has a processor. *)
