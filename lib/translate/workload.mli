(** The timed task view of an instance model, in scheduling quanta. *)

type task = {
  path : string list;
  name : string;
  dispatch : Aadl.Props.dispatch_protocol;
  period : int option;
  cmin : int;
  cmax : int;
  deadline : int;
  aadl_priority : int option;
  processor : string list;
  incoming_events : Aadl.Semconn.t list;
  outgoing : Aadl.Semconn.t list;
  out_buses : string list list;
  data_shared : string list list;
  loc : Aadl.Ast.srcloc;
      (** the thread instance's position in the AADL text, for
          diagnostics; {!Aadl.Ast.no_loc} when read from instance XML *)
}

type t = {
  root : Aadl.Instance.t;
  quantum : Aadl.Time.t;
  tasks : task list;
  sconns : Aadl.Semconn.t list;
  by_processor : (Aadl.Instance.t * task list) list;
}

val of_binding : quantum:Aadl.Time.t -> Aadl.Binding.t -> t
(** Convert thread timing properties to quanta: execution times round up,
    periods and deadlines round down (a conservative over-approximation).
    Bindings and connections are read from the resolved deployment.
    @raise Aadl.Diag.Error on missing properties, sub-quantum values, an
    unbound thread, or a thread whose cmax exceeds its deadline. *)

val extract : quantum:Aadl.Time.t -> Aadl.Instance.t -> t
(** {!of_binding} over {!Aadl.Binding.resolve}. *)

val suggest_quantum : Aadl.Instance.t -> Aadl.Time.t
(** The gcd of every time value in the model: the coarsest quantum that
    loses no precision.  Defaults to 1 ms for untimed models. *)

val find_task : t -> string list -> task option

val utilization : task list -> float
(** Sum of cmax/period over the tasks that have a period. *)

val pp_task : task Fmt.t
val pp : t Fmt.t
