(** Typed accessors for the standard AADL properties consumed by the
    translation and analyses. *)

type dispatch_protocol = Periodic | Aperiodic | Sporadic | Background

val dispatch_protocol_to_string : dispatch_protocol -> string
val pp_dispatch_protocol : dispatch_protocol Fmt.t

type overflow_handling = Drop_newest | Drop_oldest | Error

val pp_overflow_handling : overflow_handling Fmt.t

type scheduling_protocol =
  | Rate_monotonic
  | Deadline_monotonic
  | Highest_priority_first
  | Edf
  | Llf
  | Hierarchical

val scheduling_protocol_to_string : scheduling_protocol -> string
val pp_scheduling_protocol : scheduling_protocol Fmt.t

(** The typed accessors raise {!Diag.Error}, located at the association,
    for a value of the wrong type or an unknown enumeration literal. *)

val find : string -> Ast.prop list -> Ast.pvalue option
(** Last (strongest) association whose base name matches, case-insensitive,
    qualifier-insensitive. *)

val loc_of : string -> Ast.prop list -> Ast.srcloc option
(** Where the association {!find} returns was written. *)

val mem : string -> Ast.prop list -> bool
val time_opt : string -> Ast.prop list -> Time.t option
val int_opt : string -> Ast.prop list -> int option
val time_range_opt : string -> Ast.prop list -> (Time.t * Time.t) option

val dispatch_protocol : Ast.prop list -> dispatch_protocol option
val period : Ast.prop list -> Time.t option

val compute_execution_time : Ast.prop list -> (Time.t * Time.t) option
(** The (min, max) execution time range; a scalar value yields a
    degenerate range. *)

val compute_deadline : Ast.prop list -> Time.t option
(** [Compute_Deadline], falling back to [Deadline]. *)

val priority : Ast.prop list -> int option
val urgency : Ast.prop list -> int option

val queue_size : Ast.prop list -> int
(** Defaults to 1 when unspecified (paper, Section 4.4). *)

val overflow_handling : Ast.prop list -> overflow_handling
(** Defaults to [Drop_newest]. *)

val scheduling_protocol : Ast.prop list -> scheduling_protocol option

type concurrency_control =
  | No_protocol
  | Priority_ceiling
  | Priority_inheritance

val pp_concurrency_control : concurrency_control Fmt.t

val concurrency_control : Ast.prop list -> concurrency_control
(** [Concurrency_Control_Protocol] of a shared data component; defaults
    to [No_protocol]. *)

val actual_processor_binding : Ast.prop list -> string list option
val actual_connection_binding : Ast.prop list -> string list option
val latency : Ast.prop list -> Time.t option
