(** Mode support — an extension beyond the paper's translation scope
    (Section 4.1 omits modes).  One modal component is supported: its
    mode manager process tracks the current mode and delivers
    activation/deactivation control events to the dispatchers of threads
    whose activity is mode-dependent. *)

open Acsr

type trigger =
  | Internal of { source : string list; port : string; label : Label.t }
  | Environment of { port : string; label : Label.t }
  | Device_source of {
      source : string list;
      port : string;
      label : Label.t;
      period : int option;
    }

type transition = { src : string; dst : string; triggers : trigger list }

type t = {
  host : Aadl.Instance.t;
  mode_names : string list;
  initial : string;
  transitions : transition list;
  thread_activity : (string list * string list) list;
}

val find : Aadl.Instance.t -> Aadl.Instance.t option
(** The modal component of the tree, if any.
    @raise Aadl.Diag.Error when several components declare modes. *)

val thread_modes : host:Aadl.Instance.t -> Aadl.Instance.t -> string list
(** Modes of [host] in which the thread is active; empty = all. *)

val analyze : root:Aadl.Instance.t -> quantum:Aadl.Time.t -> Aadl.Instance.t -> t

val active_in : t -> mode:string -> thread:string list -> bool
val initially_active : t -> thread:string list -> bool

val restricted_threads : t -> string list list
(** Threads whose activity is mode-dependent. *)

val internal_triggers_of : t -> thread:string list -> Label.t list
(** Trigger labels this thread may raise during computation. *)

val activate_label : string list -> Label.t
val deactivate_label : string list -> Label.t

type generated = {
  defs : (string * string list * Proc.t) list;
  initial : Proc.t;
  stimuli : (string * string list * Proc.t) list;
  stimuli_initials : Proc.t list;
  internal_labels : Label.t list;
}

val generate : registry:Naming.registry -> t -> generated
(** The mode manager, switch sequences, and stimuli for environment- or
    device-raised triggers. *)
