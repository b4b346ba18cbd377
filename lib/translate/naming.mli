(** Name generation for the translation and the registry mapping generated
    ACSR names back to AADL entities (used to raise failing scenarios to
    the level of the original model). *)

open Acsr

val sanitize : string -> string
val of_path : string list -> string

(** {1 Collision-proof scopes}

    [of_path] flattens the hierarchy with '_', so distinct component
    paths (or connection names) can alias after sanitization.  A scope
    tracks every identity claimed during one translation and returns a
    digest-qualified variant for the later claimant of an already-taken
    name, leaving unambiguous names untouched.  Lookups are memoized:
    asking twice for the same identity returns the same answer. *)

type scope

val create_scope : unit -> scope

val scoped_path : scope -> string list -> string list
(** The (possibly digest-qualified) path to derive generated names from;
    equal to the input except when its sanitized form collides with a
    previously claimed, different path. *)

val scoped_conn : scope -> string -> string
(** Same, for semantic connection names. *)

(** {1 Process definition names} *)

val thread_await : string list -> string
val thread_compute : string list -> string
val thread_emit : string list -> string
val dispatcher : string list -> string
val dispatcher_wait : string list -> string
val dispatcher_idle : string list -> string
val dispatcher_ready : string list -> string
val dispatcher_inactive : string list -> string
val queue : string -> string
val stimulus : string list -> string -> string

(** {1 Labels and resources} *)

val dispatch_label : string list -> Label.t
val done_label : string list -> Label.t
val enqueue_label : string -> Label.t
val dequeue_label : string -> Label.t
val processor_resource : string list -> Resource.t
val bus_resource : string list -> Resource.t
val data_resource : string list -> Resource.t

(** {1 Back-mapping registry} *)

type meaning =
  | Dispatch_of of string list
  | Done_of of string list
  | Complete_of of string list
  | Enqueue_on of string
  | Dequeue_on of string
  | Overflow_on of string
  | Processor_use of string list
  | Bus_use of string list
  | Data_use of string list
  | Activate_of of string list
  | Deactivate_of of string list
  | Mode_trigger of string

type registry

val create_registry : unit -> registry
val register : registry -> string -> meaning -> unit
val register_label : registry -> Label.t -> meaning -> unit
val register_resource : registry -> Resource.t -> meaning -> unit
val lookup : registry -> string -> meaning option

val entries : registry -> (string * meaning) list
(** All bindings, sorted by name — the serializable content of a
    registry, used to carry per-fragment registrations into the composed
    model's registry. *)

val replay : registry -> (string * meaning) list -> unit
(** Re-register previously captured {!entries}. *)
