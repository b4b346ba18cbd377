(* Name generation for the translation, and the registry that maps generated
   ACSR names back to AADL entities.

   "By carefully choosing the names in the translated model we make it
   possible to present failing scenarios in terms of the original AADL
   model" (paper, Section 1): every label and resource the translation
   introduces is recorded here so that VERSA traces can be re-interpreted
   as AADL-level timelines. *)

open Acsr

let sanitize s =
  String.map
    (fun c ->
      if
        (c >= 'a' && c <= 'z')
        || (c >= 'A' && c <= 'Z')
        || (c >= '0' && c <= '9')
        || c = '_'
      then c
      else '_')
    s

let of_path path = sanitize (String.concat "_" path)

(* {1 Collision-proof scopes}

   [of_path] flattens the component hierarchy with '_', so distinct paths
   can alias: a top-level thread "a_b" and a thread "b" inside a process
   "a" both sanitize to "a_b", and every name derived from the path (the
   skeleton and dispatcher definitions, the dispatch/done labels, the
   resources) would collide.  A scope detects such collisions within one
   translation and qualifies the later claimant with a short digest of
   its real identity, leaving every unambiguous name exactly as before.
   Qualification is deterministic: it depends only on the raw identity,
   not on claim order, so re-planning the same model reproduces the same
   names. *)

type scope = {
  path_assigned : (string, string list) Hashtbl.t;  (* raw key -> path *)
  path_owners : (string, string) Hashtbl.t;  (* sanitized base -> raw key *)
  conn_assigned : (string, string) Hashtbl.t;
  conn_owners : (string, string) Hashtbl.t;
}

let create_scope () =
  {
    path_assigned = Hashtbl.create 16;
    path_owners = Hashtbl.create 16;
    conn_assigned = Hashtbl.create 16;
    conn_owners = Hashtbl.create 16;
  }

let short_digest raw = String.sub (Digest.to_hex (Digest.string raw)) 0 6

let scoped_path scope path =
  let raw = String.concat "\x00" path in
  match Hashtbl.find_opt scope.path_assigned raw with
  | Some q -> q
  | None ->
      let base = of_path path in
      let q =
        match Hashtbl.find_opt scope.path_owners base with
        | None ->
            Hashtbl.replace scope.path_owners base raw;
            path
        | Some owner when String.equal owner raw -> path
        | Some _ ->
            let qpath = path @ [ "x" ^ short_digest raw ] in
            Hashtbl.replace scope.path_owners (of_path qpath) raw;
            qpath
      in
      Hashtbl.replace scope.path_assigned raw q;
      q

let scoped_conn scope name =
  match Hashtbl.find_opt scope.conn_assigned name with
  | Some q -> q
  | None ->
      let base = sanitize name in
      let q =
        match Hashtbl.find_opt scope.conn_owners base with
        | None ->
            Hashtbl.replace scope.conn_owners base name;
            name
        | Some owner when String.equal owner name -> name
        | Some _ ->
            let qname = name ^ "_x" ^ short_digest name in
            Hashtbl.replace scope.conn_owners (sanitize qname) name;
            qname
      in
      Hashtbl.replace scope.conn_assigned name q;
      q

(* {1 Process definition names} *)

let thread_await path = "Th_" ^ of_path path ^ "_await"
let thread_compute path = "Th_" ^ of_path path ^ "_compute"
let thread_emit path = "Th_" ^ of_path path ^ "_emit"
let dispatcher path = "Disp_" ^ of_path path
let dispatcher_wait path = "Disp_" ^ of_path path ^ "_wait"
let dispatcher_idle path = "Disp_" ^ of_path path ^ "_idle"
let dispatcher_ready path = "Disp_" ^ of_path path ^ "_ready"
let dispatcher_inactive path = "Disp_" ^ of_path path ^ "_inactive"
let queue conn_name = "Q_" ^ sanitize conn_name
let stimulus path feature = "Stim_" ^ of_path path ^ "_" ^ sanitize feature

(* {1 Labels} *)

let dispatch_label path = Label.make ("dispatch_" ^ of_path path)
let done_label path = Label.make ("done_" ^ of_path path)
let enqueue_label conn_name = Label.make (sanitize conn_name ^ "_q")
let dequeue_label conn_name = Label.make (sanitize conn_name ^ "_deq")

(* {1 Resources} *)

let processor_resource path = Resource.make ("cpu_" ^ of_path path)
let bus_resource path = Resource.make ("bus_" ^ of_path path)
let data_resource path = Resource.make ("data_" ^ of_path path)

(* {1 The back-mapping registry} *)

type meaning =
  | Dispatch_of of string list  (** thread path *)
  | Done_of of string list
  | Complete_of of string list
  | Enqueue_on of string  (** semantic connection name *)
  | Dequeue_on of string
  | Overflow_on of string
  | Processor_use of string list
  | Bus_use of string list
  | Data_use of string list
  | Activate_of of string list  (** mode switch: thread activation *)
  | Deactivate_of of string list
  | Mode_trigger of string  (** mode transition, e.g. "nominal -> degraded" *)

type registry = (string, meaning) Hashtbl.t

let create_registry () : registry = Hashtbl.create 64

let register (reg : registry) name meaning = Hashtbl.replace reg name meaning

let register_label reg label meaning = register reg (Label.name label) meaning

let register_resource reg res meaning =
  register reg (Resource.name res) meaning

let lookup (reg : registry) name = Hashtbl.find_opt reg name

let entries (reg : registry) =
  Hashtbl.fold (fun name meaning acc -> (name, meaning) :: acc) reg []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let replay (reg : registry) entries =
  List.iter (fun (name, meaning) -> register reg name meaning) entries
