(* Typed accessors for the standard AADL properties the analysis consumes
   (AS5506 predeclared property sets).  Property names are matched
   case-insensitively and with or without their property-set qualifier,
   e.g. both [Period] and [Timing_Properties::Period] are accepted. *)

type dispatch_protocol = Periodic | Aperiodic | Sporadic | Background

let dispatch_protocol_to_string = function
  | Periodic -> "Periodic"
  | Aperiodic -> "Aperiodic"
  | Sporadic -> "Sporadic"
  | Background -> "Background"

let pp_dispatch_protocol ppf d =
  Fmt.string ppf (dispatch_protocol_to_string d)

type overflow_handling = Drop_newest | Drop_oldest | Error

let pp_overflow_handling ppf = function
  | Drop_newest -> Fmt.string ppf "DropNewest"
  | Drop_oldest -> Fmt.string ppf "DropOldest"
  | Error -> Fmt.string ppf "Error"

type scheduling_protocol =
  | Rate_monotonic
  | Deadline_monotonic
  | Highest_priority_first  (** fixed priorities from the Priority property *)
  | Edf
  | Llf
  | Hierarchical
      (** two-level: fixed priority across thread groups, a local policy
          within each (extension; the paper's future work, Section 7) *)

let scheduling_protocol_to_string = function
  | Rate_monotonic -> "RATE_MONOTONIC_PROTOCOL"
  | Deadline_monotonic -> "DEADLINE_MONOTONIC_PROTOCOL"
  | Highest_priority_first -> "HPF_PROTOCOL"
  | Edf -> "EDF_PROTOCOL"
  | Llf -> "LLF_PROTOCOL"
  | Hierarchical -> "HIERARCHICAL_PROTOCOL"

let pp_scheduling_protocol ppf s =
  Fmt.string ppf (scheduling_protocol_to_string s)

(* Strip an optional "set::" qualifier. *)
let base_name name =
  match String.index_opt name ':' with
  | Some i when i + 1 < String.length name && name.[i + 1] = ':' ->
      String.sub name (i + 2) (String.length name - i - 2)
  | Some _ | None -> name

let matches wanted (p : Ast.prop) =
  let n = base_name p.Ast.pname in
  String.equal n (String.lowercase_ascii wanted)

(* Later associations take precedence, so scan from the end: merged
   property lists are ordered from weakest (component type) to strongest
   (contained associations). *)
let find_prop name props =
  List.fold_left (fun acc p -> if matches name p then Some p else acc) None props

let find name props = Option.map (fun p -> p.Ast.pvalue) (find_prop name props)
let loc_of name props = Option.map (fun p -> p.Ast.ploc) (find_prop name props)
let mem name props = find_prop name props <> None

(* A value of the wrong type is rejected at its association. *)
let bad name (p : Ast.prop) why = Diag.fail ~loc:p.Ast.ploc "%s: %s" name why

(* The strongest association of [name], read by [conv]. *)
let typed conv name props =
  Option.map (fun p -> conv name p p.Ast.pvalue) (find_prop name props)

let as_time name p = function
  | Ast.Ptime t -> t
  | Ast.Pint 0 -> Time.zero
  | _ -> bad name p "expected a time value"

let time_opt = typed as_time

let int_opt =
  typed (fun name p -> function
    | Ast.Pint n -> n | _ -> bad name p "expected an integer")

let time_range_opt =
  typed (fun name p -> function
    | Ast.Prange (lo, hi) -> (as_time name p lo, as_time name p hi)
    | v ->
        let t = as_time name p v in
        (t, t))

let reference_opt =
  typed (fun name p -> function
    | Ast.Preference path | Ast.Plist [ Ast.Preference path ] -> path
    | _ -> bad name p "expected a reference")

(* An enumeration property, matched case-insensitively by [of_enum];
   [list] also accepts a one-element list (AADL declares
   Scheduling_Protocol as a list). *)
let enum ?(list = false) of_enum =
  typed (fun name p v ->
      let raw =
        match v with
        | Ast.Penum s | Ast.Pstring s -> s
        | Ast.Plist [ (Ast.Penum s | Ast.Pstring s) ] when list -> s
        | _ -> bad name p "expected an enumeration identifier"
      in
      let s = String.lowercase_ascii raw in
      match of_enum s with
      | Some x -> x
      | None -> bad name p ("unknown protocol " ^ s))

(* {1 Thread properties} *)

let dispatch_protocol =
  enum
    (function
      | "periodic" -> Some Periodic
      | "aperiodic" -> Some Aperiodic
      | "sporadic" -> Some Sporadic
      | "background" -> Some Background
      | _ -> None)
    "dispatch_protocol"

let period props = time_opt "period" props

let compute_execution_time props =
  time_range_opt "compute_execution_time" props

let compute_deadline props =
  match time_opt "compute_deadline" props with
  | Some t -> Some t
  | None -> time_opt "deadline" props

let priority props =
  match int_opt "priority" props with
  | Some p -> Some p
  | None -> int_opt "source_text_priority" props

let urgency props = int_opt "urgency" props

(* {1 Port properties} *)

let queue_size props =
  match int_opt "queue_size" props with Some n -> n | None -> 1

let overflow_handling props =
  enum
    (function
      | "dropnewest" -> Some Drop_newest
      | "dropoldest" -> Some Drop_oldest
      | "error" -> Some Error
      | _ -> None)
    "overflow_handling_protocol" props
  |> Option.value ~default:Drop_newest

(* {1 Processor properties} *)

let scheduling_protocol =
  enum ~list:true
    (function
      | "rate_monotonic_protocol" | "rate_monotonic" | "rm" | "rms" ->
          Some Rate_monotonic
      | "deadline_monotonic_protocol" | "deadline_monotonic" | "dm" ->
          Some Deadline_monotonic
      | "hpf_protocol" | "highest_priority_first" | "hpf"
      | "posix_1003_highest_priority_first_protocol" | "fixed_priority" ->
          Some Highest_priority_first
      | "edf_protocol" | "earliest_deadline_first_protocol" | "edf" ->
          Some Edf
      | "llf_protocol" | "least_laxity_first_protocol" | "llf" -> Some Llf
      | "hierarchical_protocol" | "hierarchical" -> Some Hierarchical
      | _ -> None)
    "scheduling_protocol"

(* {1 Bindings} *)

let actual_processor_binding props =
  reference_opt "actual_processor_binding" props

let actual_connection_binding props =
  reference_opt "actual_connection_binding" props

(* {1 Shared data} *)

type concurrency_control =
  | No_protocol
  | Priority_ceiling
  | Priority_inheritance

let pp_concurrency_control ppf = function
  | No_protocol -> Fmt.string ppf "None_Specified"
  | Priority_ceiling -> Fmt.string ppf "Priority_Ceiling"
  | Priority_inheritance -> Fmt.string ppf "Priority_Inheritance"

let concurrency_control props =
  enum
    (function
      | "none_specified" | "none" -> Some No_protocol
      | "priority_ceiling" | "priority_ceiling_protocol" | "pcp" ->
          Some Priority_ceiling
      | "priority_inheritance" | "priority_inheritance_protocol" | "pip" ->
          Some Priority_inheritance
      | _ -> None)
    "concurrency_control_protocol" props
  |> Option.value ~default:No_protocol

(* {1 Flow / latency} *)

let latency props = time_opt "latency" props
