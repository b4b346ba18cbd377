(* Wire schema for service jobs: request decoding, outcome encoding,
   and the JSON-lines manifest reader.  See job.mli. *)

type source = File of string | Inline of string

type request = {
  id : string;
  source : source;
  root : string option;
  protocol : Aadl.Props.scheduling_protocol option;
  quantum_us : int option;
  max_states : int;
  timeout_s : float option;
  priority : int;
}

let default_max_states = 2_000_000

let request ?root ?protocol ?quantum_us ?(max_states = default_max_states)
    ?timeout_s ?(priority = 0) ~id source =
  { id; source; root; protocol; quantum_us; max_states; timeout_s; priority }

type verdict =
  | Schedulable
  | Not_schedulable of { violation_time : int; scenario : string }
  | Bounded of { analytic_schedulable : bool; method_ : string }
  | Unknown of string
  | Cancelled
  | Failed of string

let verdict_tag = function
  | Schedulable -> "schedulable"
  | Not_schedulable _ -> "not_schedulable"
  | Bounded _ -> "bounded"
  | Unknown _ -> "unknown"
  | Cancelled -> "cancelled"
  | Failed _ -> "error"

type outcome = {
  id : string;
  verdict : verdict;
  states : int;
  cached : bool;
  degraded : bool;
  wall_s : float;
}

let protocol_of_string s =
  match String.lowercase_ascii s with
  | "rm" | "rate_monotonic" -> Ok Aadl.Props.Rate_monotonic
  | "dm" | "deadline_monotonic" -> Ok Aadl.Props.Deadline_monotonic
  | "hpf" | "fixed" -> Ok Aadl.Props.Highest_priority_first
  | "edf" -> Ok Aadl.Props.Edf
  | "llf" -> Ok Aadl.Props.Llf
  | "hier" | "hierarchical" -> Ok Aadl.Props.Hierarchical
  | other -> Error (Printf.sprintf "unknown protocol %S" other)

let ( let* ) = Result.bind

(* Fields are decoded in a fixed order and the first bad one is
   reported; a manifest decodes thousands of these, so the decoder
   raises a local exception rather than chaining result closures. *)
let request_of_json json =
  match json with
  | Json.Obj _ -> (
      match Option.bind (Json.member "id" json) Json.to_str with
      | None -> Error "missing string field \"id\""
      | Some "" -> Error "field \"id\" must be non-empty"
      | Some id -> (
          let exception Bad of string in
          let bad msg = raise (Bad (Printf.sprintf "request %S: %s" id msg)) in
          let field key decode what =
            match Json.member key json with
            | None | Some Json.Null -> None
            | Some v -> (
                match decode v with
                | Some x -> Some x
                | None -> bad (Printf.sprintf "field %S must be %s" key what))
          in
          try
            let file = field "file" Json.to_str "a string" in
            let model = field "model" Json.to_str "a string" in
            let source =
              match (file, model) with
              | Some f, None -> File f
              | None, Some m -> Inline m
              | Some _, Some _ -> bad "give either \"file\" or \"model\", not both"
              | None, None -> bad "one of \"file\" or \"model\" is required"
            in
            let root = field "root" Json.to_str "a string" in
            let protocol =
              Option.map
                (fun name ->
                  match protocol_of_string name with
                  | Ok p -> p
                  | Error m -> bad m)
                (field "protocol" Json.to_str "a string")
            in
            let quantum_us = field "quantum_us" Json.to_int "an integer" in
            Option.iter
              (fun us ->
                if not (Aadl.Time.fits us Aadl.Time.Us) then
                  bad
                    (Printf.sprintf
                       "field \"quantum_us\" (%d) does not fit in the \
                        nanosecond time range"
                       us))
              quantum_us;
            let max_states =
              field "max_states"
                (fun v ->
                  Option.bind (Json.to_int v) (fun n ->
                      if n > 0 then Some n else None))
                "a positive integer"
            in
            let timeout_s =
              field "timeout_s"
                (fun v ->
                  Option.bind (Json.to_float v) (fun s ->
                      if s >= 0. then Some s else None))
                "a non-negative number"
            in
            let priority = field "priority" Json.to_int "an integer" in
            Ok
              {
                id;
                source;
                root;
                protocol;
                quantum_us;
                max_states = Option.value max_states ~default:default_max_states;
                timeout_s;
                priority = Option.value priority ~default:0;
              }
          with Bad msg -> Error msg))
  | _ -> Error "request must be a JSON object"

let protocol_to_string = function
  | Aadl.Props.Rate_monotonic -> "rm"
  | Aadl.Props.Deadline_monotonic -> "dm"
  | Aadl.Props.Highest_priority_first -> "hpf"
  | Aadl.Props.Edf -> "edf"
  | Aadl.Props.Llf -> "llf"
  | Aadl.Props.Hierarchical -> "hier"

(* Inverse of [request_of_json]; optional fields are omitted when they
   hold their defaults, so re-encoding a decoded line is stable. *)
let request_to_json (r : request) =
  let opt key encode = function
    | None -> []
    | Some v -> [ (key, encode v) ]
  in
  Json.Obj
    ([ ("id", Json.String r.id) ]
    @ (match r.source with
      | File path -> [ ("file", Json.String path) ]
      | Inline text -> [ ("model", Json.String text) ])
    @ opt "root" (fun s -> Json.String s) r.root
    @ opt "protocol" (fun p -> Json.String (protocol_to_string p)) r.protocol
    @ opt "quantum_us" (fun n -> Json.Int n) r.quantum_us
    @ (if r.max_states = default_max_states then []
       else [ ("max_states", Json.Int r.max_states) ])
    @ opt "timeout_s" (fun s -> Json.Float s) r.timeout_s
    @ if r.priority = 0 then [] else [ ("priority", Json.Int r.priority) ])

let outcome_to_json (o : outcome) =
  let specific =
    match o.verdict with
    | Schedulable | Cancelled -> []
    | Not_schedulable { violation_time; scenario } ->
        [
          ("violation_time", Json.Int violation_time);
          ("scenario", Json.String scenario);
        ]
    | Bounded { analytic_schedulable; method_ } ->
        [
          ("analytic_schedulable", Json.Bool analytic_schedulable);
          ("method", Json.String method_);
        ]
    | Unknown reason | Failed reason -> [ ("reason", Json.String reason) ]
  in
  Json.Obj
    ([ ("id", Json.String o.id); ("verdict", Json.String (verdict_tag o.verdict)) ]
    @ specific
    @ [
        ("states", Json.Int o.states);
        ("cached", Json.Bool o.cached);
        ("degraded", Json.Bool o.degraded);
        ("wall_s", Json.Float o.wall_s);
      ])

(* The inverse of [outcome_to_json] — the journal replays stored
   verdicts through this, and [batch --connect] decodes live-service
   replies with it, so it accepts exactly what [outcome_to_json]
   produces. *)
let outcome_of_json json =
  match json with
  | Json.Obj _ ->
      let* id =
        match Option.bind (Json.member "id" json) Json.to_str with
        | Some id -> Ok id
        | None -> Error "outcome: missing string field \"id\""
      in
      let str key = Option.bind (Json.member key json) Json.to_str in
      let* verdict =
        match str "verdict" with
        | None -> Error "outcome: missing string field \"verdict\""
        | Some "schedulable" -> Ok Schedulable
        | Some "cancelled" -> Ok Cancelled
        | Some "not_schedulable" -> (
            match
              ( Option.bind (Json.member "violation_time" json) Json.to_int,
                str "scenario" )
            with
            | Some violation_time, Some scenario ->
                Ok (Not_schedulable { violation_time; scenario })
            | _ -> Error "outcome: not_schedulable needs violation_time/scenario")
        | Some "bounded" -> (
            match
              ( Option.bind (Json.member "analytic_schedulable" json) Json.to_bool,
                str "method" )
            with
            | Some analytic_schedulable, Some method_ ->
                Ok (Bounded { analytic_schedulable; method_ })
            | _ -> Error "outcome: bounded needs analytic_schedulable/method")
        | Some "unknown" -> (
            match str "reason" with
            | Some reason -> Ok (Unknown reason)
            | None -> Error "outcome: unknown needs a reason")
        | Some "error" -> (
            match str "reason" with
            | Some reason -> Ok (Failed reason)
            | None -> Error "outcome: error needs a reason")
        | Some other -> Error (Printf.sprintf "outcome: unknown verdict %S" other)
      in
      let* states =
        match Option.bind (Json.member "states" json) Json.to_int with
        | Some n -> Ok n
        | None -> Error "outcome: missing integer field \"states\""
      in
      let flag key =
        Option.value ~default:false
          (Option.bind (Json.member key json) Json.to_bool)
      in
      let wall_s =
        Option.value ~default:0.
          (Option.bind (Json.member "wall_s" json) Json.to_float)
      in
      Ok
        {
          id;
          verdict;
          states;
          cached = flag "cached";
          degraded = flag "degraded";
          wall_s;
        }
  | _ -> Error "outcome must be a JSON object"

(* Lines are cut from the text one at a time, so a long manifest is
   never held as a list of line copies. *)
let parse_manifest text =
  let n = String.length text in
  let rec go lineno acc start =
    if start > n then Ok (List.rev acc)
    else
      let stop =
        match String.index_from_opt text start '\n' with
        | Some i -> i
        | None -> n
      in
      let trimmed = String.trim (String.sub text start (stop - start)) in
      if trimmed = "" || trimmed.[0] = '#' then go (lineno + 1) acc (stop + 1)
      else
        let parsed =
          let* json = Json.parse trimmed in
          request_of_json json
        in
        match parsed with
        | Ok req -> go (lineno + 1) (req :: acc) (stop + 1)
        | Error msg -> Error (Printf.sprintf "line %d: %s" lineno msg)
  in
  go 1 [] 0
