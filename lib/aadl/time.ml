(* AADL time values with units (AS5506 Time property type).  All values are
   normalized to an integer number of nanoseconds; model periods are far
   below the 63-bit range. *)

type unit_ = Ps | Ns | Us | Ms | Sec | Min | Hr

type t = int (* nanoseconds *)

let ns_per = function
  | Ps -> 0 (* handled separately *)
  | Ns -> 1
  | Us -> 1_000
  | Ms -> 1_000_000
  | Sec -> 1_000_000_000
  | Min -> 60_000_000_000
  | Hr -> 3_600_000_000_000

let make value unit_ =
  match unit_ with
  | Ps ->
      if value mod 1000 <> 0 then
        invalid_arg (Fmt.str "Time.make: %d ps is not whole nanoseconds" value)
      else value / 1000
  | u -> value * ns_per u

let zero = 0
let of_ns ns = ns
let to_ns t = t
let of_ms ms = make ms Ms
let add = ( + )
let compare = Int.compare
let equal = Int.equal
let is_zero t = t = 0

let unit_of_string s =
  match String.lowercase_ascii s with
  | "ps" -> Some Ps
  | "ns" -> Some Ns
  | "us" -> Some Us
  | "ms" -> Some Ms
  | "sec" | "s" -> Some Sec
  | "min" -> Some Min
  | "hr" | "h" -> Some Hr
  | _ -> None

let unit_to_string = function
  | Ps -> "ps"
  | Ns -> "ns"
  | Us -> "us"
  | Ms -> "ms"
  | Sec -> "sec"
  | Min -> "min"
  | Hr -> "hr"

(* Express a time value as an integral number of scheduling quanta,
   rounding up (conservative for execution times and exact for the usual
   case of multiples). *)
let to_quanta ~quantum t =
  if to_ns quantum <= 0 then invalid_arg "Time.to_quanta: quantum <= 0";
  (to_ns t + to_ns quantum - 1) / to_ns quantum

(* Same, rounding down; used for deadlines/periods where rounding up would
   be optimistic. *)
let to_quanta_floor ~quantum t =
  if to_ns quantum <= 0 then invalid_arg "Time.to_quanta_floor: quantum <= 0";
  to_ns t / to_ns quantum

let pp ppf t =
  let ns = to_ns t in
  if ns = 0 then Fmt.string ppf "0"
  else if ns mod 1_000_000_000 = 0 then Fmt.pf ppf "%d sec" (ns / 1_000_000_000)
  else if ns mod 1_000_000 = 0 then Fmt.pf ppf "%d ms" (ns / 1_000_000)
  else if ns mod 1_000 = 0 then Fmt.pf ppf "%d us" (ns / 1_000)
  else Fmt.pf ppf "%d ns" ns
