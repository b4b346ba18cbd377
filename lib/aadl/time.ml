(* AADL time values with units (AS5506 Time property type).  All values are
   normalized to an integer number of nanoseconds; a value whose
   nanosecond count leaves the 63-bit range is rejected, not wrapped. *)

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

let unit_to_string = function
  | Ps -> "ps"
  | Ns -> "ns"
  | Us -> "us"
  | Ms -> "ms"
  | Sec -> "sec"
  | Min -> "min"
  | Hr -> "hr"

let fits value = function
  | Ps | Ns -> true
  | u ->
      let k = ns_per u in
      value <= max_int / k && value >= min_int / k

let make value unit_ =
  match unit_ with
  | Ps ->
      if value mod 1000 <> 0 then
        invalid_arg (Fmt.str "Time.make: %d ps is not whole nanoseconds" value)
      else value / 1000
  | u ->
      if not (fits value u) then
        invalid_arg
          (Fmt.str "Time.make: %d %s overflows the nanosecond range" value
             (unit_to_string u));
      value * ns_per u

let zero = 0
let of_ns ns = ns
let to_ns t = t
let of_ms ms = make ms Ms
let add = ( + )
let compare = Int.compare
let equal = Int.equal
let is_zero t = t = 0

(* Case-insensitive, and called on every identifier that follows an
   integer literal, so it compares in place. *)
let units =
  [
    ("ps", Some Ps); ("ns", Some Ns); ("us", Some Us); ("ms", Some Ms);
    ("sec", Some Sec); ("s", Some Sec); ("min", Some Min); ("hr", Some Hr);
    ("h", Some Hr);
  ]

let rec unit_in s = function
  | [] -> None
  | (name, u) :: rest -> if Name.equal s name then u else unit_in s rest

let unit_of_string s = unit_in s units

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
