(* The explorer's visited set.  See visited.mli. *)

open Acsr

(* Int32 cells in bytes, which the collector never scans and, unlike a
   Bigarray's custom block, does not count against its schedule: a
   store growing by chunks would otherwise bring the next major cycle
   closer with each one. *)
type cells = Bytes.t

external get32 : Bytes.t -> int -> int32 = "%caml_bytes_get32u"
external set32 : Bytes.t -> int -> int32 -> unit = "%caml_bytes_set32u"

let cells n : cells = Bytes.create (4 * n)
let[@inline] dim (c : cells) = Bytes.length c / 4
let[@inline] cell (c : cells) i = Int32.to_int (get32 c (4 * i))
let[@inline] set_cell (c : cells) i x = set32 c (4 * i) (Int32.of_int x)

module Chunks = struct
  (* Entry [i] is the [stride] cells from [(i land mask) * stride] of
     chunk [i lsr shift]; every chunk holds [mask + 1] entries.  The
     slots of [chunks] past [used] repeat chunk 0 until a chunk is
     added there. *)
  type t = {
    stride : int;
    shift : int;
    mask : int;
    mutable chunks : cells array;
    mutable used : int;
  }

  (* cells per chunk, at most: 16 KiB *)
  let chunk_cells = 4_096

  let create ~stride =
    let rec fit shift =
      if stride lsl (shift + 1) <= chunk_cells then fit (shift + 1) else shift
    in
    let shift = fit 0 in
    {
      stride;
      shift;
      mask = (1 lsl shift) - 1;
      chunks = [| cells (stride lsl shift) |];
      used = 1;
    }

  (* Make room for entry [i], at most one past the last entry with
     room: a new chunk when [i] starts one. *)
  let reserve t i =
    if i lsr t.shift >= t.used then begin
      if t.used = Array.length t.chunks then begin
        let bigger = Array.make (2 * t.used) t.chunks.(0) in
        Array.blit t.chunks 0 bigger 0 t.used;
        t.chunks <- bigger
      end;
      t.chunks.(t.used) <- cells (t.stride lsl t.shift);
      t.used <- t.used + 1
    end

  let get t i s =
    cell t.chunks.(i lsr t.shift) (((i land t.mask) * t.stride) + s)

  let set t i s x =
    set_cell t.chunks.(i lsr t.shift) (((i land t.mask) * t.stride) + s) x

  let bytes t = 4 * t.used * (t.stride lsl t.shift)
end

(* Entry [id] of [arena] is the low 32 bits of the vector's
   [Frame.hash], then the node ids of its slots. *)
type t = {
  nodes : Node.table;
  width : int;
  arena : Chunks.t;
  mutable table : cells;  (* id + 1 by probe position; 0 is empty *)
  mutable mask : int;  (* dim table - 1 *)
  mutable len : int;
}

let create nodes ~width =
  {
    nodes;
    width;
    arena = Chunks.create ~stride:(width + 1);
    table = Bytes.make (4 * 1024) '\000';
    mask = 1023;
    len = 0;
  }

let length t = t.len
let capacity t = dim t.table
let bytes t = Chunks.bytes t.arena + Bytes.length t.table

let get t id =
  if id < 0 || id >= t.len then invalid_arg "Visited.get";
  let by_id = Node.by_id t.nodes and a = t.arena in
  let chunk = a.chunks.(id lsr a.shift)
  and base = (id land a.mask) * a.stride in
  let v = Array.make t.width Node.dummy in
  for s = 0 to t.width - 1 do
    Array.unsafe_set v s
      (Array.unsafe_get by_id (cell chunk (base + 1 + s)))
  done;
  v

(* Re-place every id in a table twice the size, by its cached hash. *)
let grow t =
  let size = 2 * dim t.table in
  let table = Bytes.make (4 * size) '\000' and mask = size - 1 in
  for id = 0 to t.len - 1 do
    let i = ref (Chunks.get t.arena id 0 land mask) in
    while cell table !i <> 0 do
      i := (!i + 1) land mask
    done;
    set_cell table !i (id + 1)
  done;
  t.table <- table;
  t.mask <- mask

let add t (v : Node.t array) h i =
  let id = t.len and a = t.arena in
  Chunks.reserve a id;
  let chunk = a.chunks.(id lsr a.shift)
  and base = (id land a.mask) * a.stride in
  set_cell chunk base h;
  for s = 0 to t.width - 1 do
    set_cell chunk (base + 1 + s) (Array.unsafe_get v s).Node.id
  done;
  set_cell t.table i (id + 1);
  t.len <- id + 1;
  if 2 * t.len > dim t.table then grow t;
  id

(* Cells [base + 1 + s ..] of [chunk] hold the node ids of [v]'s slots
   [s .. width). *)
let rec holds (chunk : cells) base (v : Node.t array) s width =
  s = width
  || cell chunk (base + 1 + s) = (Array.unsafe_get v s).Node.id
     && holds chunk base v (s + 1) width

(* Probe from position [i] for [v], of hash [h]: a [Frame.hash] cut to
   its low 32 bits, as the arena keeps it. *)
let rec probe t v h i =
  let e = cell t.table i in
  if e = 0 then add t v h i
  else
    let id = e - 1 and a = t.arena in
    let chunk = a.chunks.(id lsr a.shift)
    and base = (id land a.mask) * a.stride in
    if
      cell chunk base = h
      && holds chunk base v 0 t.width
    then id
    else probe t v h ((i + 1) land t.mask)

let intern t v =
  if Array.length v <> t.width then invalid_arg "Visited.intern";
  let h = Int32.to_int (Int32.of_int (Frame.hash v)) in
  probe t v h (h land t.mask)
