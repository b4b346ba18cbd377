(* The explorer's visited set.  See visited.mli. *)

open Acsr
open Bigarray

(* int32 cells outside the heap: the collector never scans them *)
type cells = (int32, int32_elt, c_layout) Array1.t

let cells n : cells = Array1.create int32 c_layout n

(* [src] in a buffer twice its size; the new cells are not initialized *)
let double (src : cells) =
  let n = Array1.dim src in
  let bigger = cells (2 * n) in
  Array1.blit src (Array1.sub bigger 0 n);
  bigger

type t = {
  nodes : Node.table;
  width : int;
  mutable arena : cells;  (* by id: the node ids of its vector *)
  mutable hashes : cells;  (* by id: the low 32 bits of its Frame.hash *)
  mutable table : cells;  (* id + 1 by probe position; 0 is empty *)
  mutable mask : int;  (* Array1.dim table - 1 *)
  mutable len : int;
}

let create nodes ~width =
  let table = cells 1024 in
  Array1.fill table 0l;
  {
    nodes;
    width;
    arena = cells (64 * width);
    hashes = cells 64;
    table;
    mask = 1023;
    len = 0;
  }

let length t = t.len
let capacity t = Array1.dim t.table

let bytes t =
  4 * (Array1.dim t.arena + Array1.dim t.hashes + Array1.dim t.table)

let get t id =
  if id < 0 || id >= t.len then invalid_arg "Visited.get";
  let by_id = Node.by_id t.nodes and base = id * t.width in
  let v = Array.make t.width Node.dummy in
  for s = 0 to t.width - 1 do
    Array.unsafe_set v s
      (Array.unsafe_get by_id
         (Int32.to_int (Array1.unsafe_get t.arena (base + s))))
  done;
  v

(* Re-place every id in a table twice the size, by its cached hash. *)
let grow t =
  let size = 2 * Array1.dim t.table in
  let table = cells size and mask = size - 1 in
  Array1.fill table 0l;
  for id = 0 to t.len - 1 do
    let i = ref (Int32.to_int (Array1.unsafe_get t.hashes id) land mask) in
    while Array1.unsafe_get table !i <> 0l do
      i := (!i + 1) land mask
    done;
    Array1.unsafe_set table !i (Int32.of_int (id + 1))
  done;
  t.table <- table;
  t.mask <- mask

let add t (v : Node.t array) h i =
  let id = t.len in
  if id = Array1.dim t.hashes then begin
    t.hashes <- double t.hashes;
    t.arena <- double t.arena
  end;
  let base = id * t.width in
  for s = 0 to t.width - 1 do
    Array1.unsafe_set t.arena (base + s)
      (Int32.of_int (Array.unsafe_get v s).Node.id)
  done;
  Array1.unsafe_set t.hashes id (Int32.of_int h);
  Array1.unsafe_set t.table i (Int32.of_int (id + 1));
  t.len <- id + 1;
  if 2 * t.len > Array1.dim t.table then grow t;
  id

(* Cells [base + s .. base + width) of the arena hold the node ids of
   [v]'s slots [s ..]. *)
let rec holds (arena : cells) base (v : Node.t array) s width =
  s = width
  || Int32.to_int (Array1.unsafe_get arena (base + s))
     = (Array.unsafe_get v s).Node.id
     && holds arena base v (s + 1) width

(* Probe from position [i] for [v], of hash [h]: a [Frame.hash] cut to
   its low 32 bits, as [hashes] keeps it. *)
let rec probe t v h i =
  let e = Int32.to_int (Array1.unsafe_get t.table i) in
  if e = 0 then add t v h i
  else
    let id = e - 1 in
    if
      Int32.to_int (Array1.unsafe_get t.hashes id) = h
      && holds t.arena (id * t.width) v 0 t.width
    then id
    else probe t v h ((i + 1) land t.mask)

let intern t v =
  if Array.length v <> t.width then invalid_arg "Visited.intern";
  let h = Int32.to_int (Int32.of_int (Frame.hash v)) in
  probe t v h (h land t.mask)
