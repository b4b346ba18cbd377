(* The explorer's visited set.  See visited.mli. *)

open Acsr

type t = {
  mutable table : int array;  (* id + 1 by probe position; 0 is empty *)
  mutable mask : int;  (* Array.length table - 1 *)
  mutable states : Node.t array array;  (* by id *)
  mutable hashes : int array;  (* by id: Frame.hash of its vector *)
  mutable len : int;
}

let create () =
  {
    table = Array.make 2048 0;
    mask = 2047;
    states = Array.make 1024 [||];
    hashes = Array.make 1024 0;
    len = 0;
  }

let length t = t.len
let get t id = t.states.(id)
let capacity t = Array.length t.table

let double dummy src =
  let n = Array.length src in
  let bigger = Array.make (2 * n) dummy in
  Array.blit src 0 bigger 0 n;
  bigger

(* Re-place every id in a table twice the size, by its cached hash. *)
let grow t =
  let size = 2 * Array.length t.table in
  let table = Array.make size 0 and mask = size - 1 in
  for id = 0 to t.len - 1 do
    let i = ref (t.hashes.(id) land mask) in
    while table.(!i) <> 0 do
      i := (!i + 1) land mask
    done;
    table.(!i) <- id + 1
  done;
  t.table <- table;
  t.mask <- mask

let add t v h i =
  let id = t.len in
  if id = Array.length t.states then begin
    t.states <- double [||] t.states;
    t.hashes <- double 0 t.hashes
  end;
  t.states.(id) <- v;
  t.hashes.(id) <- h;
  t.table.(i) <- id + 1;
  t.len <- id + 1;
  if 2 * t.len > Array.length t.table then grow t;
  id

(* Probe from position [i] for [v], of hash [h]. *)
let rec probe t v h i =
  let e = Array.unsafe_get t.table i in
  if e = 0 then add t v h i
  else
    let id = e - 1 in
    if Array.unsafe_get t.hashes id = h && Frame.equal t.states.(id) v then id
    else probe t v h ((i + 1) land t.mask)

let intern t v =
  let h = Frame.hash v in
  probe t v h (h land t.mask)
