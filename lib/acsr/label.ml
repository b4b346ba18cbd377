(* Event labels for instantaneous ACSR communication steps.  A label names a
   channel; an output [l!] synchronizes with an input [l?] on the same label,
   producing an internal step tagged [tau@l].  Labels carry no global
   id: an exploration numbers the labels it compiles in its own intern
   table ([Hproc.label_id]). *)

type t = string

let make name =
  if String.length name = 0 then invalid_arg "Label.make: empty name";
  name

let name l = l
let compare = String.compare
let equal = String.equal
let pp ppf l = Fmt.string ppf l

module Set = Set.Make (String)
module Map = Map.Make (String)

(* [Set.of_list] builds different trees for different input orders, so
   structurally comparing terms that embed sets (as [Proc.equal] does)
   needs sets built canonically: insert in sorted order. *)
let set_of_list l =
  List.fold_left (fun s x -> Set.add x s) Set.empty
    (List.sort_uniq String.compare l)

let canonical_set s = set_of_list (Set.elements s)

let pp_set ppf s =
  Fmt.pf ppf "{%a}" Fmt.(list ~sep:comma pp) (Set.elements s)
