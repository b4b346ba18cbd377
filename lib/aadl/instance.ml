(* The instance model: the tree obtained by instantiating a root system
   implementation.  The paper's translation applies to "completely
   instantiated and bound" models (Section 4.1); this is that object. *)

type t = {
  name : string;  (** subcomponent name; root carries the impl name *)
  path : string list;  (** path from the root, [] for the root itself *)
  category : Ast.category;
  classifier : string option;
  features : Ast.feature list;
  props : Ast.prop list;
      (** merged associations, ordered weakest-to-strongest: component
          type, implementation, subcomponent, contained (applies to) *)
  connections : Ast.connection list;
      (** connections declared by this instance's implementation *)
  modes : Ast.mode list;
  transitions : Ast.mode_transition list;
  in_modes : string list;
      (** modes of the parent in which this instance is active;
          empty = all *)
  children : t list;
  loc : Ast.srcloc;
      (** the subcomponent declaration (the implementation for the
          root); [Ast.no_loc] when read from instance XML *)
}

let initial_mode inst =
  match List.find_opt (fun m -> m.Ast.mode_initial) inst.modes with
  | Some m -> Some m.Ast.mode_name
  | None -> (
      match inst.modes with m :: _ -> Some m.Ast.mode_name | [] -> None)

let is_modal inst = List.length inst.modes > 1

let pp_path ppf path =
  match path with
  | [] -> Fmt.string ppf "<root>"
  | _ -> Fmt.(list ~sep:(any ".") string) ppf path

let path_to_string path = Fmt.str "%a" pp_path path

let rec child_named name = function
  | [] -> None
  | c :: rest -> if Name.equal c.name name then Some c else child_named name rest

let rec find inst = function
  | [] -> Some inst
  | name :: rest -> (
      match child_named name inst.children with
      | Some child -> find child rest
      | None -> None)

let find_exn inst path =
  match find inst path with
  | Some i -> i
  | None ->
      invalid_arg (Fmt.str "Instance.find_exn: no instance %a" pp_path path)

(* Pre-order fold over the instance tree. *)
let rec fold f acc inst = List.fold_left (fold f) (f acc inst) inst.children

let iter f inst = fold (fun () i -> f i) () inst

let all inst = List.rev (fold (fun acc i -> i :: acc) [] inst)

let by_category cat inst =
  List.filter (fun i -> i.category = cat) (all inst)

let threads inst = by_category Ast.Thread inst
let processors inst = by_category Ast.Processor inst
let buses inst = by_category Ast.Bus inst
let devices inst = by_category Ast.Device inst
let data_components inst = by_category Ast.Data inst

let feature_opt inst name =
  List.find_opt (fun f -> Name.equal f.Ast.fname name) inst.features

let is_thread_or_device inst =
  match inst.category with
  | Ast.Thread | Ast.Device -> true
  | Ast.System | Ast.Process | Ast.Thread_group | Ast.Subprogram | Ast.Data
  | Ast.Processor | Ast.Memory | Ast.Bus ->
      false

(* Resolve a reference path: first as absolute from [root], then relative
   to [from] and each of its ancestors, mirroring how AADL name resolution
   searches enclosing namespaces. *)
let resolve_reference ~root ~from path =
  (* the instances along [from], innermost namespace first, ending with
     the root (which resolves the path absolutely); the walk stops at the
     first segment of [from] that names no instance, so the scopes are
     those of the longest prefix of [from] that resolves *)
  let rec scopes inst acc = function
    | [] -> inst :: acc
    | name :: rest -> (
        match child_named name inst.children with
        | Some child -> scopes child (inst :: acc) rest
        | None -> inst :: acc)
  in
  List.find_map (fun scope -> find scope path) (scopes root [] from)

let rec pp ppf inst =
  Fmt.pf ppf "@[<v 2>%s: %a%a%s@,%a@]" inst.name Ast.pp_category inst.category
    Fmt.(option (any " " ++ string))
    inst.classifier
    (if inst.children = [] then "" else " {")
    Fmt.(list ~sep:cut pp)
    inst.children;
  if inst.children <> [] then Fmt.pf ppf "}"
