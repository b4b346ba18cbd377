(* Symbol table over the declarations of a parsed model: component types by
   name and implementations by "type.impl" name, case-insensitive. *)

type t = {
  types : (string, Ast.component_type) Hashtbl.t;
  impls : (string, Ast.component_impl) Hashtbl.t;
}

let key = String.lowercase_ascii

let of_model (m : Ast.model) =
  let t = { types = Hashtbl.create 32; impls = Hashtbl.create 32 } in
  let add table name loc x =
    if Hashtbl.mem table (key name) then
      Diag.fail ~loc ~subject:[ name ] "declared more than once";
    Hashtbl.add table (key name) x
  in
  List.iter
    (fun decl ->
      let name = Ast.decl_name decl in
      match decl with
      | Ast.Type_decl ct -> add t.types name ct.Ast.ct_loc ct
      | Ast.Impl_decl ci -> add t.impls name ci.Ast.ci_loc ci)
    m.Ast.decls;
  t

let find_type_opt t name = Hashtbl.find_opt t.types (key name)
let find_impl_opt t name = Hashtbl.find_opt t.impls (key name)

(* A classifier reference is either a type name or a "type.impl" name. *)
type classifier =
  | Type_only of Ast.component_type
  | Type_and_impl of Ast.component_type * Ast.component_impl

let resolve_classifier t name =
  match String.index_opt name '.' with
  | None -> Option.map (fun ct -> Type_only ct) (find_type_opt t name)
  | Some _ ->
      Option.bind (find_impl_opt t name) (fun ci ->
          Option.map
            (fun ct -> Type_and_impl (ct, ci))
            (find_type_opt t ci.Ast.ci_type_name))

let impls t = Hashtbl.fold (fun _ ci acc -> ci :: acc) t.impls []
