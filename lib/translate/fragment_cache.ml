(* A digest-addressed store of realized fragments.

   The cache returns the previously generated fragment by physical
   identity when a spec's digest matches, so re-translating a model
   after a local edit re-generates only the changed units.  A cache has
   one owner: a sensitivity sweep, say, probes it from one domain. *)

type t = (string, Fragment.t) Hashtbl.t

let create () = Hashtbl.create 64

let find_or_realize t (spec : Fragment.spec) : Fragment.t * bool =
  if not (Fragment.spec_cacheable spec) then (Fragment.realize spec, false)
  else
    let digest = Fragment.spec_digest spec in
    match Hashtbl.find_opt t digest with
    | Some frag -> (frag, true)
    | None ->
        let frag = Fragment.realize spec in
        Hashtbl.replace t digest frag;
        (frag, false)
