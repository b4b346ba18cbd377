(** Symmetry (orbit) reduction support: renamings of generated names and
    permutation classes of interchangeable parallel components.

    A translated AADL system is a restricted parallel composition
    [Restrict (L, P_0 || P_1 || ... || P_{n-1})] whose slots come from
    translation units.  When two units are generated from inputs that are
    identical up to the generated {e names} (labels and process-definition
    names), every renaming that swaps their name spaces is an automorphism
    of the prioritized transition system: swapping the two slots and
    renaming accordingly maps reachable states to reachable states,
    deadlocks to deadlocks, and preserves BFS distances.  The explorer can
    therefore visit one canonical representative per orbit ({!canon}
    sorts the interchangeable slots).

    Each member is compared with its class representative through the
    swap of their name spaces.  States are vectors of slot nodes
    ({!Node}), and an exploration keeps every member's slots in its
    class representative's names, as Ip & Dill's scalarsets keep
    states: the root is converted once ({!swap}), the successor kernel
    reads each member slot through a label view ({!views}) and leaves
    its successors in the representative's names, and the members of a
    class share one node per local state.  A canonicalization then only
    sorts the member tuples and permutes node pointers: it builds no
    name and renames no term.  The witness of a canonicalization is a
    slot permutation per class ({!canon_w}), not a renaming.  Only when
    a state is turned back into a real term ({!swap} again) or a
    counterexample trace is de-canonicalized does a caller track which
    real member sits at each canonical position and ask {!rename_step}
    for that member's names.

    The {e spec} — which slots are interchangeable, under which names —
    is established by the translation layer, which alone knows the
    derivation inputs; this module only applies it. *)

(** {1 Renamings} *)

type renaming
(** A finite bijection over generated label names and process-definition
    (Call) names; identity outside its domain.  Resources, priorities and
    expression parameters are never renamed. *)

val renaming :
  labels:(string * string) list -> calls:(string * string) list -> renaming
(** Build a renaming from (from, to) pairs.  The pairs must describe a
    bijection (disjoint domains and ranges per kind); later pairs win on
    (malformed) duplicate keys. *)

val apply_proc : renaming -> Proc.t -> Proc.t
(** Rename event labels, restriction sets, scope exception labels and
    [Call] names throughout a term. *)

(** {1 Orbit specifications} *)

type member
(** One interchangeable component: the contiguous slot range it occupies
    in the flattened parallel composition and its generated names. *)

val member :
  offset:int -> width:int -> labels:string array -> calls:string array ->
  member
(** [offset] is the index of the member's first slot, [width] its number
    of consecutive slots.  [labels] and [calls] are the member's
    generated label and process-definition names, position by position
    aligned with its class representative's: entry [k] of a member's
    [labels] plays the role of entry [k] of the representative's. *)

type cls
(** An orbit class: two or more members, the first being the
    representative. *)

val cls : member list -> cls
(** @raise Invalid_argument on fewer than two members, or members whose
    widths or name-array lengths differ. *)

type spec

val make : slots:int -> cls list -> spec
(** [slots] is the total number of parallel slots of the composed system
    (the sum of every fragment's initial-process count).  Classes whose
    member count is below two are dropped. *)

val empty : spec
val is_empty : spec -> bool

val class_sizes : spec -> int list
(** Member count per class, in class order. *)

(** {1 The representative's name space} *)

(** The spec {e fits} a frame when it is not empty and the frame is
    [Restrict (L, par-spine)] with a left-deep spine of the spec's slot
    count.  Otherwise an exploration stays unreduced: no conversion, no
    view, no canonicalization. *)

val swap : spec -> Node.table -> Frame.t -> Node.t array -> unit
(** [swap spec nodes frame slots] renames, in place, every
    non-representative member's slots through the swap of its names
    with its representative's, as nodes of [nodes]; a no-op unless the
    spec fits the frame.  A swap is its own inverse, so [swap] turns a
    vector of real terms into the representative's name space and
    back.  It renames terms, so it is for cold paths only: the root,
    and states turned back into real terms. *)

val views : spec -> Frame.t -> Semantics.views
(** The views {!Semantics.successors} reads a state in the
    representative's name space through: a member slot's view renames
    its representative's labels to the member's (and back) and orders
    terms as their real images compare; every other slot is read
    {!Semantics.plain}.  {!Semantics.no_views} unless the spec fits
    the frame. *)

val compare_renamed : renaming -> Hproc.t -> Hproc.t -> int
(** [compare_renamed r a b] is the {!Hproc.compare_structural} order of
    [a] and [b] renamed by [r], without building either
    ({!Hproc.compare_renamed} through [r]). *)

(** {1 Canonicalization} *)

val canon : spec -> Frame.t -> Node.t array -> bool
(** [canon spec frame slots] rewrites a state's vector of slot nodes, in
    the representative's name space, in place, into the canonical
    representative of its orbit; [true] when it changed.  For each
    class, the member slot tuples are ordered structurally
    ({!Hproc.compare_structural}, ties broken by member index) and
    written back as node pointers.  Only the distinct tuples
    are sorted: members whose tuples are pointer-equal are laid out
    together, in index order.

    The vector is left unchanged unless the spec fits the frame and no
    slot holds a [Par].  Deterministic and idempotent; safe to call from
    concurrent domains on distinct vectors. *)

val canon_w : spec -> Frame.t -> Node.t array -> int array array
(** [canon] plus its witness: one permutation per class, in class order.
    Entry [j] of class [c]'s array is the member whose tuple moved to
    position [j].  The identity when the state was already canonical. *)

val rename_step : spec -> int array array -> Step.t -> Step.t
(** [rename_step spec owners step] renames [step]'s label out of a
    canonical state's name space: [owners.(c).(j)] is the real member
    holding class [c]'s position [j], and a label of position [j] becomes
    the same-index label of that member.  Labels of no member, and timed
    actions, are unchanged. *)
