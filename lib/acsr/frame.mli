(** The fixed frame of an explored system, and states as slot vectors.

    A translated system is [Restrict (L, P_0 || ... || P_{n-1})], and
    every state reachable from it is the same frame — the restriction
    [L] and the [Par] spine — with different slot terms [P_i] (paper,
    Sections 4–5).  The explorer therefore splits the root once and
    keeps each state as the vector of its slot terms' {!Node}s: the
    spine and the restriction are never rebuilt or interned per state,
    and a term is materialized only when a caller asks for one.

    The slots of a [Par] tree are its leaves: the maximal subterms that
    are not themselves a [Par], left to right.  A root that is not a
    system — neither a [Par] nor a [Restrict] over one — is a 1-slot
    frame.  A slot whose term later becomes a [Par] stays one opaque
    slot, whose steps the kernel computes on a frame of its own and
    without its memo ({!Semantics}); translated AADL models, latency
    observers included, never have one, only textual ACSR models
    can. *)

type t

val split : Node.table -> Hproc.t -> t * Node.t array
(** [split nodes root] is the frame and slot vector of a root of
    [Node.terms nodes], as nodes of [nodes]:
    [Restrict (L, tree)] and a bare [tree], where [tree] is a [Par],
    give the leaves of [tree] under restriction [L] (none for a bare
    tree); any other root gives the 1-slot frame [[|root|]]. *)

val terms : t -> Hproc.table
(** The split root's intern table. *)

val restriction : t -> Label.Set.t option
(** The labels the frame restricts, if the root was a [Restrict]. *)

val hidden : t -> Bytes.t
(** The frame's restriction by label id ({!Hproc.label_id} in
    {!terms}): ['\001'] for a restricted label, ['\000'] for a visible
    one; ids past its length are visible.  The successor kernel reads
    it once per state and then tests bytes. *)

val width : t -> int
(** Number of slots. *)

val left_deep : t -> bool
(** The spine is left-associated, [Par (... Par (p0, p1) ..., p_{n-1})],
    as [Proc.par_list] builds it.  Checked once, when the frame is
    split. *)

val materialize : t -> Node.t array -> Hproc.t
(** The term of a slot vector: the spine with slot [i] replaced by
    entry [i]'s term, under the restriction, interned in {!terms}.
    [materialize f (snd (split nodes r))] is [r]. *)

(** {1 Slot vectors as state keys} *)

val equal : Node.t array -> Node.t array -> bool
(** Slot-wise physical equality: over one frame and one node table, the
    same as equality of the materialized terms, in O(width). *)

val hash : Node.t array -> int
(** Mixes the slots' term hashes ({!Hproc.hash}); non-negative. *)
