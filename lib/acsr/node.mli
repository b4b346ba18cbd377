(** Slot nodes: one record per distinct slot term of an exploration.

    The explorer keeps a state as a vector of slot terms over a fixed
    {!Frame}, and the same few slot terms recur in almost every state
    (paper, Sections 4–5).  A node holds what the successor kernel and
    orbit canonicalization would otherwise recompute or look up per
    state: the term's step set compiled into arrays, with each step's
    target node cached on its edge once resolved, and into one int
    array, its {!section-code}, which is all the kernel scans per state.
    After the first states, expanding a state reads node fields only:
    no hash, no string compare per slot, and no record of a step that
    does not survive.

    Under an orbit reduction ({!Symmetry}) a member's slots hold their
    terms renamed into the class representative's names, so the
    members of a class share their nodes: each local state is compiled
    once per class, not once per member.

    Nodes come from a {!table}, one per exploration, over its intern
    table: one node per term, so nodes compare by pointer exactly as
    their terms do.  A table is
    sound for one definition environment only — a [Call] name means
    different things under different definitions — so every
    exploration creates its own. *)

type t = private {
  term : Hproc.t;
  hash : int;  (** [Hproc.hash term] *)
  par : bool;  (** [term] is a [Par] *)
  id : int;
      (** dense in its table, in creation order: the first node a table
          makes is 0, the next 1, and so on; -1 for {!dummy} *)
  mutable steps : steps;
      (** the term's unprioritized step set; {!uncompiled} until the
          successor kernel first reads it *)
}

and steps = private {
  code : int array;
      (** the integers the successor kernel scans, so that a state's
          scan reads one array per slot: see {!section-code} *)
  code_id : int;
      (** the id of [code] in its table: step sets whose codes are
          equal share it, others do not (-1 for {!uncompiled}).  Dense
          from 0, in the order the codes were first compiled.  The
          kernel's plans are keyed on these ids
          ({!Semantics.successors}): equal codes give equal steps,
          since label and resource ids name labels and resources one to
          one within an exploration *)
  offers : offer array;  (** event steps *)
  taus : edge array;  (** internal steps *)
  timed : timed array;  (** timed actions *)
}

and offer = private { label : Label.t; edge : edge }
and timed = private { action : Action.ground; tick : edge }

and edge = private {
  step : Step.t;
  next : Hproc.t;
  mutable target : t;  (** the node of [next]; {!dummy} until resolved *)
}

(** {1:code The integer code of a step set}

    [code.(num_taus)], [code.(num_offers)] and [code.(num_timed)] count
    the three kinds of step, [code.(offers_at)] and [code.(timed_at)]
    are where their parts start, and [code.(ins)] and [code.(outs)] are
    the {!bit}s of the input and the output offers' label ids; the
    internal steps start at {!taus_at}.  In list order, as the record arrays:
    - internal step [t], at [taus_at + tau_width * t]: the
      {!Hproc.label_id} of its [tau\@l] label (-1 for a plain [tau]),
      then its priority;
    - offer [a], at [code.(offers_at) + offer_width * a]: its label id,
      its direction (0 for [In], 1 for [Out]), then its priority;
    - timed action [m], at [code.(timed_at) + timed_width * m]: the
      {!resource_bit}s of the {!Hproc.resource_id}s it uses, then where
      its accesses start: their number, then per access its resource id
      and its priority, in the action's order. *)

val num_taus : int
val num_offers : int
val num_timed : int
val offers_at : int
val timed_at : int
val ins : int
val outs : int
val taus_at : int
val tau_width : int
val offer_width : int
val timed_width : int

val bit : int -> int
(** [bit id] is the one bit of label id [id] in a mask: bit [id land 31].
    Ids 32 apart share a bit, so a mask can only rule a label out: an id
    whose bit is clear is certainly absent. *)

val resource_bit : int -> int
(** [resource_bit id] is the one bit of resource id [id] in a mask: bit
    [id mod 63], so ids 63 apart share a bit.  Two actions whose masks
    have no bit in common use disjoint resources; a common bit proves
    nothing. *)

val dummy : t
(** Placeholder for a node not yet resolved; never in a table. *)

val uncompiled : steps
(** Placeholder for a step set not yet compiled. *)

val set_steps : t -> steps -> unit
(** Writer for the lazily compiled step set. *)

(** {1 Tables} *)

type table

val create : Hproc.table -> table
(** A node table for the terms of an intern table.  Like the intern
    table, it has one owner: use it on one domain only. *)

val terms : table -> Hproc.table

val compile : table -> (Step.t * Hproc.t) list -> steps
(** A step set split by kind, in list order, with unresolved targets,
    and its code over the label and resource ids of {!terms}, with the
    code's id in the table: a code equal to one compiled before gets
    that one's id. *)

val get : table -> Hproc.t -> t
(** The node of a term of {!terms}, created on first request; two
    requests for one term return the same node. *)

val size : table -> int
(** Number of nodes in the table: the exploration's distinct slot terms.
    Node ids run over [\[0, size tbl)]. *)

val by_id : table -> t array
(** The table's nodes by {!field-id}: entry [i] is the node of id [i]
    for [i < size tbl], {!dummy} beyond.  The array is the table's own
    and is replaced when the table grows, so read it again after a
    {!get} that may have created a node; do not mutate it. *)

val target : table -> edge -> t
(** The edge's target node: a field read once resolved, a {!get} the
    first time. *)
