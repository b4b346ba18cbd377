(** The explorer's visited set: slot vectors interned into dense ids.

    A state is a vector of slot nodes over one {!Acsr.Frame}, and ids
    are handed out in first-discovery order: the first vector interned
    gets id 0, the next new one id 1, and so on.  The set keeps each
    vector and its {!Acsr.Frame.hash} by id, and finds a vector through
    an open-addressed table of ids: a power of two in size, probed
    linearly and kept at most half full.  An intern hashes its vector
    once, compares cached hashes before it reads a stored vector, and
    allocates nothing but the occasional doubling of an array; growing
    the table re-places every id by its cached hash, reading no
    vector. *)

type t

val create : unit -> t
(** An empty set. *)

val intern : t -> Acsr.Node.t array -> int
(** [intern t v] is the id of a vector {!Acsr.Frame.equal} to [v],
    adding [v] with the next id, {!length} [t], if there is none.  The
    set keeps [v] itself: do not mutate it afterwards. *)

val length : t -> int
(** Number of vectors interned: ids run over [0, length t). *)

val get : t -> int -> Acsr.Node.t array
(** The vector of an id. *)

val capacity : t -> int
(** Number of slots in the table: a power of two, at least twice
    {!length}. *)
