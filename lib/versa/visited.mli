(** The explorer's visited set: slot vectors interned into dense ids.

    A state is a vector of slot nodes over one {!Acsr.Frame}, and ids
    are handed out in first-discovery order: the first vector interned
    gets id 0, the next new one id 1, and so on.  The set keeps each
    vector as the {!Acsr.Node.field-id}s of its slots, [width] 32-bit
    cells per state in one flat arena, with the low 32 bits of its
    {!Acsr.Frame.hash} by id, and finds a vector through an
    open-addressed table of ids: a power of two in size, probed
    linearly and kept at most half full.  All three live outside the
    OCaml heap ({!Bigarray}), so the collector neither promotes nor
    marks them, however many states the set holds.

    An intern hashes its vector once, compares cached hashes before it
    compares node ids against the arena, and on a miss copies the ids
    in: the set keeps no reference to the vector it was given, and
    allocates nothing but the occasional doubling of a buffer.  Growing
    the table re-places every id by its cached hash, reading no
    vector. *)

type t

val create : Acsr.Node.table -> width:int -> t
(** An empty set of [width]-slot vectors whose nodes come from the
    given table.  Its buffers start at a few kilobytes. *)

val intern : t -> Acsr.Node.t array -> int
(** [intern t v] is the id of a vector {!Acsr.Frame.equal} to [v],
    adding [v]'s node ids with the next id, {!length} [t], if there is
    none.  The caller may reuse or mutate [v] afterwards.
    @raise Invalid_argument if [v] is not [width] long. *)

val length : t -> int
(** Number of vectors interned: ids run over [\[0, length t)]. *)

val get : t -> int -> Acsr.Node.t array
(** The vector of an id, decoded into a fresh array.
    @raise Invalid_argument if the id is not below {!length}. *)

val capacity : t -> int
(** Number of slots in the table: a power of two, at least twice
    {!length}. *)

val bytes : t -> int
(** Bytes of the set's buffers: the arena, the hashes and the table,
    at their allocated lengths. *)
