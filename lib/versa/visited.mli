(** The explorer's visited set: slot vectors interned into dense ids.

    A state is a vector of slot nodes over one {!Acsr.Frame}, and ids
    are handed out in first-discovery order: the first vector interned
    gets id 0, the next new one id 1, and so on.  The set keeps each
    vector as the {!Acsr.Node.field-id}s of its slots, [width] 32-bit
    cells per state, with the low 32 bits of its {!Acsr.Frame.hash} by
    id, and finds a vector through an open-addressed table of ids: a
    power of two in size, probed linearly and kept at most half full.
    Cells live in [Bytes] blocks of at least 4 KiB, allocated straight
    into the major heap, so the collector neither promotes them nor
    scans their cells, however many states the set holds, and, unlike a
    {!Bigarray}'s custom block, a new one does not bring the next major
    cycle closer.

    A state's hash and node ids sit side by side, [width + 1] cells,
    in {!Chunks}: fixed-size chunks of at most 16 KiB, each holding a
    power of two of states, added as the set grows and never copied, so
    a state's cells stay where they were first written.  A chunk's
    state count comes from the width: 256 states of 12 slots, 32 of 66.
    Only the probe table doubles.

    An intern hashes its vector once, compares cached hashes before it
    compares node ids against the arena, and on a miss copies the ids
    in: the set keeps no reference to the vector it was given, and
    allocates nothing but the occasional chunk or doubling of the table.
    Growing the table re-places every id by its cached hash, reading no
    vector. *)

(** Entries of a fixed number of int32 cells, by dense index, in
    chunks of bytes that are added as entries are and never moved.
    Entry [i] lies in chunk [i / n], for the power of two [n] of entries
    that fit a chunk. *)
module Chunks : sig
  type t

  val create : stride:int -> t
  (** Room for the first chunk of entries of [stride] cells. *)

  val reserve : t -> int -> unit
  (** [reserve t i] makes room for entry [i], adding a chunk when [i]
      is the first of one.  Entries are reserved in order: [i] is at
      most the first entry past the chunks in use. *)

  val get : t -> int -> int -> int
  (** [get t i s] is cell [s] of entry [i], which must be reserved and
      written. *)

  val set : t -> int -> int -> int -> unit
  (** [set t i s x] writes the low 32 bits of [x] to cell [s] of
      entry [i], which must be reserved. *)

  val bytes : t -> int
  (** Bytes of the chunks in use. *)
end

type t

val create : Acsr.Node.table -> width:int -> t
(** An empty set of [width]-slot vectors whose nodes come from the
    given table: one chunk of hashes and node ids, and a table of 1,024
    slots. *)

val intern : t -> Acsr.Node.t array -> int
(** [intern t v] is the id of a vector {!Acsr.Frame.equal} to [v],
    adding [v]'s node ids with the next id, {!length} [t], if there is
    none.  The set keeps no reference to [v]: the caller may reuse or
    mutate it afterwards.
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
(** Bytes of the set's buffers: its chunks in use and the table. *)
