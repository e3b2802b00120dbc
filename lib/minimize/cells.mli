(** Fixed-length arrays of 31-bit non-negative ints, four bytes per
    cell. A provider artifact keeps its resident integer arrays (the
    atlas's players and adjacency lists, a profile's moves and crowd
    aggregates) as cells: an [int array] spends a 64-bit word on each
    value, and none of these values needs more than 31 bits. Cells are
    [Bytes], an ordinary heap block of the GC, not a [Bigarray], whose
    malloc'd data the GC counts as extra pressure. A cell is stored in
    the machine's byte order: cells never leave the process. *)

type t

val max_value : int
(** [2^31 - 1]: the largest value a cell holds. *)

val create : int -> t
(** [create n]: [n] cells, each [0]. One of more than 256 words lands
    directly in the major heap, as an [int array] would. *)

val length : t -> int

val set : t -> int -> int -> unit
(** [set c i x] stores [x] in cell [i]. It never truncates.
    @raise Invalid_argument when [x] is outside [0 .. max_value], or [i]
    outside [0 .. length - 1]. *)

external unsafe_get32 : t -> int -> int32 = "%caml_bytes_get32u"
(** The one read. Cell [i] is the four bytes at byte offset [4 * i], so
    [Int32.to_int (unsafe_get32 c (4 * i))] is the value last {!set} in
    cell [i] (the sign extension is harmless: a cell holds no value with
    bit 31 set). Nothing is checked: the caller checks [i] against its
    own invariants. It is a primitive so that it compiles inline: a
    library's modules do not inline each other's functions when they are
    built [-opaque], as dune's default profile builds them, and a
    function call per read made Algorithm 2 about twice as slow. *)

val copy : t -> t

val of_wordbuf : Wordbuf.t -> t
(** The buffer's words as cells.
    @raise Invalid_argument as {!set} does. *)
