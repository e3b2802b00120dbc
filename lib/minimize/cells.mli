(** Fixed-length arrays of non-negative ints, two or four bytes per
    cell. A provider artifact keeps its resident integer arrays (the
    atlas's players and adjacency lists, a profile's moves and crowd
    aggregates) as cells: an [int array] spends a 64-bit word on each
    value, and on the forms a collector hosts most of these values fit
    in 16 bits, none in more than 31. {!create} alone picks an array's
    width, from the largest value it will hold. Cells are [Bytes], an
    ordinary heap block of the GC, not a [Bigarray], whose malloc'd data
    the GC counts as extra pressure. A cell is stored in the machine's
    byte order: cells never leave the process. *)

type t = private Bytes.t
(** Byte 0 is the cell width [w] in bytes, 2 or 4, and cell [i] is the
    [w] bytes from byte [w * (i + 1)]. Readers see the bytes so that
    they can read a cell inline (see {!get16}); only this module writes
    them. *)

val max_value : int
(** [2^31 - 1]: the largest value a cell of any width holds. *)

val create : max:int -> int -> t
(** [create ~max n]: [n] cells, each [0], of the narrowest width that
    holds every value in [0 .. max]: 16 bits up to [2^16 - 1], else 32.
    One of more than 256 words lands directly in the major heap, as an
    [int array] would.
    @raise Invalid_argument when [max] is above {!max_value}. *)

val length : t -> int

val capacity : t -> int
(** The largest value a cell of [t]'s width holds: [2^16 - 1] or
    {!max_value}. *)

val set : t -> int -> int -> unit
(** [set c i x] stores [x] in cell [i]. It never truncates.
    @raise Invalid_argument when [x] is outside [0 .. capacity c], or [i]
    outside [0 .. length - 1]. *)

val get : t -> int -> int
(** [get c i] is the value last {!set} in cell [i].
    @raise Invalid_argument when [i] is outside [0 .. length - 1]. *)

external byte : t -> int -> char = "%bytes_unsafe_get"
external get16 : t -> int -> int = "%caml_bytes_get16u"
external get32 : t -> int -> int32 = "%caml_bytes_get32u"
(** The unchecked reads, for loops. Cell [i] of [c] is
    [get16 c (2 * i + 2)] when [byte c 0 = '\002'], else
    [Int32.to_int (get32 c (4 * i + 4))] (the sign extension is
    harmless: a cell holds no value with bit 31 set). The caller checks
    [i] against its own invariants, and tests the width in a helper of
    its own, so that the read compiles inline: a library's modules do
    not inline each other's functions when they are built [-opaque], as
    dune's default profile builds them, and a function call per read
    made Algorithm 2 about twice as slow. The width is in the bytes, not
    in a box around them, so a read loads no block but the cells'. *)

val copy : t -> t
(** The same cells, at the same width, in a block of their own. *)

val of_wordbuf : Wordbuf.t -> t
(** The buffer's words as cells, as narrow as its largest word allows.
    @raise Invalid_argument when a word is outside [0 .. max_value]. *)
