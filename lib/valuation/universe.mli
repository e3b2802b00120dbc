(** A finite, ordered set of propositional variables — the set [Omega]
    over which valuations are defined (Definition 3.3). The order of the
    names is significant: it fixes bit positions, the rendering of
    valuations as strings like ["0_1"], and the lexicographic order on
    moves that Algorithm 2 uses for tie-breaking. *)

type t

val of_names : string list -> t
(** @raise Invalid_argument on duplicate names, an empty list, or more
    than 60 names (valuations are bit-packed into an [int]). *)

val size : t -> int
val names : t -> string list
val name : t -> int -> string
val index : t -> string -> int
(** @raise Not_found for unknown names. *)

val index_opt : t -> string -> int option
val mem : t -> string -> bool
val equal : t -> t -> bool
val union : t -> t -> t
(** Names of the first followed by names of the second.
    @raise Invalid_argument if they share a name. *)

val popcount : int -> int
(** Number of set bits of a non-negative bitmask over a universe's
    positions, e.g. the domain mask of a partial valuation. *)

val pp : t Fmt.t
