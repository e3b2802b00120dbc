(** Session ids to dense slots: the index behind the flat per-session
    tables of {!Session} and the grant-link table of {!Consent}.

    Each id present holds one slot, an integer below {!capacity}; the
    owner keeps its per-id values in arrays indexed by slot, grown to
    {!capacity} after an {!add}, so a value is an immediate in a flat
    array instead of a field of a boxed record. An id of the form
    ["s<n>"] (the ones {!Session.reserve} hands out) is keyed by [n]
    itself, and the index is an open-addressing [int array]: a lookup
    parses the id and probes, allocating nothing. Any other id (only a
    replayed log that names one reaches here) is interned once into a
    side table, for the life of the index. A removed id's slot is reused
    by a later {!add}. *)

type t

val create : unit -> t

val find : t -> string -> int
(** The id's slot, or [-1] if the id is not present. *)

val add : t -> string -> int
(** Insert an id that is not present and return its slot. *)

val remove : t -> int -> unit
(** Free a slot that holds an id; a later {!add} may reuse it. *)

val id : t -> int -> string
(** The id a held slot belongs to. *)

val held : t -> int -> bool
(** Whether a slot below {!top} holds an id. *)

val top : t -> int
(** One past the highest slot ever handed out: every held slot is below
    it. *)

val capacity : t -> int
(** The length the owner's per-slot arrays must have: every slot
    {!add} has returned is below it. *)

val length : t -> int
(** How many ids are present. *)

val grow : int -> 'a array -> 'a -> 'a array
(** [grow n a fill] is [a] extended to length [n] with [fill], or [a]
    itself if it is already that long: the owner's column growth. *)
