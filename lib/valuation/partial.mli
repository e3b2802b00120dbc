(** Partial [Omega]-valuations (Definition 3.3): partial functions from a
    universe to [{0, 1}]. These encode partially filled forms; the unset
    positions are the paper's "blank attribute values" (Definition 3.15).

    Bit-packed as a domain mask plus a value mask (values only meaningful
    on domain bits, kept at 0 elsewhere). *)

type t

val universe : t -> Universe.t
val domain_mask : t -> int
val bits : t -> int

val empty : Universe.t -> t
val of_masks : Universe.t -> dom:int -> bits:int -> t
(** @raise Invalid_argument when masks exceed the universe or value bits
    escape the domain. *)

val of_assoc : Universe.t -> (string * bool) list -> t
(** @raise Invalid_argument on contradictory bindings; duplicates with the
    same value are allowed. @raise Not_found on unknown names. *)

val of_total : Total.t -> t
val of_string : Universe.t -> string -> t
(** Parse e.g. ["0_1"] ([_] = blank).
    @raise Invalid_argument on malformed input. *)

val to_total : t -> Total.t option
(** [Some] exactly when the valuation is total. *)

val value : t -> string -> bool option
val value_at : t -> int -> bool option
val defines : t -> string -> bool

val domain : t -> string list
(** Names on which the valuation is defined, in universe order. *)

val domain_size : t -> int
val blanks : t -> string list
val blank_count : t -> int
val is_total : t -> bool

val set : t -> string -> bool -> t
(** @raise Invalid_argument when the name is already set to the other
    value. Setting to the same value is the identity. *)

val unset : t -> string -> t
val restrict : t -> string list -> t
(** Keep only the given names (unknown or blank names are ignored). *)

val bindings : t -> (string * bool) list

val merge : t -> t -> t option
(** Union of two compatible partial valuations; [None] on conflict. *)

val subvaluation : t -> t -> bool
(** [subvaluation w v] is the paper's [w <= v] (Definition 3.5): [w]'s
    domain is included in [v]'s and they agree on it. *)

val strict_subvaluation : t -> t -> bool
val extends_total : t -> Total.t -> bool
(** [extends_total w v] iff [w <= v] seen as partial valuations. *)

val extensions : t -> Total.t list
(** All total valuations [v] with [w <= v], in increasing bit order. *)

val count_extensions : t -> int

val to_formula : t -> Pet_logic.Formula.t
(** The conjunction of the literals fixed by the valuation. *)

val equal : t -> t -> bool
val compare : t -> t -> int
(** An arbitrary total order (for sets and maps). *)

val compare_lex : t -> t -> int
(** The paper's canonical order: valuations read as words over the ordered
    alphabet [_ < 0 < 1], first variable most significant. *)

val compare_lex_words : int -> int -> int -> int -> int
(** [compare_lex_words dom bits dom' bits'] is {!compare_lex} on the
    partial valuations of one universe with those domain and value
    words (as {!domain_mask} and {!bits}), without building them. *)

val to_string : t -> string
(** E.g. ["0_1"], first variable leftmost. *)

val pp : t Fmt.t
