(** Strategy profiles: one move (MAS index) per player of an atlas.
    The game of Section 4 is one-shot and simultaneous; a profile records
    what every player publishes.

    Beside the moves, a profile keeps each MAS's crowd as a {!Crowd.t}
    aggregate — three ints per MAS, no per-player list — so every payoff
    and disclosure of a move under the profile is O(1). Moves and
    aggregates are kept as {!Pet_minimize.Cells}, 16 bits each where
    the atlas's sizes and valuation words fit: a quarter of a word per
    player and three quarters per MAS. *)

type t

val make : Pet_minimize.Atlas.t -> int array -> t
(** [make atlas moves] assigns MAS [moves.(i)] to player [i], and
    aggregates the crowds from those moves. The profile copies [moves]
    into cells of its own. Entries past [Atlas.player_count atlas] are
    ignored: Algorithm 2 hands over an array from the domain's build
    scratch, which may be longer.
    @raise Invalid_argument when [moves] has fewer entries than there
    are players, or some [moves.(i)] is not among player [i]'s
    choices. *)

val copy : t -> t
(** The same profile with arrays of its own, for {!move}. *)

val move : t -> int -> int -> unit
(** [move t i m]: player [i] plays MAS [m] from now on, in place. Only
    the two crowds it changes are touched: [m]'s is joined by [i] in
    O(1), and the one [i] left is recounted over the players that can
    play it. For a profile the caller owns (from {!copy}): every other
    holder of [t] sees the change too.
    @raise Invalid_argument when [m] is not among player [i]'s
    choices. *)

val atlas : t -> Pet_minimize.Atlas.t
val move_of : t -> int -> int
(** The MAS index played by a player index. *)

val aggregate : t -> int -> Crowd.t
(** The aggregate of the players committed to a MAS index. *)

val crowd_size : t -> int -> int

val crowd : t -> int -> int list
(** Player indices committed to a MAS index, ascending. Built on demand
    by a pass over every move: for printing and offline tools, not for a
    payoff ({!aggregate} is O(1)). *)

val move_of_valuation : t -> Pet_valuation.Total.t -> Pet_minimize.Algorithm1.choice
(** Convenience lookup by valuation.
    @raise Not_found when the valuation is not a player. *)

val equal : t -> t -> bool
