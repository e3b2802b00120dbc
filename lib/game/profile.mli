(** Strategy profiles: one move (MAS index) per player of an atlas.
    The game of Section 4 is one-shot and simultaneous; a profile records
    what every player publishes.

    Beside the moves, a profile keeps each MAS's crowd as a {!Crowd.t}
    aggregate — three ints per MAS, no per-player list — so every payoff
    and disclosure of a move under the profile is O(1). *)

type t

val make : Pet_minimize.Atlas.t -> int array -> t
(** [make atlas moves] assigns MAS [moves.(i)] to player [i], and
    aggregates the crowds from those moves. The profile takes ownership
    of [moves]: the caller must not change it afterwards.
    @raise Invalid_argument when [moves] does not have one entry per
    player, or some [moves.(i)] is not among player [i]'s choices. *)

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
