(** Crowd aggregates: what the game needs to know about the players
    assumed to make one move.

    Every payoff of Section 4.2 and everything an attacker deduces from a
    move (Proposition 4.4) depends on its crowd only through three
    numbers: the bitwise OR of the members' valuation words, the OR of
    their complements, and the crowd's size. A blank position on which
    both ORs are set is one where two members disagree; where only one is
    set, every member shares that value. A player joins a crowd with one
    [lor] per word and an increment, so a payoff is O(1) whatever the
    crowd's size. *)

type t = private {
  ones : int;  (** OR of the members' valuation words *)
  zeros : int;
      (** OR of their complements, [lnot bits]: only the bits inside the
          form universe are meaningful *)
  count : int;  (** number of members *)
}

val empty : t

val make : ones:int -> zeros:int -> count:int -> t

val add : t -> int -> t
(** [add c bits]: [c] joined by a player with valuation word [bits]. *)

val join : Pet_minimize.Atlas.t -> t -> int -> t
(** [join atlas c i]: [c] joined by player [i] of the atlas. *)

val of_players : Pet_minimize.Atlas.t -> int list -> t
(** The aggregate of a list of player indices (duplicates count twice). *)
