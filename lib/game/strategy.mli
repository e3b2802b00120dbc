(** Algorithm 2 of the paper: the equilibrium strategy-selection
    procedure.

    Each player with a single MAS plays it. Then, repeatedly: any player
    one of whose moves {e strictly dominates} their alternatives — with
    payoffs evaluated against the players already committed, plus
    themselves — commits to it and every payoff is re-evaluated ("assume
    all players play their best move in succession, and each time
    recompute the values of the privacy payoff function; wait until the
    payoff of best move dominates all other to play it"). When no player
    has a strictly dominating move, the deadlock is broken as in lines
    11-16 of the paper: the player/move pair with the globally highest
    payoff commits, ties resolved by the lexicographic order on moves and
    then on players.

    Selection is incremental: a commit re-scores only the pending
    players whose score it can change, and the commits come in the order
    above (DESIGN.md §5).

    Theorem 4.6: for [PO_blank] and [PO_SM] the resulting profile is a
    Nash equilibrium; {!Equilibrium.is_nash} verifies this on the case
    studies and on random instances in the tests. *)

val compute : ?payoff:Payoff.kind -> Pet_minimize.Atlas.t -> Profile.t
(** [payoff] defaults to [Blank]. *)

val best_move_of_player :
  ?payoff:Payoff.kind -> Profile.t -> int -> int * float
(** Under a final profile: the given player's best response (MAS index and
    payoff) with crowds as in the profile — used to explain the
    recommendation to a user. *)
