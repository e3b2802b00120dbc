(** Privacy payoff functions (Section 4.2).

    - [Blank] is [PO_blank] (Definition 4.3): the number of blank
      predicates of the published MAS that an attacker knowing the game
      and everyone's strategy cannot deduce — i.e. the blanks on which at
      least two players of the same move disagree (Proposition 4.4).
    - [Sm] is [PO_SM] (Definition 4.5): the number of {e other} players
      making the same move ([k - 1] for a crowd of [k]) — hiding in a
      crowd, akin to k-anonymity.
    - [Weighted] is the weighted extension of [PO_blank] sketched in
      Section 4.2: blanks count with per-predicate sensitivity weights.

    Payoffs are evaluated against a {e crowd}: the set of players assumed
    to play the move. During Algorithm 2 the crowd grows as players
    commit; on a final profile it is the move's actual crowd. *)

type kind = Blank | Sm | Weighted of (string -> float)

(** {1 The payoffs of a crowd aggregate}

    The one definition every caller evaluates: the report, the
    disclosure, Algorithm 2, the Nash check and the solidarity greedy
    all score a move from its crowd's {!Crowd.t}. *)

type scorer = Count | Blanks | Weights of float array
(** A payoff kind ready to score: [Count] is [Sm], [Blanks] is [Blank],
    and [Weights] holds [Weighted]'s weight of each universe position,
    looked up once. *)

val scorer : Pet_minimize.Atlas.t -> kind -> scorer

val blank_mask : Pet_minimize.Atlas.t -> mas:int -> int
(** The blank positions of a MAS, as a mask over the form universe. *)

val disagreement : Pet_minimize.Atlas.t -> mas:int -> Crowd.t -> int
(** The blank positions of the MAS on which two crowd members disagree
    (Proposition 4.4): the undeducible blanks, as a mask. *)

val score : scorer -> disagreement:int -> count:int -> float
(** The payoff a member of a crowd of [count] gets, given its
    {!disagreement}: [PO_SM] is [count - 1] (0 for an empty crowd),
    [PO_blank] the number of disagreement bits, the weighted [PO_blank]
    their weights summed in universe order. *)

val integral : scorer -> disagreement:int -> count:int -> int
(** {!score} of [Count] and [Blanks], which are integral, as an int — a
    float returned across a module boundary is boxed, an int is not.
    @raise Invalid_argument on [Weights]. *)

val of_crowd : Pet_minimize.Atlas.t -> scorer -> mas:int -> Crowd.t -> float
(** {!score} of the crowd's {!disagreement}. *)

val protected : Pet_minimize.Atlas.t -> mas:int -> Crowd.t -> string list
(** The names of the {!disagreement} positions, in universe order. Empty
    for an empty or singleton crowd. *)

val deduced :
  Pet_minimize.Atlas.t -> mas:int -> Crowd.t -> (string * bool) list
(** Blank predicates whose value every crowd member shares, with that
    value, in universe order — what the attacker deduces in addition to
    the published literals. Empty for an empty crowd: no deductions are
    defined for a move nobody plays. *)

(** {1 Over explicit crowds}

    The same payoffs of a crowd given as player indices (the
    Section 4.2 definitions as the paper states them), through
    {!Crowd.of_players}. *)

val undeducible_blanks :
  Pet_minimize.Atlas.t -> mas:int -> crowd:int list -> string list
(** {!protected} of the crowd. *)

val deduced_blanks :
  Pet_minimize.Atlas.t -> mas:int -> crowd:int list -> (string * bool) list
(** {!deduced} of the crowd. *)

val value :
  Pet_minimize.Atlas.t -> kind -> mas:int -> crowd:int list -> float
(** The payoff a crowd member gets. [Blank] and [Sm] values are integral
    (as floats for a uniform interface). *)

val of_profile : Profile.t -> kind -> player:int -> float
(** The payoff player [player] receives under the profile: their move
    evaluated against its actual crowd. *)

val weight_of_string : string -> (string * float, string) result
(** Read one [PREDICATE=WEIGHT] sensitivity weight; the weight is a
    non-negative float. *)

val weighted :
  Pet_valuation.Universe.t -> (string * float) list -> (kind, string) result
(** [Weighted] over the given per-predicate weights (unlisted
    predicates weigh 1). The error names a weighted predicate that is
    not in the form universe. *)

val pp_kind : kind Fmt.t
