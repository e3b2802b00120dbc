(** What an honest-but-curious attacker learns from a published move,
    knowing the exposure problem, the payoff function and everyone's
    strategy (the attack model of Section 4.1) — and therefore exactly
    what the PET must show a user before asking for consent (requirement
    R3). This is the machinery behind the paper's Bob example: his forced
    move [0_0_1110____] silently discloses [p12 = 0]. *)

type disclosure = {
  published : (string * bool) list;
      (** the literals of the MAS itself, in universe order *)
  deduced : (string * bool) list;
      (** blanks whose value the attacker deduces because every player of
          this move shares it *)
  protected : string list;
      (** blanks on which the move's crowd genuinely disagrees — the
          predicates with plausible deniability *)
  crowd_size : int;
}

val of_crowd : Pet_minimize.Atlas.t -> mas:int -> Crowd.t -> disclosure
(** Disclosure of a move made by the given crowd ({!Payoff.deduced} and
    {!Payoff.protected}). *)

val of_move : Profile.t -> mas:int -> disclosure
(** Disclosure of a move under a profile (crowd = players actually
    committed to it). For a move nobody plays both the deduced and the
    protected lists are empty: no deduction is defined for it, and no
    two players disagree on any blank. *)

val for_player : Profile.t -> player:int -> disclosure
val pp : disclosure Fmt.t
