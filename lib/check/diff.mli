(** Differential testing across the four [Engine] backends.

    The [.mli] of {!Pet_rules.Engine} promises that [Brute], [Sat] and
    [Bdd] agree on every input; this module checks that promise head-on
    for one exposure problem:

    - the proof relation [w, R |= ·] — consistency, proven benefits
      (as names and as {!Pet_rules.Engine.benefit_mask}) and deduced
      literals — pointwise on seeded random partial valuations (and on
      every published MAS);
    - the full MAS atlas, compared as a canonicalized list of
      (MAS, benefits, potential crowd, forced crowd);
    - the Algorithm 2 equilibrium computed from each backend's atlas,
      move by move and payoff by payoff.

    The brute-force backend enumerates [2^blanks] completions per query,
    so it only joins entailment comparisons on valuations with at most
    [brute_blank_cap] blanks (default 12) and atlas comparisons on
    universes of at most [brute_atlas_cap] predicates (default 10);
    larger problems are still checked [Sat] against [Bdd]. *)

val default_samples : int
val default_brute_blank_cap : int
val default_brute_atlas_cap : int

val check :
  ?payoff:Pet_game.Payoff.kind ->
  ?samples:int ->
  ?seed:int ->
  ?brute_blank_cap:int ->
  ?brute_atlas_cap:int ->
  Pet_rules.Exposure.t ->
  Finding.report
(** Stages: ["diff/consistent"], ["diff/benefits"], ["diff/deduced"],
    ["diff/atlas"], ["diff/equilibrium"]. *)
