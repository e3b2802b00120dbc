(** Algorithm 1 of the paper: informed data minimization.

    For a user's fully filled form [v], compute the minimal accurate
    subvaluations (MAS, Definition 3.13) and the data the bipartite
    valuation/MAS graph is built from.

    Candidate construction follows the paper: one satisfied conjunction
    per benefit obtained by [v] (Cartesian product across benefits),
    closed under the consistency rules [R_ADD]. Candidates proving a
    different benefit set than [v] are discarded, then non-minimal
    candidates are filtered out.

    Three closure modes are offered; they only differ in how much of
    [R_ADD] is folded into the published MAS (an attacker derives the
    same information in all three cases, so they are privacy-equivalent):

    - {!Chain} (the paper's prototype): forward-chain the directed
      implications of [R_ADD] — the H-cov MAS of Table 3 such as
      [0_110_______] carry exactly the forward consequences of their
      conjunction, not the contrapositive ones;
    - {!Entail}: full logical closure — every form literal entailed by
      the candidate and [R];
    - {!Exact}: no closure at all; instead enumerate the subvaluations
      that are set-inclusion minimal among {e all} accurate
      subvaluations (Definition 3.13 verbatim). Exponential; only for
      small universes. *)

type mode = Chain | Entail | Exact

type choice = {
  mas : Pet_valuation.Partial.t;
  benefits : string list;
      (** benefits proven by the MAS, in benefit-universe order *)
}

val mas_of :
  ?mode:mode -> Pet_rules.Engine.t -> Pet_valuation.Total.t -> choice list
(** The MAS of [v], sorted in the paper's lexicographic order. [mode]
    defaults to {!Chain}. For a valuation granting no benefit the result
    is a single empty-domain choice (nothing needs to be sent).

    Staged: [mas_of ~mode engine] compiles the exposure once (each
    benefit's conjunctions and the chainable implications as machine
    words) and returns the per-valuation function, so a caller running
    many valuations, as {!Atlas.build} does, applies it partially. Each
    application runs on words: a candidate is the OR of the masks of
    the conjunctions [v] satisfies, closure extends that domain mask,
    accuracy is one {!Pet_rules.Engine.benefit_mask} query and
    minimality a subset test on domain words; a
    {!Pet_valuation.Partial.t} is built only for each selected MAS.
    Each application is one [algorithm1] span and one count of
    [pet_algorithm1_runs_total]. It is {!mas_words} plus the
    {!Pet_valuation.Partial.t} of each MAS.
    @raise Invalid_argument when [v] violates the problem's constraints
    (the form of an applicant is assumed realistic), or in {!Exact} mode
    on universes above 16 predicates. *)

val mas_words :
  ?mode:mode -> Pet_rules.Engine.t -> int -> (int -> unit) -> int
(** The word kernel under {!mas_of}: [mas_words ~mode engine v emit]
    calls [emit dom] once for the domain word of each MAS of the
    valuation word [v] (the MAS is [v] restricted to [dom]), ascending,
    and returns [v]'s benefit bitset. Staged like {!mas_of}: the
    candidates (products, closure, deduplication, the accuracy filter,
    minimality) live in buffers that the function returned by
    [mas_words ~mode engine] owns and reuses, so an application
    allocates no candidate. One such function must not run on two
    domains at once; stage one per build. Counts and spans as
    {!mas_of}, and raises as it does. *)

val is_accurate :
  Pet_rules.Engine.t ->
  Pet_valuation.Total.t ->
  Pet_valuation.Partial.t ->
  bool
(** Definition 3.13: [w <= v] and [w] proves exactly the benefits [v]
    triggers. Used by tests and by the best-minimizer checks. *)

val is_minimal :
  ?mode:mode ->
  Pet_rules.Engine.t ->
  Pet_valuation.Partial.t ->
  benefits:string list ->
  bool
(** Definition-level ≤-minimality recheck, used by the correctness
    harness: no single binding of [w] can be dropped while still proving
    exactly [benefits]. In {!Chain} ({!Entail}) mode the shrunken
    candidate is first re-closed, because a dropped literal that the
    closure rederives does not make the {e published} MAS smaller —
    closure literals are derivable by any attacker and carry no extra
    information — and proofs are judged by {e direct} conjunction
    satisfaction, the proof notion the algorithm's candidates are built
    from (a constraint can make a strictly smaller subvaluation entail
    the same benefits without directly proving them, and such
    subvaluations are not candidates). In {!Exact} mode proofs are full
    entailment, matching the exhaustive enumeration; accuracy is
    interval-closed, so the 1-step check decides Definition 3.13
    minimality exactly. [mode] defaults to {!Chain}. It works on
    partial valuations and literal lists and shares no code with
    {!mas_of}'s word path, so it can audit that path's output. *)

val chain_close :
  Pet_rules.Exposure.t -> Pet_valuation.Partial.t -> Pet_valuation.Partial.t
(** Forward-chain the directed implications of [R_ADD] from the fixed
    literals of [w] until fixpoint, on partial valuations: the
    audit-side closure ({!is_minimal}, {!Symbolic}); {!mas_of} chains
    on domain words.
    @raise Invalid_argument when chaining derives a contradiction with
    [w] (cannot happen for subvaluations of realistic valuations). *)

val potential_players :
  Pet_rules.Engine.t -> Pet_valuation.Partial.t -> Pet_valuation.Total.t list
(** Lines 18-23 of Algorithm 1: the candidate valuations of a MAS [m] —
    every total extension of [m] whose benefit set equals the set [m]
    proves. These are the players that {e can} play [m] (the paper counts
    them without re-filtering by [R_ADD]; see DESIGN.md). *)
