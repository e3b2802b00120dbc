(** Exposure problems (Definition 3.11): the triple [E = (R, Xp, Xb)] of a
    rule-and-constraint set, a form universe and a benefit universe.

    [R = R_DP u R_ADD] where [R_DP] holds exactly one decision rule per
    benefit (Definition 3.9) and [R_ADD] is a set of consistency
    constraints over the form predicates (e.g. "age below 16" implies
    "not an adult below 25"). *)

type t

val create :
  xp:Pet_valuation.Universe.t ->
  xb:Pet_valuation.Universe.t ->
  rules:Rule.t list ->
  ?constraints:Pet_logic.Formula.t list ->
  unit ->
  t
(** @raise Invalid_argument when: a form and benefit name collide; a rule
    targets an unknown benefit or two rules target the same benefit; a
    benefit has no rule; a rule's left-hand side or a constraint mentions
    a variable outside [Xp]. *)

val xp : t -> Pet_valuation.Universe.t
val xb : t -> Pet_valuation.Universe.t
val rules : t -> Rule.t list
val rule_for : t -> string -> Rule.t
(** @raise Not_found for unknown benefits. *)

val constraints : t -> Pet_logic.Formula.t list

val implications :
  t -> (Pet_logic.Literal.t list * Pet_logic.Literal.t list) list
(** The constraints of the directed form
    [l1 & ... & ln -> l1' & ... & lm'] as (premises, consequences) pairs;
    bare literal-conjunction constraints appear with empty premises.
    Algorithm 1 forward-chains over these when closing MAS candidates, the
    way the paper's prototype does (see DESIGN.md). Constraints of any
    other shape are not chained but still constrain the semantics. *)

val constraints_formula : t -> Pet_logic.Formula.t
(** The conjunction of [R_ADD]. *)

val to_formula : t -> Pet_logic.Formula.t
(** The conjunction of all of [R]: every decision-rule equivalence plus
    every constraint, over [Xp u Xb]. *)

val benefits_of_assignment : t -> (string -> bool) -> string list
(** Benefits triggered by a total assignment of the form predicates, in
    benefit-universe order. This is the service provider's decision
    function; it ignores whether the assignment satisfies [R_ADD]. *)

val satisfies_constraints : t -> Pet_valuation.Total.t -> bool

val consistent_word : t -> int -> bool
(** [R_ADD] compiled into one test on valuation words
    ({!Pet_valuation.Total.bits}): variable indices are resolved once and
    a call allocates nothing. Agrees with {!satisfies_constraints}. *)

val conjunction_words : t -> Pet_compile.Code.conj array array
(** Each benefit's rule conjunctions compiled to words
    ({!Pet_compile.Code.compile_conjunction}), in benefit-universe
    order. *)

val realistic : t -> Pet_valuation.Total.t list
(** All total form valuations satisfying [R_ADD] — the "realistic"
    players of Section 4.1 — in increasing bit order. *)

val eligible : t -> Pet_valuation.Total.t list
(** Realistic valuations triggering at least one benefit. *)

val pp : t Fmt.t
