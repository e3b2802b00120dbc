(** Publish-time compilation of a form's rule set into branch-free
    bitmask tests over the bit-packed valuations of [lib/valuation].

    A decision rule's DNF conjunction [l1 & ... & lk] over the form
    universe compiles to a pair of machine words: [mask] selects the
    mentioned predicates, [bits] holds their required signs. A total
    valuation [v] (as {!Pet_valuation.Total.bits}) satisfies the
    conjunction iff [(v land mask) = bits] — one AND and one compare,
    no lists, no hashing, no string lookups.

    For forms up to {!max_tabulated_predicates} predicates the
    constructor additionally tabulates, for every one of the [2^n]
    total valuations, whether it satisfies the consistency constraints
    and which benefits it triggers, in one table: a valuation's entry
    is its benefit bitset and its consistency flag, one byte for a form
    of at most 7 benefits and eight bytes beyond. Every proof-relation
    question ([w, R |= _]) then reduces to a walk over the consistent
    completions of [w] — a submask enumeration reading one entry per
    completion. This is the
    compiled engine backend; the brute/SAT/BDD backends differentially
    test it (DESIGN.md §14). *)

type conj = { mask : int; bits : int }
(** One compiled conjunction: [v] satisfies it iff
    [(v land mask) = bits]. The empty conjunction is
    [{mask = 0; bits = 0}] and holds everywhere. *)

val compile_conjunction :
  Pet_valuation.Universe.t -> Pet_logic.Dnf.conjunction -> conj
(** Compile a conjunction over the universe's predicates. The
    conjunction must be free of complementary literals (the
    {!Pet_logic.Dnf} invariant). No size limit.
    @raise Not_found when a literal names a variable outside the
    universe. *)

val compile_formula :
  Pet_valuation.Universe.t -> Pet_logic.Formula.t -> int -> bool
(** Compile a formula over the universe's predicates into a test on
    valuation words: variable indices are resolved once, so the result
    does no name lookups. No size limit.
    @raise Not_found when the formula mentions a variable outside the
    universe. *)

val fill_benefit_table : n:int -> conj array array -> int array -> unit
(** [fill_benefit_table ~n groups tab]: for every valuation word [v] of
    [n] predicates, sets [tab.(v)] to the bitset whose bit [i] is set iff
    some conjunction of [groups.(i)] holds on [v]. With a benefit's rule
    per group it is the benefit bitset of every total valuation. Each
    conjunction sets its bit on its [2^(n - k)] completions ([k]
    literals), so the cost follows the rules, not [2^n] times their
    size. [tab] may be longer than [2^n]; the rest is left as it was.
    [groups] must have at most [Sys.int_size] entries. *)

type t

val max_tabulated_predicates : int
(** [16]: the largest form size whose [2^n] valuation tables are
    tabulated at publish time (64K entries — microseconds to build,
    64 KiB to hold at one byte per entry). Callers with bigger forms must fall back to a
    symbolic backend; {!create} refuses them. *)

val create :
  xp:Pet_valuation.Universe.t ->
  benefits:string list ->
  rule:(string -> Pet_logic.Dnf.t) ->
  constraints:Pet_logic.Formula.t list ->
  t
(** Compile the rule set: [benefits] in benefit-universe order, [rule]
    mapping each benefit to its decision rule's DNF (over [xp] only),
    [constraints] the [R_ADD] formulas (over [xp] only).
    @raise Invalid_argument when [xp] exceeds
    {!max_tabulated_predicates}, there are more than [Sys.int_size - 1]
    benefits, or a formula mentions a variable outside [xp]. *)

val predicates : t -> int
(** Form universe size [n]; valuation words use bits [0..n-1]. *)

val benefit_count : t -> int
val benefit_name : t -> int -> string
val full_benefit_mask : t -> int
(** [(1 lsl benefit_count) - 1]. *)

val conj_holds : conj -> int -> bool
(** [conj_holds c v] is [(v land c.mask) = c.bits]. *)

val consistent_bits : t -> int -> bool
(** Table lookup: does total valuation [v] satisfy the constraints?
    @raise Invalid_argument when [v] is outside [0 .. 2^n - 1]. *)

val benefit_bits : t -> int -> int
(** Table lookup: the bitset of benefits triggered by total valuation
    [v] (bit [i] = benefit [i] in benefit-universe order). Ignores the
    constraints, like {!Pet_rules.Exposure.benefits_of_assignment}.
    @raise Invalid_argument when [v] is outside [0 .. 2^n - 1]. *)

val benefit_mask : t -> dom:int -> bits:int -> int
(** The AND of the benefit bitsets of the consistent completions of the
    partial valuation [(dom, bits)]: bit [i] is set iff it entails
    benefit [i]. One pass over the completions, allocating nothing. With
    no consistent completion every benefit is entailed vacuously, so the
    result is {!full_benefit_mask}, matching the brute-force reference
    semantics. *)

val consistent : t -> dom:int -> bits:int -> bool
(** Early-exit: stops at the first consistent completion. *)

val entails_benefit : t -> dom:int -> bits:int -> int -> bool
(** [entails_benefit t ~dom ~bits i]: do all consistent completions
    trigger benefit [i]? Early-exits on the first counterexample. *)

val entails_literal : t -> dom:int -> bits:int -> int -> bool -> bool
(** [entails_literal t ~dom ~bits i value]: do all consistent
    completions give predicate [i] the value [value]? *)
