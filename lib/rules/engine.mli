(** The proof relation of Notation 3.10 — [w, R |= F] — with four
    interchangeable backends:

    - [Brute]: reference semantics by enumerating every completion of the
      partial valuation (exponential in the number of blanks; the oracle
      the others are tested against);
    - [Sat]: one incremental CDCL query per question — [w, R |= x] iff
      [R /\ w /\ ~x] is unsatisfiable (the default);
    - [Bdd]: compile [R] once into a BDD and answer each question by one
      memoized walk over it under the cube of [w]'s bindings
      ({!Pet_bdd.Bdd.walk}), which builds no node — the right choice for
      bulk workloads such as building the full MAS atlas;
    - [Compiled]: flatten the rules into branch-free bitmask tests and
      tabulate the [2^n] valuation answers at construction time
      ({!Pet_compile.Code}) — the serving fast path. Above
      {!Pet_compile.Code.max_tabulated_predicates} predicates it keeps
      the name but falls back to the BDD representation.

    All four agree on every input; the test suite checks this
    exhaustively on small universes and randomly on larger ones.

    Domains: a [Brute], [Compiled] or [Bdd] engine may be queried from
    several domains at once, as a tenant's artifact is by every shard.
    Its tables are read-only once built, and a BDD walk, which writes
    the manager's scratch, takes the engine's lock. A [Sat] engine's
    solver belongs to one domain at a time. *)

type backend = Brute | Sat | Bdd | Compiled

val all_backends : backend list
(** [[Brute; Sat; Bdd; Compiled]] — the order the differential harness
    reports them in. *)

val backend_name : backend -> string
(** ["brute"], ["sat"], ["bdd"] or ["compiled"]. *)

type t

val create : ?backend:backend -> Exposure.t -> t
(** Default backend: [Sat]. *)

val backend : t -> backend
val exposure : t -> Exposure.t

val sync_obs : t -> unit
(** Push this engine's backend statistics into the global
    {!Pet_obs.Metrics} registry (currently the BDD manager's node/cache
    gauges; a no-op for the other backends — SAT pushes its own deltas
    from [Solver.solve]). Call after a batch of queries, e.g. when the
    service answers a [metrics] request. *)

val consistent : t -> Pet_valuation.Partial.t -> bool
(** Whether [R /\ w] is satisfiable, i.e. the partially filled form can
    belong to a realistic applicant. *)

val entails_benefit : t -> Pet_valuation.Partial.t -> string -> bool
(** [entails_benefit t w b] is [w, R |= b]: every completed processed form
    compatible with [w] grants [b]. Vacuously true when [w] is
    inconsistent with [R].
    @raise Not_found for unknown benefit names. *)

val benefit_mask : t -> dom:int -> bits:int -> int
(** [benefit_mask t ~dom ~bits]: the benefits the partial valuation with
    domain mask [dom] and value bits [bits] (as
    {!Pet_valuation.Partial.domain_mask} and {!Pet_valuation.Partial.bits})
    proves, as a bitset in benefit-universe order (bit [i] is benefit
    [i]). One query answers every benefit: the compiled backend makes one
    pass over the consistent completions and the BDD backend one walk,
    both without allocating; the SAT and brute backends ask their
    per-benefit question for each benefit. An
    inconsistent partial valuation entails every benefit vacuously.
    Counts as one query in [pet_engine_queries_total].
    @raise Invalid_argument when the words exceed the form universe or
    [bits] escapes [dom]. *)

val benefits : t -> Pet_valuation.Partial.t -> string list
(** Benefits proven by [w] under [R], in benefit-universe order: the
    names of {!benefit_mask}'s bits. *)

val benefits_of_total : t -> Pet_valuation.Total.t -> string list
(** Fast path for fully filled forms: evaluate the rule DNFs directly. For
    valuations satisfying [R_ADD] this agrees with {!benefits}. *)

val entails_literal : t -> Pet_valuation.Partial.t -> string -> bool -> bool
(** [entails_literal t w p value]: does [R /\ w] force form predicate [p]
    to [value]?
    @raise Not_found for unknown predicate names. *)

val deduced_literals :
  t -> Pet_valuation.Partial.t -> (string * bool) list
(** Form predicates outside [w]'s domain whose value is nevertheless forced
    by [R /\ w] — what a reasoning attacker learns from the rule set alone
    (before even considering other players' strategies). In universe
    order. One query: the BDD backend answers it with one walk, the
    others with their per-predicate questions. *)

val pp_backend : backend Fmt.t
