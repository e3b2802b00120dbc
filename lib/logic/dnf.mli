(** Disjunctive normal form (Definition 3.2): a disjunction of
    conjunctions of literals. DNFs are the left-hand sides of decision
    process rules, so they get a first-class representation. *)

type conjunction = Literal.t list
(** Invariant for values built by this module: sorted by {!Literal.compare},
    duplicate-free, and without complementary literals. *)

type t = conjunction list

val normalize_conjunction : Literal.t list -> conjunction option
(** Sort, deduplicate; [None] when the conjunction contains a literal and
    its negation (i.e. is unsatisfiable). *)

val of_formula : Formula.t -> t
(** Equivalent DNF by NNF + distribution. Contradictory conjunctions are
    dropped and subsumed conjunctions removed; exponential in the worst
    case, as any DNF conversion must be. *)

val to_formula : t -> Formula.t

val conjunction_holds : (string -> bool) -> conjunction -> bool
val holds : (string -> bool) -> t -> bool

val vars : t -> string list
(** Sorted, duplicate-free. *)

val subsumes : conjunction -> conjunction -> bool
(** [subsumes c c'] when the literal set of [c] is a subset of [c']'s, so
    [c'] implies [c]. *)

val remove_subsumed : t -> t

val pp : t Fmt.t
(** Conjunctions joined by [" | "], literals by [" & "]; [true] and
    [false] for the empty conjunction and the empty DNF. *)

val add_to_buffer : Buffer.t -> t -> unit
(** What {!pp} prints, appended to the buffer. *)
