(** Classical Propositional Logic formulas over named variables.

    This is the language [L(AtProp)] of Definition 3.1 in the paper:
    [A := 0 | 1 | p | not A | A or A | A and A | A -> A] extended with
    the equivalence connective used by decision rules. *)

type t =
  | True
  | False
  | Var of string
  | Not of t
  | And of t * t
  | Or of t * t
  | Implies of t * t
  | Iff of t * t

val equal : t -> t -> bool
val compare : t -> t -> int

(** {1 Smart constructors}

    These perform local simplification with the logical constants so that
    mechanically-built formulas stay readable; they never change the
    semantics. *)

val var : string -> t
val neg : t -> t
val ( && ) : t -> t -> t
val ( || ) : t -> t -> t
val ( => ) : t -> t -> t
val ( <=> ) : t -> t -> t

val conj : t list -> t
(** [conj fs] is the conjunction of [fs]; [True] when empty. *)

val disj : t list -> t
(** [disj fs] is the disjunction of [fs]; [False] when empty. *)

(** {1 Queries} *)

val eval : (string -> bool) -> t -> bool
(** [eval rho f] evaluates [f] under the total assignment [rho].
    @raise Not_found (or whatever [rho] raises) on unknown variables. *)

val vars : t -> string list
(** Free variables, sorted and without duplicates. *)

val size : t -> int
(** Number of connectives and atoms. *)

val map_vars : (string -> t) -> t -> t
(** [map_vars s f] substitutes [s x] for every variable [x] of [f]. *)

(** {1 Semantics by enumeration}

    Reference semantics used by the test oracle. Exponential in the number
    of variables; intended for formulas with at most ~20 variables. *)

val all_assignments : string list -> (string -> bool) list
(** All total assignments over the given variables. The list of variables
    must have no duplicates. *)

val tautology : t -> bool
val satisfiable : t -> bool
val entails : t -> t -> bool
(** [entails f g] holds iff every model of [f] over [vars f @ vars g]
    satisfies [g]. *)

val equivalent : t -> t -> bool

(** {1 Printing} *)

val pp : t Fmt.t
(** Fully parenthesis-minimal printing, with [!], [&], [|], [->], [<->]. *)

val to_string : t -> string

val add_to_buffer : Buffer.t -> t -> unit
(** What {!pp} prints, appended to the buffer. *)
