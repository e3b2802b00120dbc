(** Literals: a propositional variable or its negation (Definition 3.2). *)

type t = { var : string; sign : bool }
(** [sign = true] is the positive literal. *)

val pos : string -> t
val neg : string -> t
val negate : t -> t
val equal : t -> t -> bool
val compare : t -> t -> int

val to_formula : t -> Formula.t
val of_formula : Formula.t -> t option
(** [of_formula f] is [Some l] when [f] is a variable or a negated
    variable, [None] otherwise. *)

val holds : (string -> bool) -> t -> bool
val pp : t Fmt.t

val add_to_buffer : Buffer.t -> t -> unit
(** What {!pp} prints, appended to the buffer. *)
