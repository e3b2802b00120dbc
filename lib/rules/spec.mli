(** Textual rule files — the artifact a service provider authors once per
    form (Step 1 of the paper's methodology, Section 5).

    Syntax, one declaration per line ([#] starts a comment):

    {v
    form p1 p2 p3
    benefits b1 b2 b3
    rule b1 := p1 | (p2 & p3)
    rule b2 := p1 & !p2
    constraint p1 -> !p2
    v}

    Eligibility formulas may use any CPL connectives; they are converted
    to DNF (Definition 3.9 allows this without loss of generality). *)

val parse : string -> (Exposure.t, string) result
(** Parse the contents of a rule file. Errors carry the 1-based line. *)

val parse_exn : string -> Exposure.t
(** @raise Invalid_argument with the error message. *)

val to_string : Exposure.t -> string
(** Render an exposure problem back to the rule-file syntax; [parse] of
    the output reconstructs an equivalent problem. It is the canonical
    text that rule and tenant digests are taken over, built in one
    buffer without [Format]. *)

val print : Exposure.t Fmt.t
(** Prints {!to_string}'s text. *)
