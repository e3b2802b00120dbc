(** The global bipartite graph of an exposure problem: every MAS of every
    realistic eligible valuation on one side, the valuations that can play
    each MAS on the other. This is the structure behind Tables 2-4 of the
    paper and the input of the game-theoretic layer.

    Players of a MAS are counted as in the paper: all total extensions
    with the same benefit set, without re-filtering by [R_ADD] ("we
    consider that all valuations are realistic", Section 4.1).

    An atlas stays resident for as long as its form is served, so it is
    kept compact: the players' valuation words and the graph's two flat
    adjacency lists, with their offsets, are {!Cells} of 16 bits where
    their values fit, else 32; on the fleet workload's forms all are 16
    bits. The accessors below read them without building lists. *)

type t

val build : ?mode:Algorithm1.mode -> Pet_rules.Engine.t -> t
(** Enumerate the realistic eligible valuations, run Algorithm 1 on each,
    and assemble the deduplicated MAS set with its edges. [mode]
    defaults to [Chain] (the paper's algorithm).
    @raise Invalid_argument on forms above 24 predicates — enumeration is
    infeasible there; {!Symbolic.build} covers the global statistics. *)

val engine : t -> Pet_rules.Engine.t

val mas_count : t -> int
val mas : t -> int -> Algorithm1.choice
val mas_list : t -> Algorithm1.choice list
(** In the paper's lexicographic order. *)

val find_mas : t -> Pet_valuation.Partial.t -> int option

val player_count : t -> int
(** "Number of valuations" in Table 2: distinct valuations attached to at
    least one MAS. *)

val player : t -> int -> Pet_valuation.Total.t
(** Players are kept as valuation words, so each call allocates the
    valuation; {!player_bits} does not. *)

val player_bits : t -> int -> int
(** [Total.bits (player t i)]. *)

val find_player : t -> Pet_valuation.Total.t -> int option

val choices_of_player : t -> int -> int list
(** MAS indices the player can play, ascending. The atlas keeps them
    flat; {!choice_count} and {!choice} read them without building the
    list. *)

val choice_count : t -> int -> int
(** [List.length (choices_of_player t i)]. *)

val choice : t -> int -> int -> int
(** [choice t i k]: the [k]-th element of [choices_of_player t i]. *)

val has_choice : t -> int -> int -> bool
(** [has_choice t i m]: whether MAS [m] is among player [i]'s
    choices. *)

val players_of_mas : t -> int -> int list
(** Player indices that can play the MAS — the "potential" crowd,
    ascending. {!crowd_size} and {!crowd_member} read it without
    building the list. *)

val crowd_size : t -> int -> int
(** [List.length (players_of_mas t m)]. *)

val crowd_member : t -> int -> int -> int
(** [crowd_member t m k]: the [k]-th element of [players_of_mas t m]. *)

val crowd_offset : t -> int -> int
(** The atlas keeps every crowd in one flat list, in MAS order:
    [crowd_member t m k] is its [(crowd_offset t m + k)]-th element, and
    [crowd_offset t (mas_count t)] is its length. *)

val forced_players_of_mas : t -> int -> int list
(** Players whose only choice is this MAS — the crowd lower bound reported
    in brackets in Tables 3 and 4. *)

val choice_distribution : t -> (int * int) list
(** [(k, n)] pairs: [n] valuations have exactly [k] MAS to choose from;
    ascending [k]. Rows 4+ of Table 2. *)

val domain_size_range : t -> int * int
(** Minimum and maximum number of predicates per MAS (Table 2 row 3). *)

val pp_summary : t Fmt.t
