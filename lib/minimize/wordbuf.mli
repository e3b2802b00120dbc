(** Growable buffers of machine words, for the provider-build kernels
    ({!Algorithm1.mas_words}, {!Atlas.build}, Algorithm 2). A buffer
    grows by doubling into a fresh array; one of more than 256 words is
    allocated in the major heap, so a grown buffer costs no minor
    words. *)

type t = private { mutable a : int array; mutable len : int }
(** The words are [a.(0 .. len - 1)]. *)

val create : unit -> t
val clear : t -> unit
val push : t -> int -> unit

val fill : t -> int -> int -> unit
(** [fill b n x]: [b] holds [n] copies of [x]. An array long enough is
    reused; else one of at least twice the length replaces it. *)

val truncate : t -> int -> unit
(** [truncate b k] keeps the first [k] words; [k <= len]. *)

val sort : t -> (int -> int -> int) -> unit
(** Sort ascending by the comparison, in place (heapsort). *)

val sort_unique : t -> unit
(** Sort ascending and drop repeats, in place. *)
