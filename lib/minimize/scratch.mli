(** Per-domain scratch memory for provider builds.

    A provider build ({!Atlas.build}, then Algorithm 2) works in arrays
    that are dead when it returns: the benefit table, hash sets, the MAS
    buffers, Algorithm 2's per-player state. Allocated afresh, most of
    them land in the major heap, and that garbage drives major cycles,
    each of which stops every domain of the process (DESIGN.md §5). So
    each domain keeps one scratch ([Domain.DLS]): a pool of
    {!Wordbuf.t}s that a build takes in a fixed order and every build on
    that domain reuses. A buffer longer than {!cap} words is not kept:
    larger forms allocate their working arrays afresh, as without the
    scratch, and a domain retains at most {!cap} words per buffer. Nothing
    taken from the scratch may outlive the build. *)

type t

val cap : int
(** [2^14]: the largest buffer, in words, a domain keeps between
    builds. *)

val with_scratch : (t -> 'a) -> 'a
(** [with_scratch f] runs [f] on this domain's scratch, reset: its
    buffers are handed out again from the first. A buffer that grew past
    {!cap} is dropped when [f] returns or raises. A build that starts
    while another holds the scratch (a nested call, or another thread of
    the domain) runs on a fresh scratch of its own. *)

val buffer : t -> Wordbuf.t
(** The next buffer of the pool, empty. *)

val array : t -> int -> int -> int array
(** [array s n x]: the next buffer's words as an array whose first [n]
    elements are [x] (it may be longer). Above {!cap}, a fresh array that
    the scratch does not keep. *)

val floats : t -> int -> float array
(** [floats s n]: the scratch's one float array, at least [n] long, its
    contents unspecified. A longer [n] than it holds gets a fresh array,
    which the scratch keeps in its place up to {!cap}; so each call may
    return the array an earlier one did. *)

val retained_words : unit -> int
(** Words of arrays this domain's scratch keeps between builds. *)
