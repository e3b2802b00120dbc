(** Per-respondent session state.

    A session walks the Figure-3 applicant side as a state machine:

    {v Created --get_report--> Reported --choose_option--> Chosen
                                   |                          |
                                   +-----(re-report)          +--submit_form--> Submitted v}

    A session never holds the full valuation: [get_report] computes the
    report from it and keeps only the offered options, each a minimized
    subvaluation, in the [Reported] state; the moment an option is chosen
    the other options are erased and only the minimized form survives —
    the service-side enforcement of requirement R2 — and once it is
    submitted the form lives in the ledger alone and the session keeps
    its grant id. Sessions idle longer than the store's TTL are swept,
    which also erases any un-chosen options.

    A store keeps its sessions in flat tables indexed by slot
    ({!Slots}), one immediate per session in each: the idle clock (an
    unboxed float), a packed word (the state, and the chosen benefit
    list's index or the grant id), the chosen form's domain and value
    masks, a pointer to the offered options (a report memo's shared
    list, [[]] outside [Reported]) and one to the rule set, a record
    shared by every session of the store under that digest and tenant.
    With the id index that is about nine words per live session. *)

type state = Created | Reported | Chosen | Submitted

val state_name : state -> string

type t
(** A session in its store: valid until it is swept or purged (its slot
    may then be reused), so a handle never outlives the request that
    looked it up. *)

type store
type counters = { active : int; created : int; expired : int }

val create_store : ?ttl:float -> ?owns:(string -> bool) -> unit -> store
(** [ttl] in seconds, default 3600; [ttl <= 0.] disables expiry.
    [owns] (default: everything) restricts which ids {!create} may hand
    out: a sharded deployment gives each shard's store the predicate
    "this id hashes to my shard", partitioning the shared ["s<n>"]
    sequence without coordination. *)

val reserve : store -> string
(** Take the next sequential id ["s0"], ["s1"], … skipping ids the
    store does not own (deterministic by design: ids order the
    transcript, they are not authentication tokens — a fronting
    transport would wrap them in its own opaque handles). No session
    exists under it until {!restore} lands one. *)

val create : store -> digest:string -> ?tenant:string -> now:float -> unit -> t
(** A fresh session in state [Created] under a {!reserve}d id. *)

val restore :
  store -> id:string -> digest:string -> ?tenant:string -> now:float -> unit -> t
(** A session in state [Created] under a given id: one {!reserve}d
    live, or a recovered one's original id (the caller replays later
    transitions). Advances the id sequence past any numeric ["s<n>"] id
    so new sessions continue where the replayed log left off. *)

(** {2 Reading a session} *)

val id : store -> t -> string
val digest : store -> t -> string
(** The rule set this session applies under. *)

val tenant : store -> t -> string option
(** The tenant this session was opened under, if any; {!digest} pins
    the tenant {e version} it resolved, so a hot rule swap never changes
    this session's answers. *)

val state : store -> t -> state

val options : store -> t -> (Pet_valuation.Partial.t * string list) list
(** The offered MAS (with their benefits), report order; [[]] outside
    [Reported]. *)

val chosen : store -> t -> (Pet_valuation.Partial.t * string list) option
(** The chosen form and its benefits; [Some] in [Chosen] only. *)

val grant_id : store -> t -> int option
(** The archive id; [Some] in [Submitted] only. *)

(** {2 Transitions} *)

val report :
  store -> t -> (Pet_valuation.Partial.t * string list) list -> now:float -> unit
(** Enter [Reported] offering these options (kept by reference). *)

val choose :
  store -> t -> Pet_valuation.Partial.t -> string list -> now:float -> unit
(** Enter [Chosen]: the options are erased, the form is kept as its two
    masks and the benefit list as an index into the rule set's distinct
    lists. *)

val submit : store -> t -> grant_id:int -> now:float -> unit
(** Enter [Submitted]: the chosen form is erased (the ledger holds it),
    the grant id kept. *)

val touch : store -> t -> now:float -> unit
(** Refresh the idle clock (called on every successful request). *)

(** {2 The store} *)

val to_list : store -> t list
(** Every session in memory, in no particular order. *)

val set_on_expire : store -> (t -> unit) -> unit
(** Called as a session is removed by expiry (from {!find}, {!sweep} or
    {!sweep_step}) or by {!purge}, while the session can still be read
    — the service releases the session's tenant quota slot here.
    Default: nothing. *)

val find : store -> string -> now:float -> (t, [ `Unknown | `Expired ]) result
(** Expired sessions are removed on lookup and reported as [`Expired]. *)

val peek : store -> string -> t option
(** Lookup without the expiry check — log replay must reach sessions at
    the clock of the event being replayed, not of the replay itself. *)

val purge : store -> t -> unit
(** Remove a session outside the TTL machinery (consent revocation).
    Fires [on_expire] — the tenant quota slot is released exactly once
    however the session leaves — but does not count towards the
    [expired] counter. *)

val sweep : store -> now:float -> int
(** Remove every expired session; returns how many were removed. *)

val sweep_step : ?budget:int -> store -> now:float -> int
(** Incremental {!sweep}: examine at most [budget] (default 32)
    sessions and eight times as many slots, walking the slots from
    where the previous call stopped and starting a new pass after the
    last slot. Amortized O(budget)
    per call, allocating nothing; called on every request so abandoned
    sessions are reclaimed even if nothing ever looks them up again. *)

val counters : store -> counters
