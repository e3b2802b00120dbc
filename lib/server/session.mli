(** Per-respondent session state.

    A session walks the Figure-3 applicant side as a state machine:

    {v Created --get_report--> Reported --choose_option--> Chosen
                                   |                          |
                                   +-----(re-report)          +--submit_form--> Submitted v}

    A session never holds the full valuation: [get_report] computes the
    report from it and keeps only the offered options, each a minimized
    subvaluation, in the [Reported] state; the moment an option is chosen
    the other options are erased and only the minimized form survives —
    the service-side enforcement of requirement R2. Sessions idle longer
    than the store's TTL are swept, which also erases any un-chosen
    options. *)

type state = Created | Reported | Chosen | Submitted

val state_name : state -> string

type t = {
  id : string;
  digest : string;  (** the rule set this session applies under *)
  tenant : string option;
      (** the tenant this session was opened under, if any; [digest]
          pins the tenant {e version} it resolved, so a hot rule swap
          never changes this session's answers *)
  created_at : float;
  mutable last_active : float;
  mutable state : state;
  mutable options : (Pet_valuation.Partial.t * string list) list;
      (** the offered MAS (with their benefits), report order; only while
          [Reported] *)
  mutable chosen : (Pet_valuation.Partial.t * string list) option;
      (** the minimized form; [Some] from [Chosen] on *)
  mutable grant_id : int option;  (** archive id once [Submitted] *)
}

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

val set_on_expire : store -> (t -> unit) -> unit
(** Called as a session is removed by expiry (from {!find}, {!sweep} or
    {!sweep_step}) — the service releases the session's tenant quota
    slot here. Default: nothing. *)

val find : store -> string -> now:float -> (t, [ `Unknown | `Expired ]) result
(** Expired sessions are removed on lookup and reported as [`Expired]. *)

val peek : store -> string -> t option
(** Lookup without the expiry check — log replay must reach sessions at
    the clock of the event being replayed, not of the replay itself. *)

val to_list : store -> t list
(** Every session in memory, in no particular order. *)

val purge : store -> t -> unit
(** Remove a session outside the TTL machinery (consent revocation).
    Fires [on_expire] — the tenant quota slot is released exactly once
    however the session leaves — but does not count towards the
    [expired] counter. Idempotent: purging a session already removed
    (or swept) does nothing, so a purge followed by a sweep can never
    double-release. *)

val touch : t -> now:float -> unit
(** Refresh the idle clock (called on every successful request). *)

val sweep : store -> now:float -> int
(** Remove every expired session; returns how many were removed. *)

val sweep_step : ?budget:int -> store -> now:float -> int
(** Incremental {!sweep}: examine at most [budget] (default 32) sessions,
    resuming where the previous call stopped and restarting a pass over
    the live table when one completes. Amortized O(budget) per call;
    called on every request so abandoned sessions are reclaimed even if
    nothing ever looks them up again. *)

val counters : store -> counters
