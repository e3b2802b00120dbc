(** Consent-lifecycle state: where (ledger key, grant id) each submitted
    session's archived record lives, which sessions revoked, and which
    grants carry an expiry horizon.

    Both tables hold identifiers only — session id, ledger key, grant
    id, timestamps — never a form, so they are kept for the lifetime of
    the archive (like the ledgers themselves) and a respondent can
    revoke long after the session was swept by its TTL. The grant links
    grow with every submission, so they are flat: one packed immediate
    per session (the ledger's index among the keys seen, and the grant
    id) in a table indexed by {!Slots}, about four words per link. A
    {!lifecycle} record exists only for a session a [revoke] or an
    [expire] reached.

    In a sharded deployment one store is shared by every shard, behind
    {!Shared}: a revocation must reach the grant wherever it was
    recorded. The mutex guards both tables and the incremental sweep
    cursor; per-record mutations are effectively single-writer (requests
    route by session id) and the sweep's ledger tombstoning is
    idempotent. *)

type lifecycle = private {
  session : string;
  mutable revoked_at : float option;
  mutable horizon : (float * float) option;  (** (expires_at, set_at) *)
  mutable expired : bool;
      (** the horizon was applied — the grant is tombstoned *)
}

type counters = { revoked : int; expired : int; pending : int }

type t

val create : unit -> t

val link : t -> string -> (string * int) option
(** The session's grant: the ledger it lives in ({!Service.ledger_key})
    and its id. *)

val note_granted : t -> session:string -> key:string -> int -> unit
(** Link the session's grant (replacing any earlier link). *)

val lifecycle : t -> string -> lifecycle option

val tracked : t -> string -> bool
(** Whether the session has a grant link or a lifecycle record. *)

val register : t -> session:string -> lifecycle
(** Find-or-create the session's lifecycle record. *)

val revoke : t -> lifecycle -> at:float -> unit
(** Mark revoked (first call wins; later calls keep the original
    timestamp). The caller tombstones the ledger record itself. *)

val set_horizon : t -> lifecycle -> horizon:float -> at:float -> unit
(** Arm (or move) the expiry horizon — the latest call wins, and the
    record is queued so the next sweep step sees it. *)

val note_expired : t -> lifecycle -> unit
(** The horizon was applied: its grant is now a tombstone. *)

val due : ?budget:int -> t -> now:float -> lifecycle list
(** Armed records whose horizon has passed, visiting at most [budget]
    (default 32) records per call and resuming where the previous call
    stopped — the consent twin of {!Session.sweep_step}. The caller
    tombstones each record's grant, then calls {!note_expired}; both
    happen outside this call so the ledger lock is never taken under
    the consent lock. *)

val all_due : t -> now:float -> lifecycle list
(** Every armed record past [now], unbudgeted — the post-recovery pass
    applying whatever horizons a crash interrupted. *)

type entry = {
  session : string;
  key : string;  (** [""] without a grant link *)
  grant_id : int option;
  revoked_at : float option;
  horizon : (float * float) option;
  expired : bool;
}
(** A tracked session's link and lifecycle, read out. *)

val entries : t -> entry list
(** Every tracked session, in no particular order. *)

val counters : t -> counters
(** Each count is kept as the records change, so a [stats] or a metrics
    scrape takes the lock for O(1), however many there are. [pending]
    counts the records the sweep has yet to apply: those carrying a
    horizon, not revoked and not yet expired. *)
