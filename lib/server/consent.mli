(** Consent-lifecycle state: which sessions revoked, which grants carry
    an expiry horizon, and where (ledger key, grant id) the archived
    record lives.

    One entry per session that has something at stake. Entries hold
    identifiers only — session id, ledger key, grant id, timestamps —
    never a form, so they are kept for the lifetime of the archive
    (like the ledgers themselves) and a respondent can revoke long
    after the session was swept by its TTL.

    In a sharded deployment one store is shared by every shard, behind
    {!Shared}: a revocation must reach the grant wherever it was
    recorded. The mutex guards the table and the incremental sweep
    cursor; per-entry mutations are effectively single-writer (requests
    route by session id) and the sweep's ledger tombstoning is
    idempotent. *)

type entry = private {
  session : string;
  mutable key : string;
      (** the ledger the session's grant lives in
          ({!Service.ledger_key}); [""] until a grant is linked *)
  mutable grant_id : int option;
  mutable revoked_at : float option;
  mutable horizon : (float * float) option;  (** (expires_at, set_at) *)
  mutable expired : bool;
      (** the horizon was applied — the grant is tombstoned *)
}

type counters = { tracked : int; revoked : int; expired : int; pending : int }

type t

val create : unit -> t
val find : t -> string -> entry option

val entries : t -> entry list
(** Every entry, in no particular order. *)

val register : t -> session:string -> entry
(** Find-or-create the entry for a session, keyless and unlinked. *)

val note_granted : entry -> key:string -> int -> unit
(** Link the session's grant: the ledger it lives in and its id. *)

val revoke : t -> entry -> at:float -> unit
(** Mark revoked (first call wins; later calls keep the original
    timestamp). The caller tombstones the ledger record itself. *)

val set_horizon : t -> entry -> horizon:float -> at:float -> unit
(** Arm (or move) the expiry horizon — the latest call wins, and the
    entry is queued so the next sweep step sees it. *)

val note_expired : t -> entry -> unit
(** The horizon was applied: its grant is now a tombstone. *)

val due : ?budget:int -> t -> now:float -> entry list
(** Armed entries whose horizon has passed, visiting at most [budget]
    (default 32) entries per call and resuming where the previous call
    stopped — the consent twin of {!Session.sweep_step}. The caller
    tombstones each entry's grant, then calls {!note_expired}; both
    happen outside this call so the ledger lock is never taken under
    the consent lock. *)

val all_due : t -> now:float -> entry list
(** Every armed entry past [now], unbudgeted — the post-recovery pass
    applying whatever horizons a crash interrupted. *)

val counters : t -> counters
(** Each count is kept as the entries change, so a [stats] or a metrics
    scrape takes the lock for O(1), however many entries there are.
    [pending] counts the entries the sweep has yet to apply: those
    carrying a horizon, not revoked and not yet expired. *)
