(** The service provider's archive: the minimized records kept "possibly
    for several years, as legal proof of the process and/or transaction,
    or simply to be used for internal audit" (Section 2.1, step 4).

    Only the minimized form and the granted benefits are stored — this
    is where the storage-limitation payoff of the PET materializes. The
    archive is append-only in its {e ids}: re-auditing never mutates it,
    and the only mutation consent law forces on it is {!revoke}, which
    erases a record's subvaluation in place (a tombstone) while keeping
    its id slot, so every later grant id and the audit ordering stay
    valid.

    The records are kept as a flat table indexed by id, three immediates
    per id: the form's domain and value masks (read back under the
    universe of the ledger's first form) and a tag, the index of the
    record's benefit list among the ledger's distinct lists, or a mark
    for a tombstone or an id with no record. So {!find} and {!revoke}
    are O(1) and a record costs three words, not a boxed grant. The
    benefit list is interned as it was given, not re-derived from a
    rule set, so a replayed or tampered list reads back verbatim. A
    record the table cannot hold — a form over another universe, or an
    id below 0 or more than 65,536 past the table's end — is kept aside
    in a hash table. *)

type t

type entry = { id : int; grant : Workflow.grant option }
(** [grant = None] is a tombstone: the record's minimized form was
    erased after the respondent revoked consent (or the grant passed its
    expiry horizon); only the id remains, as proof a record existed and
    was purged. *)

val create : unit -> t

val reserve : t -> int
(** Take the next archive id (sequential from 0) without recording
    anything at it yet: {!restore} lands the record. Between the two the
    id counts towards {!size} but has no entry, like a slot a crash cut. *)

val record : t -> Workflow.grant -> int
(** Append a grant: {!reserve} an id, then {!restore} the grant at it.
    Returns the id. *)

val restore : t -> int -> Workflow.grant option -> bool
(** Replay: put a record ([None]: an already-tombstoned one) at its own
    id. Ids may arrive out of order — shards draw them from one ledger
    but reach the log's single writer in either order — and an id never
    replayed stays an empty slot below {!size} (only a crash cutting an
    in-flight grant leaves one). [false], changing nothing, if the id is
    already taken. *)

val revoke : t -> int -> [ `Revoked | `Already | `Unknown ]
(** Erase the record's subvaluation in place. [`Already] if the record
    is already a tombstone, [`Unknown] if the id was never recorded. *)

val find : t -> int -> Workflow.grant option
(** [None] for unknown ids {e and} for tombstoned records. O(1). *)

val size : t -> int

val tombstones : t -> int
(** How many records are tombstones: a running count, O(1). *)

val entries : t -> entry list
(** In id order. *)

val stored_values : t -> int
(** Total number of predicate values held — the provider's storage
    footprint, to compare against [size * form width] for the legacy
    full-form process. Tombstoned records hold zero. A running count,
    kept by {!restore} and {!revoke}: O(1), however many records. *)

val audit : t -> Workflow.t -> int list
(** Re-verify every archived record against the rules
    ({!Workflow.audit}); returns the ids of the failing records
    (tampered or recorded under different rules), ascending. Tombstones
    store nothing and are skipped. *)

val to_json : t -> Json.t
