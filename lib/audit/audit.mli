(** Offline compliance audit: replay a data directory's write-ahead log
    and prove, record by record, that what the provider persisted is
    what the PET allows it to persist — without a running service and
    without trusting the code that wrote the log.

    [pet audit <data-dir>] walks the exact files recovery would replay,
    by recovery's own walk ({!Pet_store.Store.walk_replay}), re-reads
    every checksummed record, and checks six properties:

    - {b integrity} — every record is whole, checksummed and decodes to
      a known event. Each file's ending is judged by recovery's own rule
      ({!Pet_store.Segment.walk_chain}): a torn tail on the {e last}
      segment is the signature of a crash mid-append (recovery truncates
      it) and is reported as a note, not a violation; torn or corrupt
      bytes anywhere else, a snapshot included, are violations, and the
      walk goes on with the next file.
    - {b r2} — no record carries a ["valuation"] key at any depth
      ({!Pet_server.Persist.carries_valuation}): the raw form
      must never reach disk (requirement R2), only minimized forms.
    - {b minimality} — every persisted form (a grant's archived record,
      a session's chosen option) still proves {e exactly} the benefits
      recorded next to it ({!Pet_pet.Workflow.audit}) and is
      ≤-minimal for them ({!Pet_minimize.Algorithm1.is_minimal}),
      re-deriving both from the rule text the log itself retains.
    - {b revocation} — once a [session_revoked] record appears, no later
      record re-establishes that session's data: no grant, no chosen
      form, no session transition. Tombstones never resurrect.
    - {b expiry} — once the log's own clock (the largest timestamp
      replayed so far, including the record under scrutiny) passes a
      session's [session_expiry] horizon, no later record establishes
      data for it. The latest horizon for a session wins, matching the
      service.
    - {b replay} — the log is self-consistent under replay: no grant id
      appears twice in a (tenant, digest) ledger, sessions transition
      only after they are created, and no session is created twice.
      Grant ids may arrive out of order — two shards draw ids from one
      ledger and reach the single writer in either order — and an id
      below a ledger's highest that no record carries is a grant a
      crash cut in flight: a note, like a torn tail.

    Every violation is anchored at the byte offset of the offending
    record in its file, so an operator can inspect (or excise) the exact
    bytes. The checks are {e establishment-time}: the append-only log
    legitimately retains the bytes of a grant that was later revoked —
    replay tombstones it — so a healthy log always passes, while any
    record that (re)establishes data past its revocation or horizon is
    flagged. *)

type violation = {
  file : string;  (** base name of the snapshot or segment *)
  offset : int;  (** byte offset of the record's frame header *)
  detail : string;
}

type property = {
  name : string;
      (** ["integrity"], ["r2"], ["minimality"], ["revocation"],
          ["expiry"] or ["replay"] *)
  checked : int;  (** records this property examined *)
  violations : violation list;  (** log order *)
}

type report = {
  dir : string;
  files : int;  (** snapshot + segments walked *)
  records : int;  (** whole records read *)
  note : string option;
      (** legitimate crash damage, reported but not a violation: a torn
          tail on the last segment, grant ids that never reached the
          log (notes joined by ["; "]) *)
  properties : property list;  (** the six properties, fixed order *)
}

val run :
  ?mode:Pet_minimize.Algorithm1.mode ->
  ?backend:Pet_rules.Engine.backend ->
  string ->
  (report, string) result
(** Audit a data directory. Nothing on disk is touched. [Error] only
    when the directory itself is unreadable — a damaged log is a
    {e report} with violations, not an error. [mode] (default [Chain])
    and [backend] (default [Bdd]) select the minimality recheck, as in
    the online auditor. *)

val pass : report -> bool
(** No property has a violation. A note (crash damage) does not fail. *)

val to_json : report -> Pet_pet.Json.t
(** Machine-readable rendering: [{"dir", "files", "records", "pass",
    "note"?, "properties": [{"name", "checked", "violations":
    [{"file", "offset", "detail"}]}]}]. *)

val pp : Format.formatter -> report -> unit
(** Human rendering: one PASS/FAIL line per property, violations with
    [file @ byte offset], and a final verdict line. *)
