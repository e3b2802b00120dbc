(** Protocol fuzzing of {!Pet_server.Service}: feed seeded random,
    mutated and malformed request lines into a live service instance and
    assert the router's contract — {e every} line gets exactly one
    response line that parses as a protocol envelope carrying ["ok"] or a
    structured ["error"], and nothing ever raises.

    The generator mixes well-formed requests over a pool of small
    generated rule sets (so real sessions, engine compilations and LRU
    evictions happen) with byte-level mutations: truncations, bit flips,
    junk insertions, doubled lines, wrong envelope versions, 600-deep
    nesting (the JSON parser caps at 512) and oversized lines (the
    {!Pet_server.Proto.max_line_bytes} guard). Fully deterministic for a
    given [seed] and [count].

    Two compiled-fast-path checks ride along. Every generated line also
    exercises {!Pet_server.Proto.decode_fast}: whenever the one-pass
    cursor scanner accepts a line, its envelope must be structurally
    identical to the full decoder's — any disagreement (including lines
    the full decoder rejects) is a soundness violation. And a
    fallback-boundary phase generates forms on both sides of
    {!Pet_compile.Code.max_tabulated_predicates} — including >20
    predicates, beyond every enumeration-based helper — and differences
    the compiled backend against the SAT backend on random partial
    valuations. *)

type stats = {
  requests : int;
  ok : int;
  errors : int;  (** structured protocol errors — expected outcomes *)
  invalid_responses : int;
      (** responses that are not valid envelopes — contract violations *)
  crashes : (string * string) list;
      (** (offending line, exception) — contract violations *)
  by_code : (string * int) list;  (** error-code histogram, sorted *)
  cursor_checked : int;  (** lines offered to {!Pet_server.Proto.decode_fast} *)
  cursor_fast : int;  (** lines the cursor scanner accepted *)
  cursor_mismatches : (string * string) list;
      (** (offending line, disagreement) — soundness violations *)
  boundary_checks : int;
      (** partial valuations compared across the tabulation boundary *)
  boundary_failures : (string * string) list;
      (** (form, divergence) — compiled-vs-SAT violations *)
}

val run : ?seed:int -> count:int -> unit -> stats

val passed : stats -> bool
(** The verdict of [pet check --fuzz]: no crash, no invalid response,
    no cursor mismatch and no boundary failure. *)

val pp : stats Fmt.t
(** One summary line, plus one line per crash. *)

(** {1 Corpus fuzzing}

    Tenant-lifecycle fuzzing over the realistic form corpus
    ({!Pet_corpus.Corpus}): publish a seeded multi-tenant scenario
    (including one deliberately oversized form whose background build
    must fail), then drive a Zipf-weighted mix of session opens,
    reports, choices, submissions, hot rule updates and hostile tenant
    traffic through a live service. Beyond the envelope contract
    (every line answered, nothing raises), it checks the hot-swap
    invariant: after each [update_rules] settles, replaying a pinned
    session's exact report line must return byte-identical bytes —
    in-flight sessions never observe a version swap. The engine cache
    is kept deliberately small so pinned sessions also survive LRU
    eviction and the tenant-text recompile fallback. Fully
    deterministic for a given [seed] and [count]. *)

type corpus_stats = {
  corpus_requests : int;
  corpus_ok : int;
  corpus_errors : int;  (** structured protocol errors — expected outcomes *)
  corpus_invalid : int;
      (** responses that are not valid envelopes — contract violations *)
  corpus_crashes : (string * string) list;
      (** (offending line, exception) — contract violations *)
  corpus_tenants : int;  (** tenants published, incl. the oversized one *)
  corpus_build_failures : int;
      (** failed background builds observed (≥ 1, from the oversized form) *)
  corpus_updates : int;  (** hot rule migrations driven *)
  swap_checks : int;  (** pinned-session replays compared across swaps *)
  swap_mismatches : (string * string) list;
      (** (report line, divergence) — hot-swap violations *)
}

val run_corpus : ?seed:int -> count:int -> unit -> corpus_stats

val passed_corpus : corpus_stats -> bool
(** The verdict of [pet check --fuzz-corpus]: no crash, no invalid
    response, no swap mismatch, and the oversized form's build was seen
    to fail. *)

val pp_corpus : corpus_stats Fmt.t
(** Two summary lines, plus one line per crash or swap mismatch. *)

(** {1 Store fuzzing}

    Corruption fuzzing of the durable store ({!Pet_store.Store}):
    generate event logs, then bit-flip, truncate, zero and splice their
    bytes, and assert the recovery contract — recovery {e never} raises,
    in-place damage yields a clean {e prefix} of what was written, any
    loss is localized by [scan] with an in-bounds byte offset (never
    silent), the surviving stream replays into a service without
    raising, and the directory remains appendable afterwards. Fully
    deterministic for a given [seed] and [count]. *)

type store_stats = {
  logs : int;  (** mutated log directories exercised *)
  mutations : (string * int) list;  (** mutation-kind histogram, sorted *)
  recovered_events : int;
  damage_reports : int;
  torn_tails : int;
  replay_errors : int;
      (** structured [apply_event] errors (possible for spliced logs) *)
  store_violations : (string * string) list;
      (** (invariant, detail) — contract violations; must be empty *)
}

val run_store : ?seed:int -> count:int -> unit -> store_stats

val passed_store : store_stats -> bool
(** The verdict of [pet check --fuzz-store]: no violation. *)

val pp_store : store_stats Fmt.t
(** One summary line, plus one line per violation. *)

(** {1 Consent-lifecycle fuzzing}

    End-to-end fuzzing of the consent lifecycle against the offline
    compliance audit: drive a durable service through full lifecycles,
    revoke and expire a random subset, kill it without shutdown (a torn
    active segment), and assert that {!Pet_audit.Audit} passes the
    healthy log (torn tail included), that recovery resurrects no
    tombstone and applies every passed horizon, and that a {e forged}
    grant re-establishing a revoked session — appended straight to the
    log, bypassing the service — is caught by the audit with a
    revocation violation. Deterministic for a given [seed] and
    [count]. *)

type consent_stats = {
  rounds : int;  (** lifecycle + crash + audit rounds *)
  consent_requests : int;
  revokes : int;
  expiries : int;
  crash_recoveries : int;
  audits_passed : int;  (** healthy audits (pre- and post-tear) *)
  injections_caught : int;  (** forged grants the audit flagged *)
  consent_violations : (string * string) list;
      (** (invariant, detail) — must be empty *)
}

val run_consent : ?seed:int -> count:int -> unit -> consent_stats

val passed_consent : consent_stats -> bool
(** The verdict of [pet check --fuzz-consent]: no violation, and at
    least one healthy audit passed unless no round ran. *)

val pp_consent : consent_stats Fmt.t
(** One summary line, plus one line per violation. *)
