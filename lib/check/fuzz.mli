(** The fuzz modes of [pet check]: one core and four generator/oracle
    pairs. Every mode is fully deterministic for a given [seed] and
    [count].

    The core feeds request lines into an in-process
    {!Pet_server.Service} and classifies each reply exactly once: an
    ["ok"] payload, a structured error code, an invalid response (not an
    envelope carrying exactly one of ["ok"] and ["error"]) or a crash
    (the service raised). The last two go to the run's violation log,
    which every mode's own oracle writes to as well. The core also owns
    the crash-and-recover step of the durable modes: a scratch
    directory removed however the run ends, a torn active segment, and
    recovery through {!Pet_store.Store.open_dir} and
    {!Pet_net.Recovery.replay} — the path a restarted server takes.

    The modes:
    - {b protocol} ([--fuzz]): well-formed requests over small generated
      rule sets (real sessions, compilations and LRU evictions) mixed
      with byte-level mutations — truncations, bit flips, junk, doubled
      lines, wrong envelope versions, 600-deep nesting (the JSON parser
      caps at 512) and oversized lines
      ({!Pet_server.Proto.max_line_bytes}). Every line is also offered
      to {!Pet_server.Proto.decode_fast}, whose envelope must equal the
      full decoder's whenever it accepts a line; and a boundary phase
      differences the compiled backend against SAT on forms both sides
      of {!Pet_compile.Code.max_tabulated_predicates} (up to 20+).
    - {b store} ([--fuzz-store]): generated event logs are bit-flipped,
      truncated, zeroed and spliced. Recovery never raises, in-place
      damage yields a clean prefix of what was written, any loss is
      localized by [scan] at an in-bounds offset, the survivors replay
      into a service, and the recovered directory stays appendable.
    - {b corpus} ([--fuzz-corpus]): a seeded multi-tenant scenario from
      {!Pet_corpus.Corpus} (plus one oversized form whose background
      build must fail) under a Zipf mix of opens, reports, choices,
      submissions, hot rule updates and hostile tenant traffic, with a
      small engine cache. After each update settles, every pinned
      session's exact report line is replayed and must answer
      byte-identically: in-flight sessions never see a version swap.
    - {b consent} ([--fuzz-consent]): a durable service runs full
      lifecycles, revokes and expires some, and is killed without
      shutdown (a torn tail). {!Pet_audit.Audit} must pass the log
      before and after the tear, recovery must resurrect no tombstone
      and apply every passed horizon, and a forged grant re-establishing
      a revoked session, appended behind the service's back, must be
      flagged as a revocation violation. *)

type kind =
  | Crash  (** the service raised on a line *)
  | Invalid_response  (** a reply that is not a protocol envelope *)
  | Cursor_mismatch  (** [decode_fast] disagrees with the full decoder *)
  | Boundary_failure  (** compiled and SAT backends diverge *)
  | Swap_mismatch  (** a pinned session answered differently *)
  | Violation  (** a store or consent invariant failed *)

type violation = { kind : kind; what : string; detail : string }
type mode = Protocol | Store | Corpus | Consent

type summary = {
  mode : mode;
  requests : int;  (** lines fed, replays included *)
  ok : int;
  errors : int;  (** structured protocol errors — expected outcomes *)
  by_code : (string * int) list;  (** error-code histogram, sorted *)
  tallies : (string * int) list;
      (** the mode's own counts, sorted by the name its summary line
          prints them under: ["cursor checked"], ["fast-decoded"] and
          ["boundary checks"] (protocol); ["mutated logs"], one per
          mutation kind, ["events recovered"], ["damage reports"],
          ["torn tails"] and ["replay errors"] (store); ["tenants"],
          ["updates"], ["build failures"] and ["swap checks"] (corpus);
          ["rounds"], ["revokes"], ["expiries"], ["crash recoveries"],
          ["audits passed"] and ["injections caught"] (consent) *)
  violations : violation list;  (** in the order found *)
}

val run : ?seed:int -> count:int -> unit -> summary
(** Protocol fuzzing: [count] lines, then the boundary phase. *)

val run_store : ?seed:int -> count:int -> unit -> summary
(** Store fuzzing over [count] mutated logs. *)

val run_corpus : ?seed:int -> count:int -> unit -> summary
(** Corpus fuzzing: at least [count] requests. *)

val run_consent : ?seed:int -> count:int -> unit -> summary
(** Consent-lifecycle fuzzing over [count] rounds. *)

val count : kind -> summary -> int
(** Violations of one kind. *)

val tally : string -> summary -> int
(** One of the mode's counts; [0] if it never moved. *)

val passed : summary -> bool
(** The verdict of [pet check]: no violation, and the mode's floor was
    seen — the oversized build failed (corpus), and a healthy audit
    passed unless no round ran (consent). *)

val pp : summary Fmt.t
(** The mode's summary line(s), plus two lines per violation. *)
