(** State one collection process shares across its worker domains.

    A sharded deployment ({!Pet_net}) runs one {!Service.t} per domain,
    and almost everything a service touches — sessions, compiled
    engines, per-method stats — stays domain-private. Two things cannot:

    - the canonical rule texts, keyed by digest, so a session created on
      one shard can be served by any shard (which recompiles the text
      into its own engine cache — compiled engines are {e not} shared,
      because the BDD backend mutates its memo tables on every query);
    - the grant ledgers, because grant ids are sequential per rule set
      across the whole process and the audit must see every grant;
    - the consent-lifecycle store ({!Consent}), because a revocation must
      reach the grant whichever shard recorded it.

    All three live here behind one mutex (the consent store carries its
    own). The critical sections are short
    (a hash-table probe; recording or auditing one ledger) and — by
    design of the protocol — never contain a raw valuation: what crosses
    a domain boundary is rule text, minimized forms and grant metadata,
    never the respondent's full form. *)

type t

val create : unit -> t

val remember_text : t -> digest:string -> text:string -> bool
(** Record the canonical text for a digest. Returns [true] when the
    digest was new — exactly one shard wins the right (and duty) to
    persist the [Rules] event. *)

val find_text : t -> string -> string option

val with_ledger : t -> string -> (Pet_pet.Ledger.t -> 'a) -> 'a
(** Run [f] on the (lazily created) ledger for a digest, holding the
    lock for the whole call — ledger reads and writes are only ever
    performed inside. *)

val ledger_count : t -> int

val fold_ledgers : t -> (string -> Pet_pet.Ledger.t -> 'a -> 'a) -> 'a -> 'a
(** Fold over every ledger under the lock (stats, snapshots). *)

val consents : t -> Consent.t
(** The process-wide consent-lifecycle store. *)
