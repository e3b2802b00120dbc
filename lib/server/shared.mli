(** State one collection process shares across its worker domains.

    Every {!Service.t} keeps the state below in a [Shared.t]: the
    serving core ({!Pet_net}) runs one service per domain and passes
    them one, and a service created without one makes a private one.
    Almost everything a service touches — sessions, compiled
    engines — stays domain-private, and each shard is the only writer of
    its own per-request accounting. Some things must be reachable from
    every shard:

    - the canonical rule texts, keyed by digest, so a session created on
      one shard can be served by any shard (which recompiles the text
      into its own engine cache — compiled engines are {e not} shared,
      because the BDD backend mutates its memo tables on every query);
    - the grant ledgers, because grant ids are sequential per rule set
      across the whole process and the audit must see every grant;
    - the consent-lifecycle store ({!Consent}), because a revocation must
      reach the grant whichever shard recorded it;
    - the list of every shard's per-request accounting set
      ({!Accounting}) and of its counter reader (engines, registry
      traffic, sessions, grants), so a [metrics] request, a [watch]
      frame or a flight snapshot taken on one shard merges all of them.

    All of it lives here behind one mutex (the consent store carries its
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

val register_accounts : t -> Accounting.t -> unit
(** Add one shard's accounting set; sets keep registration order, which
    the sharded server makes its domain order. *)

val accounts : t -> Accounting.t list
(** Every registered set. The list is read under the lock; the cells
    inside are not — their owning shards keep recording while a reader
    merges them (word-sized, memory-safe racy reads that may lag
    in-flight requests; see {!Accounting}). *)

val register_counters : t -> (unit -> (string * int) list) -> unit
(** Add one shard's counter reader, as {!register_accounts} adds its
    accounting set. Every reader returns the same names in the same
    order, and a snapshot sums their values name by name. *)

val counters : t -> (unit -> (string * int) list) list
(** Every registered reader, in registration order. A reader reads its
    shard's counters racily, like the accounting cells: word-sized,
    memory-safe, possibly behind requests still in flight. *)
