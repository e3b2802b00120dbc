(** The collection-service core: a pure request router over the PET
    workflow.

    One [Service.t] serves many concurrent respondent sessions over many
    published rule sets. It owns the compiled-engine {!Registry} (one
    {!Pet_pet.Workflow.provider} per distinct rule set, shared by every
    session) and the {!Session} store (per-respondent state machines
    with TTL expiry, swept on every request). Rule texts and one
    {!Pet_pet.Ledger} per rule set live in a {!Shared} state and
    survive engine evictions — the cache bounds compute, not the
    legally retained records.

    The core is transport-agnostic and deliberately synchronous:
    {!handle_line} maps one request line to one response line, so its
    caller — the serving core of [pet serve] ({!Pet_net}), a test
    harness — provides the I/O and, if it wants parallelism, the
    locking around a service instance. The serving core runs one
    instance per worker domain, each serving only
    the sessions whose ids hash to it ([owns]) and deferring rule texts
    and grant ledgers to the process-wide {!Shared} state. Determinism
    is preserved by injecting the clock: tests and cram transcripts pass
    a logical clock, production passes wall time. *)

type t

type compiled
(** One fully built rule-set artifact: compiled engine, MAS atlas,
    solved equilibrium, and the rendered-report memo (one slot per atlas
    player, allocated on the artifact's first [get_report]). Safe to
    serve from several domains at once: a tenant's artifact is shared
    by every shard. Abstract — it only appears as the artifact type of
    the tenant registry, [compiled Pet_tenant.Tenant.t]. *)

val create :
  ?payoff:Pet_game.Payoff.kind ->
  ?capacity:int ->
  ?ttl:float ->
  ?owns:(string -> bool) ->
  ?shared:Shared.t ->
  ?tenants:compiled Pet_tenant.Tenant.t ->
  ?tenant_quota:int ->
  ?resolve:(string -> string option) ->
  ?durable:bool ->
  now:(unit -> float) ->
  unit ->
  t
(** Every rule set compiles to a {!Pet_rules.Engine.Compiled} engine
    (bitmask tables, BDDs above the tabulation threshold), and its
    artifact memoizes each atlas player's rendered [get_report] answer
    on first computation; a valuation that is no player is refused
    afresh each time. Request lines in the common envelope shape take
    the AST-free {!Proto.decode_fast} scanner, every other line
    {!Proto.decode}. Responses are those of the plain pipeline
    ([test_server]'s "get_report memo matches the engine path" checks
    it).

    [capacity] bounds the engine registry (default 16); [ttl] is the
    session idle timeout in seconds (default 3600, [<= 0.] disables);
    [resolve] maps [source] names in requests to rule-spec text (the CLI
    wires the built-in case studies here); [now] is called exactly twice
    per request (entry and exit), so a logical clock advancing 1.0 per
    call yields fully deterministic latencies and expiry.

    [owns] restricts which session ids this instance creates (see
    {!Session.create_store}); absent, it creates every id. [shared]
    holds the rule texts, grant ledgers, consent entries and
    accounting sets: the serving core passes one to every shard, and
    absent, the instance creates a private {!Shared.create}, so a
    standalone instance behaves exactly like a one-shard [pet serve].
    Every compiled rule set's canonical text is retained there, so an
    engine evicted from the LRU cache is recompiled transparently.

    [durable] (default false) announces each rule set's first
    compilation to the {!Persist.sink} as a [Rules] event.

    [tenants] shares a multi-tenant form registry with other service
    instances — the sharded TCP server passes one registry to every
    shard, like [shared]. Absent, the service creates a private
    registry with [tenant_quota] as the default per-tenant
    active-session cap (default 0 = unlimited). Tenant builds queue in
    the registry and run on whichever domain waits for them ([tenant
    {"wait":true}], a [new_session] on a first version still building)
    or, under [pet serve], on the shard loops. Each tenant version is
    built once per process: every instance sharing the registry serves
    its one artifact. Every provider build, tenant or not, counts in
    [pet_provider_builds_total]. *)

val shutdown : t -> unit
(** A no-op: a service starts nothing that outlives its calls. Only
    the load generator under [bench/load] still calls it. *)

val set_sink : t -> Persist.sink -> unit
(** Install the persistence sink (initially {!Persist.null}). Attached
    {e after} recovery replay so recovered events are not re-logged. *)

val record_hold : t -> float -> unit
(** Record in this instance's accounting how long (seconds) a rendered
    reply was held for its commit ({!Accounting.record_hold}). Call it
    from the instance's own domain. *)

val set_on_expire : t -> (string -> unit) -> unit
(** Call [f id] whenever a live session leaves memory without a logged
    event: swept or looked up past its TTL, or purged by a revocation
    or an expiry horizon (initially a no-op). Reads log nothing, so the
    durable server hands these ids to its log compactor, which may then
    drop exactly the sessions the service has dropped. *)

val ledger_key : digest:string -> tenant:string option -> string
(** The archive namespace for a grant: the bare digest for tenant-less
    rule sets, [digest ^ "@" ^ tenant] otherwise — two tenants
    publishing byte-identical rules keep separate ledgers (and separate
    grant-id sequences). The digest is hex, so the ["@"] never
    collides. *)

val apply_horizons : t -> int
(** Apply every expiry horizon that has already passed (unbudgeted):
    tombstone the grant, purge the live session, mark the consent entry
    expired. Drivers call it once after recovery replay — horizons that
    passed while the process was down take effect before the first
    request. Returns how many entries expired. *)

val apply_event : t -> Persist.event -> (unit, string) result
(** Replay one recovered event into the service state, without emitting
    it back to the sink. It is the transition function the handlers
    apply their own events through live — the one writer of sessions'
    state, chosen forms and grants, ledger entries and consent fields —
    plus the one reservation a handler takes before it that no event
    carries: a tenant session's quota slot, taken without the quota
    check. Request-level guards are not re-run (the log only holds
    transitions that committed), and it never raises; [Error] means the
    event contradicts the accumulated state — a damaged or reordered
    log — and identifies the contradiction. *)

val handle_line : t -> string -> string
(** Process one request line, return the response line (no trailing
    newline). Never raises: every failure becomes a structured protocol
    error. Also sweeps expired sessions and makes the request's one
    accounting record ({!Accounting}): its arrival, then its method's
    and (if any) its tenant's cell — the record [stats], [metrics],
    the SLO windows, [watch] and the flight recorder all derive from.

    When {!Pet_obs.Trace} is enabled the whole dispatch runs under a
    capture labelled with the request's trace id (client-supplied
    ["trace"] field, else generated), annotated with identifiers only
    (method, backend, session id, digest/source, error code), and the id
    is echoed on the response — ok {e and} error — so a client can fetch
    the capture with the [trace] method. With tracing disabled the only
    per-request cost is one branch, and a client-supplied trace id is
    still echoed. *)

val registry_stats : t -> Registry.stats

val sessions : t -> Session.t list
(** This instance's sessions in memory, in no particular order. *)

val session_counters : t -> Session.counters
(** Live session counters for this instance — a sharded deployment sums
    them across shards for the process-wide view. *)

val sweep_tick : ?budget:int -> t -> int
(** Run one incremental expiry step at the service clock, outside any
    request ({!Session.sweep_step} plus a consent-horizon step of the
    same budget; [budget] defaults to theirs). The TCP server's ticker
    enqueues one per shard per interval, so a shard that sees no
    traffic still expires its sessions and a hot shard cannot starve
    the others' sweeps. Returns the number of sessions swept. *)

val snapshot : t -> now:float -> Pet_obs.Metrics.snapshot
(** The one observability snapshot behind [metrics], [watch] frames and
    the flight recorder: the {!Pet_obs.Metrics} registry, this
    instance's aggregates (registry, sessions, ledgers, consent,
    tenants) read as gauges, and the per-request series
    {!Accounting.snapshot} merges from every accounting set registered
    in the instance's {!Shared} state, SLO
    windows judged at [now] (the service clock). Sibling shards' cells
    are read racily: word-sized, memory-safe, possibly behind requests
    still in flight. *)

val metrics_payload :
  t -> now:float -> Proto.metrics_format -> Pet_pet.Json.t
(** The [metrics] response payload: {!snapshot} at [now], either as
    structured JSON ([counters]/[gauges]/[histograms] with
    p50/p90/p99) or as a Prometheus text exposition wrapped in one JSON
    string. *)
