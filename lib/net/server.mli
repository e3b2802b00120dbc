(** The serving core of the collection service, behind both transports.

    One process, [domains] shards: each shard is an OCaml domain that
    owns a disjoint slice of the session space ({!Shard_map} decides
    ownership from the id alone), runs its own [Service.t] with no
    locking, and funnels its durable events through the single
    {!Group_commit} writer domain. Connection handling stays on the main
    domain as plain threads: a reader thread per connection parses
    nothing, routes each request line to its shard (round-robin when the
    line names no session) and moves on to the next line; the shard
    writes the response back itself once it is durable, in the order
    the shard handled its requests. A connection that pipelines
    requests may therefore see responses out of order when they land on
    different shards — the echoed ["id"] correlates them; a client that
    waits for each response before sending the next sees strict
    ordering.

    Over TCP connections are accepted on localhost; over stdio the
    server is one shard with a single connection, made at start on
    standard input/output, whose EOF ends the serving. Everything else —
    recovery, the sweep, group commit and compaction, the flight
    recorder, [watch] streaming, the fatal path — is the same code for
    both.

    Replies are durable-before-reply without blocking the shard: a
    shard hands its events to the writer and holds the rendered reply,
    tagged with a commit number covering every write the request could
    have seen (its own and other shards'), until the writer's durable
    frontier reaches the tag; meanwhile it serves its next request. A
    failed append or fsync answers every held reply the frontier does
    not cover with an [internal] error and takes the fatal path.

    Rule-set texts and grant ledgers are shared across shards (see
    {!Pet_server.Shared}); compiled engines are not — each shard
    recompiles from the shared canonical text on first use, so BDD
    memo tables are never touched by two domains. Raw valuations never
    cross a domain boundary: they live inside the owning shard's
    session and only the chosen option's digested grant reaches the
    shared ledger or the wire. *)

type listen =
  | Tcp of int
      (** Bind [127.0.0.1:port] ([0] picks an ephemeral port — read it
          back with {!port}); accepted sockets get [TCP_NODELAY]. *)
  | Stdio of in_channel * out_channel
      (** Serve exactly one connection over these channels (standard
          input/output under [pet serve]): requests in, responses out.
          Its EOF — or a bare [quit] line — ends the serving once every
          outstanding reply is written, and {!wait} returns [Ok ()]. *)

type t

val start :
  ?payoff:Pet_game.Payoff.kind ->
  ?capacity:int ->
  ?ttl:float ->
  ?tenant_quota:int ->
  ?resolve:(string -> string option) ->
  ?store:Pet_store.Store.t ->
  ?recovery:Pet_store.Store.recovery ->
  ?sweep_interval:float ->
  ?flight:Pet_store.Flight_log.t ->
  domains:int ->
  listen:listen ->
  now:(unit -> float) ->
  unit ->
  (t, string) result
(** Build the shards, recover, then start serving on [listen].
    Every shard is its own {!Pet_server.Service.create}, so the
    rendered-report memos live with the engines they belong to: one per
    shard, never shared across domains.

    With [store] and its [recovery] (both from
    {!Pet_store.Store.open_dir}), recovery runs through {!Recovery.recover}
    — the one path that logs damage, replays into the owning shards,
    counts replay errors and applies passed horizons — before anything
    else; then the writer domain starts, compacting the log whenever
    the store asks ({!Group_commit.start}, idle cut-off [ttl]). The
    caller keeps ownership of [store] and closes it after {!stop}.
    Then the shard domains, the connection (stdio) or the acceptor
    thread (TCP), and the sweep ticker ([sweep_interval <= 0.] disables
    it; use with deterministic clocks). [Error] only on socket
    failures.

    Every shard shares one process-wide tenant registry (default
    per-tenant session cap [tenant_quota], 0 = unlimited), so a tenant
    published through any connection is servable on every shard; its
    background builder domain is stopped by {!stop}.

    [flight] attaches the flight recorder: structured log lines are
    teed into the journal, the sweep ticker also enqueues one snapshot
    per interval (assembled on shard 0, stamped with the
    {!Pet_store.Store.position} WAL frontier, journaled by the writer
    domain via {!Group_commit.submit_flight}), a fatal WAL failure
    writes its reason to the journal directly, and {!stop} writes the
    exit records. [watch] subscriptions stream frames without touching
    non-watch traffic (their lines are intercepted on the connection
    thread by a substring scan + full decode; everything else is
    forwarded byte-identically); a watch takes over its connection —
    later requests on it are answered after its last frame — and an
    unbounded one ends at the connection's EOF. The caller owns and
    closes the journal after {!stop}. *)

val port : t -> int
(** The bound TCP port (useful with [Tcp 0]); [0] under stdio. *)

val wait : t -> (unit, string) result
(** Block until {!stop} is called or the stdio connection has ended
    ([Ok ()]), or a shard hits a fatal write-ahead-log failure
    ([Error reason]). *)

val stop : t -> unit
(** Wake the acceptor, drain and join the shard domains, stop the
    writer (committing anything queued), then write the flight
    journal's exit records (a final snapshot, unjournaled slow traces,
    the [exit] mark) and detach the log tee. Idempotent. Connections
    still open are not waited for; their threads die with the process
    or on the next client read. *)

val batch_stats : t -> Group_commit.stats option
(** Group-commit totals, [None] when running without a store. *)
