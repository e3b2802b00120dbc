(** The serving core of the collection service, behind both transports.

    One process, [domains] shards, and the shards are its only domains:
    shard 0 runs on the domain that calls {!run}, every other shard on a
    domain of its own. Each shard owns a disjoint slice of the session
    space ({!Shard_map} decides ownership from the id alone), runs its
    own [Service.t] with no locking, and queues its durable events for
    {!Group_commit}, whose commit step each shard runs once per round.
    Shards also own the connections: no thread serves anything, and a
    connection is its owner shard's alone. Each shard runs one
    [Unix.select] loop over the connections dealt to it and a wake pipe;
    it reads and splits their lines, posts a line that names another
    shard's session to that shard and runs every other line itself —
    [new_session] mints an id its own shard owns, so a flow read on one
    connection stays on its shard — and fires [watch] frames and the
    sweep from its select timeout. Only the owner writes to a
    connection: the shard that ran a request holds the response until
    it is durable, in the order it handled its requests, then writes it
    if the connection is its own and posts it to the owner otherwise;
    the owner flushes each connection once per round. A connection that
    pipelines requests may therefore see responses out of order when
    they run on different shards — the echoed ["id"] correlates them; a
    client that waits for each response before sending the next sees
    strict ordering. A connection is not read while 64 of its requests
    are unanswered, and is closed only once every one is written.

    Over TCP, shard 0 accepts on localhost and deals each connection to
    the shards in turn. [select] cannot watch a descriptor numbered
    1024 or more, so a connection accepted past that is logged and
    closed; a failed accept is logged and retried after 100 ms. Over
    stdio the server is one shard with a single connection, made at
    start on standard input/output, whose EOF ends the serving.
    Everything else — recovery, the sweep, group commit and compaction,
    the flight recorder, [watch] streaming, the fatal path — is the same
    code for both.

    Replies are durable-before-reply without blocking on each request:
    a shard queues its events and holds the rendered reply, tagged with
    a commit number covering every write the request could have seen
    (its own and other shards'), until the durable frontier reaches the
    tag; meanwhile it serves its next request. Once it has served what
    is ready, it runs the commit step: unless another shard is
    committing, it appends and fsyncs everything queued by every shard
    as one batch. A failed append or fsync answers every held reply the
    frontier does not cover with an [internal] error and takes the fatal
    path.

    Rule-set texts and grant ledgers are shared across shards (see
    {!Pet_server.Shared}), and so is each tenant version's artifact:
    built once, served by every shard (a BDD walk takes its engine's
    lock). Engines of rule sets published by text are not — each shard
    compiles its own from the shared canonical text on first use. Raw
    valuations never cross a domain boundary: they live inside the
    owning shard's session and only the chosen option's digested grant
    reaches the shared ledger or the wire. *)

type listen =
  | Tcp of int
      (** Bind [127.0.0.1:port] ([0] picks an ephemeral port — read it
          back with {!port}); accepted sockets get [TCP_NODELAY]. *)
  | Stdio of in_channel * out_channel
      (** Serve exactly one connection over these channels (standard
          input/output under [pet serve]): requests in, responses out.
          Its EOF — or a bare [quit] line — ends the serving once every
          outstanding reply is written, and {!run} returns [Ok ()]. *)

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
(** Build the shards, recover, then start serving on [listen]: spawn
    the domains of shards 1..[domains]-1. Shard 0 — the one that
    accepts, and the stdio connection's — serves once {!run} is
    called.
    Every shard is its own {!Pet_server.Service.create}. A report memo
    lives with the engine it belongs to, so a text rule set has one per
    shard and a tenant artifact one for all shards.

    With [store] and its [recovery] (both from
    {!Pet_store.Store.open_dir}), recovery runs through {!Recovery.recover}
    — the one path that logs damage, replays into the owning shards,
    counts replay errors and applies passed horizons — before anything
    else; then group commit takes over the store's appends, and the
    committing shard compacts the log whenever the store asks
    ({!Group_commit.step}). The caller keeps ownership of [store] and
    closes it after {!stop}. Then the shard domains start, with the
    stdio connection or the listening socket on shard 0; each shard
    runs the sweep every [sweep_interval] seconds ([<= 0.] disables it;
    use with deterministic clocks). [Error] only when the listening
    socket cannot be bound, before anything else starts.

    Every shard shares one process-wide tenant registry (default
    per-tenant session cap [tenant_quota], 0 = unlimited), so a tenant
    published through any connection is servable on every shard. Its
    builds run on the shard domains: each shard loop runs at most one
    queued build per round, after its inbox, its connections, the
    commit step and its held replies, and does not block in [select]
    while builds remain queued.

    [flight] attaches the flight recorder: structured log lines are
    teed into the journal, the sweep also takes one snapshot per
    interval (assembled on shard 0, stamped with the
    {!Pet_store.Store.position} WAL frontier, journaled by the
    committing shard via {!Group_commit.submit_flight}), a fatal WAL
    failure writes its reason to the journal directly, and {!stop}
    writes the exit records. [watch] subscriptions stream frames
    without touching non-watch traffic (their lines are recognized by
    the reading shard with an in-place scan + full decode; everything
    else is forwarded byte-identically); a watch takes over its
    connection — later requests on it are answered after its last
    frame — and an unbounded one ends at the connection's EOF. The
    caller owns and closes the journal after {!stop}. *)

val port : t -> int
(** The bound TCP port (useful with [Tcp 0]); [0] under stdio. *)

val run : t -> (unit, string) result
(** Run shard 0's loop on the calling domain until the serving ends:
    {!stop} is called (from another domain or thread) or the stdio
    connection has ended ([Ok ()]), or a shard hits a fatal
    write-ahead-log failure ([Error reason]). Either way every shard
    stops reading, writes its held replies and leaves its loop. Returns
    at once if shard 0 has run or {!stop} has. *)

val stop : t -> unit
(** Stop reading, let each shard run what is posted to it and write
    every held reply, join the shard domains and wait for a {!run} in
    progress to return, close the connections still open (stdio's is
    flushed, not closed) and the listening socket, stop group commit
    (committing anything queued), then write the flight journal's exit
    records (a final snapshot, unjournaled slow traces, the [exit]
    mark) and detach the log tee. Idempotent. *)

val batch_stats : t -> Group_commit.stats option
(** Group-commit totals, [None] when running without a store. *)
