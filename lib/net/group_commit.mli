(** The single writer domain: every WAL append in the process funnels
    through here, batched.

    A shard that produced events for a request calls {!submit} and
    blocks until its batch is on disk — durable-before-reply, exactly as
    in the stdio server. While one fsync is in flight every other
    shard's submission queues up, so the writer's next batch carries all
    of them and one fsync commits them together. With N shards blocking
    at ~the same rate the steady-state batch approaches N events per
    fsync: the ~100µs fsync that gates a single synchronous writer is
    amortized N ways, which is where the 1→N throughput scaling of the
    TCP server comes from on any core count.

    Batches inherit {!Pet_store.Store.append_batch}'s crash contract:
    all-or-prefix, in submission order — a reply is only ever sent for a
    request whose events a post-crash recovery will replay. *)

type t

type stats = { batches : int; events : int; max_batch : int }

val start :
  ?batch_target:int ->
  ?gather_s:float ->
  ?flight:Pet_store.Flight_log.t ->
  Pet_store.Store.t ->
  t
(** Spawn the writer domain. The store must not be appended to or
    compacted by anyone else from then on (it is not closed by
    {!stop}). Between batches, whenever
    {!Pet_store.Store.wants_compaction} holds, the writer compacts the
    log with {!Pet_store.Store.compact_chain}. The snapshot keeps every
    session except those handed to {!note_expired} since the last
    compaction: a session leaves the log only once a shard has dropped
    it from memory.

    [batch_target] (default 1: commit immediately) is the batch size
    worth briefly waiting for — the number of shards submitting.
    When > 1 the writer, having found work, parks in [select] on a
    self-pipe — yielding the core so other shards can run — and is
    woken by the submission that completes the batch, or by the
    [gather_s] deadline (default 200µs, a safety bound rarely hit;
    keep it under a couple of fsyncs). On a single core this wait is
    what lets the other shards' submissions reach the queue at all.

    [flight] attaches the flight-recorder journal: records handed to
    {!submit_flight} are appended to it by this same writer domain,
    after the WAL batch they queued behind. *)

val submit : t -> Pet_server.Persist.event list -> unit
(** Block until the events are durable (flushed and fsynced, in order,
    possibly sharing the fsync with other submissions). No-op on [[]].
    Raises [Sys_error] if the disk refused the batch or the writer is
    stopped — the caller must not acknowledge the request. *)

val note_expired : t -> string -> unit
(** Record that a shard dropped this session from memory (swept,
    expired on lookup, or purged), so the next compaction may drop it
    from the log. Non-blocking apart from a short lock; ignored when the
    store never compacts. *)

val submit_flight : t -> string -> unit
(** Enqueue one rendered flight-recorder record for the writer domain
    to append (flushed, never fsynced — telemetry durability). Never
    blocks on I/O; silently dropped when no [flight] journal is
    attached or the writer is stopping, and a failing telemetry disk is
    swallowed by the writer rather than failing the WAL. *)

val stop : t -> unit
(** Drain both queues (WAL jobs, then pending flight records), commit
    what remains, join the domain. Subsequent {!submit}s raise. *)

val stats : t -> stats
(** Lifetime totals: batches committed, events across them, largest
    batch. Read after {!stop} for exact values (live reads are
    unsynchronized but safe). *)
