(** The single writer domain: every WAL append in the process funnels
    through here, batched.

    Commit numbers order durability. A shard {!claim}s the next commit
    number as it starts a request, before any write of the request
    becomes visible to other shards, hands the request's events over with
    {!submit} — which never waits for the disk — and goes straight on to
    its next request. The writer drains whatever was submitted while the
    previous fsync was in flight, appends it as one batch and fsyncs
    once, so a batch holds every outstanding request, not one per shard.
    After each batch it advances the {!durable} frontier: the highest
    commit number at or below which every claimed number is on disk (or
    was submitted with no events). A reply that may reveal state up to
    commit number [n] — [n] read from {!issued} after the request ran —
    is sent only once [durable >= n].

    Batches inherit {!Pet_store.Store.append_batch}'s crash contract:
    all-or-prefix, in submission order — so a reply is only ever sent for
    a request whose events, and the events of every write it could have
    seen, a post-crash recovery will replay. *)

type t

type stats = { batches : int; events : int; max_batch : int }

val start :
  ?batch_target:int ->
  ?flight:Pet_store.Flight_log.t ->
  ?on_durable:(unit -> unit) ->
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

    [batch_target] (default 1: commit at once) is the batch size worth
    briefly waiting for — the number of shards. When > 1 the writer,
    having found work, parks in [select] on a self-pipe — yielding the
    core so shards can run — until the submission that completes the
    batch wakes it, or for at most 200µs.

    [on_durable] is called, outside every lock of this module, whenever
    {!durable} may have advanced or the writer has failed: after each
    batch, and by {!submit} when an empty submission resolves a number.

    [flight] attaches the flight-recorder journal: records handed to
    {!submit_flight} are appended to it by this same writer domain,
    after the WAL batch they queued behind. *)

val claim : t -> int
(** The next commit number (1, 2, …). It holds {!durable} below itself
    until it is {!submit}ted and, if it carries events, committed. *)

val submit : t -> int -> Pet_server.Persist.event list -> unit
(** Hand over the events of a claimed commit number, in order, and
    return at once. [[]] resolves the number without touching the disk.
    Raises [Sys_error] if the writer is stopped. *)

val issued : t -> int
(** The last commit number claimed (0 before the first). *)

val durable : t -> int
(** The durable frontier: every commit number up to it is resolved.
    Monotonic; frozen once the writer has failed. *)

val failure : t -> string option
(** Why the disk refused a batch, once it has. From then on no batch is
    written and {!durable} never advances: the numbers of the failed
    batch, and every later one, are lost. *)

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
