(** Group commit: every WAL append in the process funnels through here,
    batched, with no domain of its own — the shards commit.

    Commit numbers order durability. A shard {!claim}s the next commit
    number as it starts a request, before any write of the request
    becomes visible to other shards, hands the request's events over with
    {!submit} — which never waits for the disk — and goes straight on to
    its next request. Once per round each shard runs {!step}: if no
    other shard is committing (one atomic flag), it takes everything
    queued, appends it as one batch and fsyncs once, so a batch holds
    every request submitted since the last one, on any shard. After each
    batch it advances the {!durable} frontier: the highest commit number
    at or below which every claimed number is on disk (or was submitted
    with no events). A reply that may reveal state up to commit number
    [n] — [n] read from {!issued} after the request ran — is sent only
    once [durable >= n].

    Batches inherit {!Pet_store.Store.append_batch}'s crash contract:
    all-or-prefix, in submission order — so a reply is only ever sent for
    a request whose events, and the events of every write it could have
    seen, a post-crash recovery will replay. *)

type t

type stats = { batches : int; events : int; max_batch : int }

val create :
  ?flight:Pet_store.Flight_log.t ->
  ?on_durable:(unit -> unit) ->
  Pet_store.Store.t ->
  t
(** Take over the store's appends. The store must not be appended to or
    compacted by anyone else from then on (it is not closed by
    {!stop}).

    [on_durable] is called, outside every lock of this module, whenever
    {!durable} may have advanced or a batch has failed: by the
    committing shard after each batch, and by {!submit} when an empty
    submission resolves a number.

    [flight] attaches the flight-recorder journal: records handed to
    {!submit_flight} are appended to it by the committing shard, after
    the WAL batch they queued behind. *)

val claim : t -> int
(** The next commit number (1, 2, …). It holds {!durable} below itself
    until it is {!submit}ted and, if it carries events, committed. *)

val submit : t -> int -> Pet_server.Persist.event list -> unit
(** Hand over the events of a claimed commit number, in order, and
    return at once; they are committed by the next {!step} on any
    shard. [[]] resolves the number without touching the disk. Raises
    [Sys_error] once {!stop} has run. *)

val step : t -> unit
(** Commit what is queued, unless another caller is committing. The
    caller that takes the flag appends and fsyncs every queued job as one
    batch, moves the frontier, appends the queued flight records and,
    whenever {!Pet_store.Store.wants_compaction} holds, compacts the log
    with {!Pet_store.Store.compact_chain}, keeping every session except
    those handed to {!note_expired} since the last compaction. Having
    cleared the flag it looks at the queue again, so a job queued while
    it committed — whose own [step] found the flag taken — is committed
    with no later {!submit}. Returns at once when nothing is queued. *)

val issued : t -> int
(** The last commit number claimed (0 before the first). *)

val durable : t -> int
(** The durable frontier: every commit number up to it is resolved.
    Monotonic; frozen once a batch has failed. *)

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
(** Enqueue one rendered flight-recorder record for the next {!step} to
    append (flushed, never fsynced — telemetry durability). Never blocks
    on I/O; silently dropped when no [flight] journal is attached or
    after {!stop}, and a failing telemetry disk is swallowed rather than
    failing the WAL. *)

val stop : t -> unit
(** Refuse further submissions and commit whatever is still queued (WAL
    jobs, then flight records). Call it once nothing else runs {!step}. *)

val stats : t -> stats
(** Lifetime totals: batches committed, events across them, largest
    batch. Read after {!stop} for exact values (live reads are
    unsynchronized but safe). *)
