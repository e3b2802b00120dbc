(** The durable, crash-safe persistence layer: an append-only, segmented
    write-ahead log of {!Pet_server.Persist} events, plus snapshots.

    Layout of a data directory:
    - [wal-NNNNNN.log] — log segments, appended in order; a fresh
      segment is started on every open and whenever the active one
      passes the size threshold.
    - [snap-NNNNNN.log] — at most one snapshot (same record framing):
      the live state as events, equivalent to replaying every segment
      numbered [<= N]. Compaction writes the snapshot and retires those
      segments.

    Both are {!Segment} families: records are length-prefixed and CRC-32
    checksummed ({!Record}), and every append is flushed (and by default
    fsynced) before the emitting request is answered — killing the
    process at any byte loses at most the record being appended.
    Recovery replays the snapshot and the segments after it and judges
    each file's ending by {!Segment.walk_chain}'s rule: it truncates a
    torn tail on the last segment (never raises), and stops at any
    other damage — a torn snapshot included — which it surfaces as
    data, the recovered state being the longest clean prefix.
    [pet store verify] and [pet audit] walk by the same rule, so a torn
    tail is a note there, not a fault. *)

module Persist = Pet_server.Persist

type t

type damage = Segment.damage = { file : string; offset : int; reason : string }

type recovery = {
  events : Persist.event list;  (** the clean prefix, oldest first *)
  files : int;  (** snapshot + segments read *)
  records : int;
  truncated : damage option;
      (** a torn tail was found (and, via {!open_dir}, cut off) *)
  damage : damage list;
      (** mid-log corruption; replay stopped at the first instance *)
}

val open_dir :
  ?segment_bytes:int ->
  ?auto_compact_segments:int ->
  ?fsync:bool ->
  string ->
  (t * recovery, string) result
(** Open (creating if needed) a data directory and recover its contents.
    A torn tail on the last segment is truncated in place. Appending
    always starts a fresh segment, so recovery never writes into bytes
    it just validated. [segment_bytes] (default 1 MiB) bounds a segment;
    after [auto_compact_segments] (default 8, [0] disables) sealed
    segments accumulate, {!wants_compaction} turns true. [fsync]
    (default true) syncs every append — turn it off for benchmarks
    only. *)

val read : string -> (recovery, string) result
(** Recover read-only: same replay as {!open_dir} but nothing on disk is
    touched (a torn tail is reported in [truncated], not cut). *)

val append : t -> Persist.event -> unit
(** Frame, write, flush and (unless disabled) fsync one event. Rotates
    to a new segment past the size threshold. I/O failure raises
    [Sys_error]: a durable service must not acknowledge what the disk
    refused. *)

val append_batch : t -> Persist.event list -> unit
(** Group commit: frame and write every event, then flush and (unless
    disabled) fsync {e once} for the whole batch — the amortization
    {!Pet_net}'s group commit relies on: whichever shard commits appends
    every shard's queued events in one call. Durability is
    all-or-prefix: a crash mid-batch leaves a prefix of the batch's
    records (a torn tail is cut on recovery), never a record with a gap
    before it. Rotation is checked once, after the batch. *)

val sink : t -> Persist.sink
(** The store as a service sink ({!Pet_server.Service.set_sink}). *)

val dir : t -> string
(** The data directory this store was opened on. *)

val position : t -> string * int
(** The WAL frontier: current segment file name and the byte offset at
    which the next record's frame header will land — the coordinate
    system of [pet audit] and [pet store inspect] reports. Read without
    synchronization (two single-word loads): callers off the writer
    domain get a monitoring-grade, possibly momentarily stale answer,
    which is exactly what flight-recorder correlation needs. *)

val compacts : t -> bool
(** Whether this store ever asks for compaction
    ([auto_compact_segments > 0]). *)

val wants_compaction : t -> bool
(** Enough sealed segments have accumulated that the driver should call
    {!compact_chain}. *)

val compact : t -> events:Persist.event list -> (int, string) result
(** Write [events] as the new snapshot (atomically: temp file, fsync,
    rename), then retire every segment it covers and any older snapshot.
    Returns the number of files removed. *)

val close : t -> unit

(** {1 Offline inspection} *)

type file_report = {
  file : string;
  bytes : int;
  records : int;  (** whole, checksummed records *)
  kinds : (string * int) list;  (** decoded event kinds, sorted *)
  damage : damage list;
      (** framing damage (offset + reason); scanning a file stops at the
          first framing fault since record boundaries are lost, but
          undecodable payloads inside intact framing are localized and
          skipped *)
  r2 : damage list;
      (** R2-on-disk violations: records whose decoded JSON carries a
          ["valuation"] field — the raw form must never be persisted *)
  tail : damage option;
      (** a torn tail on the last segment of the replay chain: crash
          damage that recovery truncates, not a fault *)
}

val scan : string -> (file_report list, string) result
(** Scan every snapshot and segment in the directory, in replay order —
    the engine of [pet store verify] and [pet store inspect]. *)

val replay : Format.formatter -> string -> (unit, string) result
(** [pet store replay]: {!read} the directory and print the recovered
    events as one JSON object per line; [Error] names the byte where
    replay stopped at mid-log damage (after printing the clean prefix). *)

val inspect : Format.formatter -> file_report list -> unit
(** [pet store inspect]: one line per file (bytes, records, damage
    count, a torn tail), the totals, then the event count of every kind across all
    files, sorted by kind. *)

val verify : Format.formatter -> file_report list -> (unit, string) result
(** [pet store verify]: a note for a torn tail ({!Segment.tail_note}),
    then one line per fault (framing damage or R2 violation) with its
    file and byte offset, or else an ok line. [Error] counts the faults
    and files. *)

val walk_replay :
  string ->
  unreadable:(string -> string -> unit) ->
  (string -> int -> string -> unit) ->
  (string -> int -> Segment.verdict -> unit) ->
  (unit, string) result
(** {!Segment.walk_chain} over the files recovery would replay (the
    newest snapshot, then every later segment), by recovery's rule: the
    compliance auditor ({!Pet_audit}) walks the log with it. *)

(** {1 Offline compaction}

    Squashes an event stream without compiling any rule engine: rule
    sets are deduplicated, grants accumulated, and each session reduced
    to its surviving transitions. [pet store compact] uses this, and so
    does the online path ({!compact_chain}). *)

module Compactor : sig
  type state

  val create : unit -> state
  val add : state -> Persist.event -> unit

  val events :
    ?ttl:float -> ?expired:(string -> bool) -> state -> Persist.event list
  (** The squashed stream, deterministically ordered (rule sets, then
      grants, then sessions). Sessions idle for more than [ttl] seconds
      (default 3600) before the log's last event timestamp are dropped —
      they would only expire again on recovery; their grants are kept
      regardless. [ttl <= 0.] keeps every session. Sessions whose id
      satisfies [expired] (default none) are dropped too: a live server
      compacts with [ttl = 0.] and names only the sessions it has
      itself expired, because a read keeps a session alive without
      logging anything, so its logged idle time overstates it. The last timestamp
      in log order is the log's clock, not the largest: a logical clock
      restarts with the process, and a restarted service still serves
      the sessions it recovered. *)
end

type compaction = {
  read : int;  (** events replayed from the chain *)
  kept : int;  (** events in the snapshot *)
  retired : int;  (** files removed *)
}

val compact_dir :
  ttl:float -> on_damage:(damage -> unit) -> string -> (compaction, string) result
(** [pet store compact]: open the directory's store, {!compact_chain}
    it and close it. *)

val compact_chain :
  ?ttl:float ->
  ?expired:(string -> bool) ->
  ?on_damage:(damage -> unit) ->
  t ->
  (compaction, string) result
(** Stream this store's own replay chain, record by record, through a
    {!Compactor} ([ttl] and [expired] as in {!Compactor.events}) into
    {!compact}. Call it from the one domain that appends, between
    appends: the group-commit writer does, and so does
    [pet store compact]. A chain with mid-log damage is refused, unless
    [on_damage] is given: then the damage is reported to it and the
    clean prefix (all that recovery could replay) is compacted. *)
