(** The flight recorder's on-disk segment family.

    [flight-NNNNNN.log] files in the store's data directory, a
    {!Segment} family like the WAL, but with telemetry durability:
    appends flush and never fsync, the last segment's tail may be torn
    (readers truncate it silently, the kill -9 signature), and damage
    in an older segment ({!Segment.walk_chain}) is reported and skipped
    rather than fatal. Sealed segments beyond the [keep] retention knob
    are deleted on rotation, bounding disk usage.

    Appends are mutex-guarded so the {!Pet_net} shard that commits a
    batch, the log tee, the fatal path and exit-path dumps can share
    one handle from any domain. *)

type t

val open_dir : ?segment_bytes:int -> ?keep:int -> string -> (t, string) result
(** Open [dir] for appending; writing starts a fresh segment numbered
    after the highest existing one (sealed history is never appended
    to). The directory must exist — it is the store's data dir.
    [segment_bytes] defaults to 1 MiB (at least 4 KiB), [keep] to 8
    sealed segments. *)

val append : t -> string -> unit
(** Frame, write and flush one record; seals the segment past
    [segment_bytes] and applies retention. No fsync. *)

val append_batch : t -> string list -> unit
(** {!append} every record in order under one lock. *)

val close : t -> unit

val stats : t -> int * int
(** (records, framed bytes) appended over this handle's lifetime. *)

(** {1 Reading} *)

type record = { file : string; offset : int; payload : string }
(** [offset] is the byte offset of the record's frame header within
    [file] — the same coordinate system as [pet store inspect] and
    [pet audit] damage reports. *)

val fold :
  string ->
  init:'a ->
  ('a -> record -> 'a) ->
  ('a * Segment.damage list, string) result
(** Fold over every readable record in segment order. A torn tail on
    the last segment is silently truncated; damage elsewhere is
    reported in the damage list and scanning resumes at the next
    segment. *)
