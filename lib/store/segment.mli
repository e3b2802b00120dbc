(** The on-disk segment family: numbered [PREFIX-NNNNNN.log] files of
    {!Record} frames. The write-ahead log ([wal-]), its snapshots
    ([snap-]) and the flight journal ([flight-]) are all such families,
    and this module owns everything they share: the naming, the append
    writer, the one walk over a file's records and the one rule that
    judges how that walk ended.

    The rule: a torn record (the bytes end inside it) on the {e last}
    file of a chain, when that file is an appended segment, is the
    signature of a crash mid-append — every process start and every
    seal opens a fresh file, so only the file being appended can be
    torn. A torn record in any earlier file or in a snapshot (written
    whole by {!write_atomic}), and every checksum mismatch or
    implausible length, is damage. {!walk_chain} applies it. Each
    reader keeps only its own policy after damage: recovery stops,
    [pet store verify] and [pet audit] report it and go on, the flight
    reader skips to the next file. *)

(** {1 Naming} *)

val name : string -> int -> string
(** [name prefix n] is ["PREFIX-%06d.log"]. *)

val parse_name : string -> string -> int option
(** [parse_name prefix file] is the number of a [PREFIX-NNNNNN.log]
    file name, [None] for any other name. *)

val list : string -> string -> (int * string) list
(** [list dir prefix]: the family's files in [dir] with their numbers,
    in number order. *)

val read_file : string -> string
(** The whole file. @raise Sys_error *)

(** {1 Appending} *)

type writer
(** The active end of one family: appends go to segment [number],
    which is created on the first append. *)

val writer : dir:string -> prefix:string -> segment_bytes:int -> int -> writer
(** [writer ~dir ~prefix ~segment_bytes n] appends to [PREFIX-n.log]
    in [dir], sealing it once it holds [segment_bytes]. *)

val append :
  ?sync:((unit -> unit) -> unit) -> ?seal_each:bool -> writer -> string list -> int * bool
(** Frame every payload, write the frames to the active segment (opening
    it if needed) and flush once. With [sync], the segment is then
    fsynced by calling [sync] with the fsync (the caller may time it).
    Past [segment_bytes] the segment is sealed: checked after the batch,
    or after each payload with [seal_each]. Returns the framed bytes
    written and whether it sealed. @raise Sys_error on any I/O failure,
    an [open]/[fsync] error included. *)

val write_atomic :
  dir:string -> prefix:string -> int -> ('a -> string) -> 'a list -> unit
(** [write_atomic ~dir ~prefix n payload items] writes [PREFIX-n.log]
    whole and crash-atomically, one record with [payload item] per item
    (each encoded as it is written): the frames go to [PREFIX.tmp],
    which is fsynced and renamed into place, then the directory is
    fsynced. A crash leaves the old state or the new file, never a part
    of it. @raise Sys_error, Unix.Unix_error *)

val seal : writer -> unit
(** Close the active segment, if open, and move on to the next number. *)

val close : writer -> unit
(** Close the active segment; the next append reopens it. *)

val number : writer -> int
(** The active segment's number. *)

val position : writer -> string * int
(** The active segment's file name and the bytes appended to it so far. *)

(** {1 Reading} *)

type ending =
  | End  (** the buffer ends exactly at a record boundary *)
  | Torn of { offset : int; reason : string }
      (** the buffer ends inside the record starting at [offset] *)
  | Corrupt of { offset : int; reason : string }
      (** checksum mismatch or implausible length at [offset] *)

val walk : string -> (int -> string -> unit) -> ending
(** [walk buf f] calls [f offset payload] on every whole, checksummed
    record of [buf] in order, [offset] being that of its frame header,
    and returns how the walk ended. *)

type damage = { file : string; offset : int; reason : string }

type verdict =
  | Clean
  | Crash_tail of damage
      (** a torn record on the last file: recovery truncates it *)
  | Damaged of damage

val walk_chain :
  ?unreadable:(string -> string -> unit) ->
  appended:string ->
  string ->
  string list ->
  (string -> int -> string -> unit) ->
  (string -> int -> verdict -> unit) ->
  unit
(** [walk_chain ~appended dir files record on_file] reads each of
    [files] from [dir] in order, calls [record file offset payload] on
    its records ({!walk}), then [on_file file bytes verdict] by the one
    rule: only the final file, and only if it is an [appended] segment,
    can end in a {!Crash_tail}. An unreadable file goes to [unreadable]
    (else its [Sys_error] propagates); raising from a callback stops
    the walk. *)

val tail_note : damage -> string
(** The note that [pet store verify] and [pet audit] print for a crash
    tail. *)
