(* The flight recorder's on-disk segment family: flight-NNNNNN.log
   files holding CRC-32 framed telemetry records (a Segment family, as
   the WAL is) in the same data directory as the store.

   Telemetry is not the source of truth, so the durability contract is
   deliberately weaker than the WAL's: appends flush to the OS but
   never fsync (a crash may lose the last buffered records; the WAL
   loses nothing), the tail of the last segment may be torn (readers
   truncate, like the WAL), and damage in an older segment skips to
   the next segment instead of refusing service — degraded telemetry
   must never block an investigation that needs the rest.

   Sealed segments rotate out under a retention knob: on every seal the
   oldest segments beyond [keep] are deleted, bounding disk usage for
   long-lived servers.

   Appends are mutex-guarded: whichever shard runs a Group_commit batch
   journals snapshots, while the log tee and the fatal path append from
   any domain. *)

let prefix = "flight"

type t = {
  dir : string;
  keep : int;
  m : Mutex.t;
  log : Segment.writer;
  mutable records : int;
  mutable bytes : int;
}

let open_dir ?(segment_bytes = 1 lsl 20) ?(keep = 8) dir =
  if not (Sys.file_exists dir) then Error (dir ^ ": no such directory")
  else if not (Sys.is_directory dir) then Error (dir ^ ": not a directory")
  else begin
    let seg =
      match List.rev (Segment.list dir prefix) with (n, _) :: _ -> n + 1 | [] -> 0
    in
    Ok
      {
        dir;
        keep = max keep 1;
        m = Mutex.create ();
        log = Segment.writer ~dir ~prefix ~segment_bytes:(max segment_bytes 4096) seg;
        records = 0;
        bytes = 0;
      }
  end

let locked t f =
  Mutex.lock t.m;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.m) f

(* Retention: called with the lock held after sealing — delete the
   oldest sealed segments beyond [keep] (the open segment never
   counts). *)
let prune t =
  let sealed =
    List.filter (fun (n, _) -> n < Segment.number t.log) (Segment.list t.dir prefix)
  in
  let excess = List.length sealed - t.keep in
  if excess > 0 then
    List.iteri
      (fun i (_, f) ->
        if i < excess then
          try Sys.remove (Filename.concat t.dir f) with Sys_error _ -> ())
      sealed

(* Sealed record by record, so a batch seals wherever single appends
   would; flushed once. *)
let write t payloads =
  locked t @@ fun () ->
  let bytes, sealed = Segment.append ~seal_each:true t.log payloads in
  t.records <- t.records + List.length payloads;
  t.bytes <- t.bytes + bytes;
  if sealed then prune t

let append t payload = write t [ payload ]
let append_batch = write
let close t = locked t @@ fun () -> try Segment.close t.log with Sys_error _ -> ()
let stats t = locked t @@ fun () -> (t.records, t.bytes)

(* --- Reading ---------------------------------------------------------- *)

type record = { file : string; offset : int; payload : string }

let fold dir ~init f =
  if not (Sys.file_exists dir && Sys.is_directory dir) then
    Error (dir ^ ": no such directory")
  else begin
    let acc = ref init and damage = ref [] in
    Segment.walk_chain ~appended:prefix dir
      (List.map snd (Segment.list dir prefix))
      (fun file offset payload -> acc := f !acc { file; offset; payload })
      (fun _ _ -> function
        | Segment.Damaged d -> damage := d :: !damage
        | Segment.Clean | Segment.Crash_tail _ -> ());
    Ok (!acc, List.rev !damage)
  end
