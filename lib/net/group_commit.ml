module Persist = Pet_server.Persist
module Store = Pet_store.Store
module Flight_log = Pet_store.Flight_log
module Obs = Pet_obs.Metrics

type stats = { batches : int; events : int; max_batch : int }

type t = {
  store : Store.t;
  m : Mutex.t;
  c : Condition.t;
  queue : (int * Persist.event list) Queue.t;
      (* submitted commit numbers and their events, in submission order *)
  unresolved : (int, unit) Hashtbl.t;
      (* claimed numbers not yet durable (or submitted empty); under [m] *)
  issued : int Atomic.t;  (* written under [m] *)
  durable : int Atomic.t;  (* written under [m] *)
  failure : string option Atomic.t;
  on_durable : unit -> unit;
  batch_target : int;
  (* self-pipe: submitters write a byte when the queue reaches
     [batch_target], waking a writer that is mid-gather in [select] *)
  pipe_r : Unix.file_descr;
  pipe_w : Unix.file_descr;
  (* flight-recorder side channel: already-rendered telemetry records
     ride the same writer domain, appended (flush, no fsync) after the
     WAL batch they followed — submitters never block on telemetry *)
  flight : Flight_log.t option;
  fq : string Queue.t;
  mutable expired : (string, unit) Hashtbl.t;
      (* sessions the shards have dropped from memory since the last
         compaction, which may therefore leave the log; under [m] *)
  mutable compacting : bool;  (* cleared by a failed compaction *)
  mutable stopping : bool;
  mutable batches : int;
  mutable events_total : int;
  mutable max_batch : int;
  mutable writer : unit Domain.t option;
}

let obs_batches = Obs.counter "pet_net_commit_batches_total"
let obs_events = Obs.counter "pet_net_commit_events_total"
let obs_queue_depth = Obs.gauge "pet_net_commit_queue_depth"
let obs_max_batch = Obs.gauge "pet_net_commit_batch_max"

(* Resolve commit numbers and move the frontier over every resolved
   number that follows it. Under [m]; true if the frontier moved.
   Numbers are claimed in order and stay in [unresolved] until resolved,
   so the frontier never passes a number still in flight. *)
let resolve t lsns =
  List.iter (Hashtbl.remove t.unresolved) lsns;
  let from = Atomic.get t.durable and issued = Atomic.get t.issued in
  let rec go f =
    if f < issued && not (Hashtbl.mem t.unresolved (f + 1)) then go (f + 1)
    else f
  in
  let f = go from in
  Atomic.set t.durable f;
  f > from

let drain_pipe t =
  let buf = Bytes.create 64 in
  let rec go () =
    match Unix.read t.pipe_r buf 0 64 with
    | 64 -> go ()
    | _ -> ()
    | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK), _, _) -> ()
    | exception Unix.Unix_error (EINTR, _, _) -> go ()
  in
  go ()

(* The gather deadline: a safety bound, kept under a couple of fsyncs. *)
let gather_s = 2e-4

(* Having found the queue non-empty but below [batch_target], the
   writer parks in [select] on the self-pipe — yielding the core to the
   shards — until the submitter that completes the batch writes its
   wakeup byte or [gather_s] elapses. Shards never wait for their own
   fsync, so a batch fills without it too, but on journey it raises the
   events per fsync from 1.5 to 1.9 (EXPERIMENTS.md, "Pipelined group
   commit"). *)
let gather t =
  drain_pipe t;
  let deadline = Unix.gettimeofday () +. gather_s in
  let rec wait () =
    if Queue.length t.queue >= t.batch_target || t.stopping then ()
    else begin
      let remaining = deadline -. Unix.gettimeofday () in
      if remaining > 0. then begin
        Mutex.unlock t.m;
        (try ignore (Unix.select [ t.pipe_r ] [] [] remaining)
         with Unix.Unix_error (EINTR, _, _) -> ());
        drain_pipe t;
        Mutex.lock t.m;
        wait ()
      end
    end
  in
  wait ()

(* Between batches the writer is the store's only user, so it squashes
   the log here once enough segments have sealed. Submitters queue
   meanwhile; shards serving reads never notice. Only sessions a shard
   has already dropped leave the log — never one that merely looks idle
   in it, since reads keep a session alive without logging. A failure
   is logged once and turns compaction off: retrying would re-read the
   whole chain after every batch. *)
let compact t =
  if t.compacting && Store.wants_compaction t.store then begin
    Mutex.lock t.m;
    let expired = t.expired in
    t.expired <- Hashtbl.create 64;
    Mutex.unlock t.m;
    match Store.compact_chain ~ttl:0. ~expired:(Hashtbl.mem expired) t.store with
    | Ok _ -> ()
    | Error m ->
      Mutex.lock t.m;
      t.compacting <- false;
      Hashtbl.reset t.expired;
      Mutex.unlock t.m;
      Pet_obs.Log.error "store.compaction_failed"
        ~fields:[ ("reason", Pet_obs.Trace.String m) ]
  end

(* Append and fsync one batch, then publish the frontier it reached.
   After a failure nothing more is written: the disk's state past the
   failed fsync is unknown, so no later number may be called durable. *)
let commit t jobs =
  let events = List.concat_map snd jobs in
  let outcome =
    match Atomic.get t.failure with
    | Some _ -> None
    | None -> (
      match Store.append_batch t.store events with
      | () -> Some (Ok ())
      | exception Sys_error m -> Some (Error m))
  in
  match outcome with
  | None -> ()
  | Some (Error m) ->
    Atomic.set t.failure (Some m);
    t.on_durable ()
  | Some (Ok ()) ->
    let n = List.length events in
    t.batches <- t.batches + 1;
    t.events_total <- t.events_total + n;
    if n > t.max_batch then t.max_batch <- n;
    Obs.incr obs_batches;
    Obs.add obs_events n;
    Obs.set_gauge obs_max_batch (float_of_int t.max_batch);
    Mutex.lock t.m;
    ignore (resolve t (List.map fst jobs));
    Mutex.unlock t.m;
    t.on_durable ()

(* The writer drains whatever accumulated while the previous fsync was
   in flight — the deeper the backlog, the more events share one fsync.
   Shards never wait on it, so the backlog is every request submitted
   meanwhile on any shard, topped up by the gather wait. *)
let rec writer_loop t =
  Mutex.lock t.m;
  while Queue.is_empty t.queue && Queue.is_empty t.fq && not t.stopping do
    Condition.wait t.c t.m
  done;
  if Queue.is_empty t.queue && Queue.is_empty t.fq then
    Mutex.unlock t.m (* stopping, drained *)
  else begin
    (* WAL jobs first — durability ahead of telemetry. *)
    if t.batch_target > 1 && not (Queue.is_empty t.queue) then gather t;
    let jobs = List.of_seq (Queue.to_seq t.queue) in
    Queue.clear t.queue;
    Obs.set_gauge obs_queue_depth 0.;
    let records = List.of_seq (Queue.to_seq t.fq) in
    Queue.clear t.fq;
    Mutex.unlock t.m;
    if jobs <> [] then commit t jobs;
    (match (t.flight, records) with
    | Some fl, _ :: _ -> (
      (* A failing telemetry disk must not take the WAL writer down. *)
      try Flight_log.append_batch fl records with Sys_error _ -> ())
    | _ -> ());
    compact t;
    writer_loop t
  end

let start ?(batch_target = 1) ?flight ?(on_durable = ignore) store =
  let pipe_r, pipe_w = Unix.pipe ~cloexec:true () in
  Unix.set_nonblock pipe_r;
  let t =
    {
      batch_target = max 1 batch_target;
      pipe_r;
      pipe_w;
      store;
      m = Mutex.create ();
      c = Condition.create ();
      queue = Queue.create ();
      unresolved = Hashtbl.create 64;
      issued = Atomic.make 0;
      durable = Atomic.make 0;
      failure = Atomic.make None;
      on_durable;
      flight;
      fq = Queue.create ();
      expired = Hashtbl.create 64;
      compacting = Store.compacts store;
      stopping = false;
      batches = 0;
      events_total = 0;
      max_batch = 0;
      writer = None;
    }
  in
  t.writer <- Some (Domain.spawn (fun () -> writer_loop t));
  t

let claim t =
  Mutex.lock t.m;
  let lsn = Atomic.get t.issued + 1 in
  Hashtbl.replace t.unresolved lsn ();
  Atomic.set t.issued lsn;
  Mutex.unlock t.m;
  lsn

let submit t lsn events =
  Mutex.lock t.m;
  if t.stopping then begin
    Mutex.unlock t.m;
    raise (Sys_error "group-commit writer is stopped")
  end;
  match events with
  | [] ->
    let moved = resolve t [ lsn ] in
    Mutex.unlock t.m;
    if moved then t.on_durable ()
  | events ->
    Queue.add (lsn, events) t.queue;
    let depth = Queue.length t.queue in
    Obs.set_gauge obs_queue_depth (float_of_int depth);
    if depth = 1 then Condition.signal t.c;
    if depth = t.batch_target && t.batch_target > 1 then
      (try ignore (Unix.write_substring t.pipe_w "x" 0 1)
       with Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EPIPE | EBADF), _, _) -> ());
    Mutex.unlock t.m

let issued t = Atomic.get t.issued
let durable t = Atomic.get t.durable
let failure t = Atomic.get t.failure

let note_expired t id =
  Mutex.lock t.m;
  if t.compacting then Hashtbl.replace t.expired id ();
  Mutex.unlock t.m

let submit_flight t record =
  Mutex.lock t.m;
  if (not t.stopping) && t.flight <> None then begin
    Queue.add record t.fq;
    if Queue.length t.fq = 1 then Condition.signal t.c
  end;
  Mutex.unlock t.m

let stop t =
  Mutex.lock t.m;
  t.stopping <- true;
  Condition.broadcast t.c;
  (try ignore (Unix.write_substring t.pipe_w "x" 0 1) with Unix.Unix_error _ -> ());
  Mutex.unlock t.m;
  Option.iter Domain.join t.writer;
  t.writer <- None;
  Unix.close t.pipe_r;
  Unix.close t.pipe_w

let stats t =
  { batches = t.batches; events = t.events_total; max_batch = t.max_batch }
