module Persist = Pet_server.Persist
module Store = Pet_store.Store
module Flight_log = Pet_store.Flight_log
module Obs = Pet_obs.Metrics

type stats = { batches : int; events : int; max_batch : int }

type t = {
  store : Store.t;
  m : Mutex.t;
  queue : (int * Persist.event list) Queue.t;
      (* submitted commit numbers and their events, in submission order *)
  unresolved : (int, unit) Hashtbl.t;
      (* claimed numbers not yet durable (or submitted empty); under [m] *)
  issued : int Atomic.t;  (* written under [m] *)
  durable : int Atomic.t;  (* written under [m] *)
  failure : string option Atomic.t;
  committing : bool Atomic.t;
      (* a shard is in [step]: it alone appends to the store, compacts
         it and touches the fields below *)
  on_durable : unit -> unit;
  (* flight-recorder side channel: already-rendered telemetry records,
     appended (flush, no fsync) by the committing shard after the WAL
     batch they followed — submitters never block on telemetry *)
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

(* Once a batch is committed the committing shard is the store's only
   user, so it squashes the log here once enough segments have sealed.
   Other shards queue meanwhile; shards serving reads never notice. Only
   sessions a shard has already dropped leave the log — never one that
   merely looks idle in it, since reads keep a session alive without
   logging. A failure is logged once and turns compaction off: retrying
   would re-read the whole chain after every batch. *)
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

let queued t =
  Mutex.lock t.m;
  let queued = not (Queue.is_empty t.queue && Queue.is_empty t.fq) in
  Mutex.unlock t.m;
  queued

(* The shard that finds work queued and the flag free commits for every
   shard: it drains whatever accumulated since the last batch — the
   deeper the backlog, the more events share one fsync — then the
   flight records queued behind it. A shard that finds the flag taken
   leaves its job to the committer, which looks at the queue again once
   it has cleared the flag: a job queued before that look is its to
   commit, one queued after it finds the flag free. *)
let rec step t =
  if queued t && Atomic.compare_and_set t.committing false true then begin
    Mutex.lock t.m;
    let jobs = List.of_seq (Queue.to_seq t.queue) in
    Queue.clear t.queue;
    let records = List.of_seq (Queue.to_seq t.fq) in
    Queue.clear t.fq;
    if jobs <> [] then Obs.set_gauge obs_queue_depth 0.;
    Mutex.unlock t.m;
    (* WAL jobs first — durability ahead of telemetry. *)
    if jobs <> [] then commit t jobs;
    (match (t.flight, records) with
    | Some fl, _ :: _ -> (
      (* A failing telemetry disk must not take the WAL down. *)
      try Flight_log.append_batch fl records with Sys_error _ -> ())
    | _ -> ());
    compact t;
    Atomic.set t.committing false;
    step t
  end

let create ?flight ?(on_durable = ignore) store =
  {
    store;
    m = Mutex.create ();
    queue = Queue.create ();
    unresolved = Hashtbl.create 64;
    issued = Atomic.make 0;
    durable = Atomic.make 0;
    failure = Atomic.make None;
    committing = Atomic.make false;
    on_durable;
    flight;
    fq = Queue.create ();
    expired = Hashtbl.create 64;
    compacting = Store.compacts store;
    stopping = false;
    batches = 0;
    events_total = 0;
    max_batch = 0;
  }

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
    raise (Sys_error "group commit is stopped")
  end;
  match events with
  | [] ->
    let moved = resolve t [ lsn ] in
    Mutex.unlock t.m;
    if moved then t.on_durable ()
  | events ->
    Queue.add (lsn, events) t.queue;
    Obs.set_gauge obs_queue_depth (float_of_int (Queue.length t.queue));
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
  if (not t.stopping) && t.flight <> None then Queue.add record t.fq;
  Mutex.unlock t.m

let stop t =
  Mutex.lock t.m;
  t.stopping <- true;
  Mutex.unlock t.m;
  step t

let stats t =
  { batches = t.batches; events = t.events_total; max_batch = t.max_batch }
