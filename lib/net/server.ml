module Json = Pet_pet.Json
module Proto = Pet_server.Proto
module Service = Pet_server.Service
module Session = Pet_server.Session
module Shared = Pet_server.Shared
module Persist = Pet_server.Persist
module Store = Pet_store.Store
module Obs = Pet_obs.Metrics
module Log = Pet_obs.Log
module Trace = Pet_obs.Trace

(* --- Wiring -------------------------------------------------------------------

   Threads and domains:
   - the main domain runs one thread per connection (blocking line I/O
     releases the runtime lock, so they interleave freely) and, over
     TCP, the acceptor thread; standard input/output is one more
     connection, made at start instead of accepted;
   - each shard is a domain running a plain queue-drain loop over its
     own [Service.t] — sessions never leave their shard, so the service
     needs no locking;
   - one writer domain ([Group_commit]) owns every WAL append.

   A request travels: connection thread → (queue) shard domain, which
   claims a commit number, handles the request, hands its events to the
   writer domain ([submit] never waits) and holds the rendered reply,
   tagged with the last commit number claimed so far, in its FIFO of
   held replies. The shard goes straight on to its next request; it
   writes a held reply to the socket itself once the writer's durable
   frontier reaches the tag, so one fsync covers every request
   submitted while the previous one was in flight. Replies leave a
   shard in the order it handled them. The reading and writing halves
   of a connection are decoupled on purpose: the reader can queue
   further requests (up to [max_outstanding], held replies included)
   while earlier ones commit. A client that pipelines must correlate
   responses by their echoed "id" — responses to requests that landed
   on different shards may interleave; a lockstep client (one request
   in flight, like `pet ping`) always sees strict request order. *)

(* One live connection. The reader thread owns the descriptor's
   lifetime; shards share the write side under [wm]. [outstanding]
   counts requests queued but not yet answered: the reader blocks at
   [max_outstanding] (backpressure), and close waits for it to drain to
   zero so no shard can ever write to a recycled descriptor. *)
type conn = {
  oc : out_channel;
  wm : Mutex.t;
  cm : Mutex.t;
  cc : Condition.t;
  mutable outstanding : int;
  mutable closed : bool;
      (* reader saw EOF, or a write failed: watch streamers must stop
         producing frames so the outstanding budget can drain and the
         descriptor close *)
}

type listen = Tcp of int | Stdio of in_channel * out_channel

let max_outstanding = 64

type job = Request of { line : string; conn : conn } | Tick | Flight
(* [Flight] asks shard 0 to assemble one flight-recorder snapshot (its
   own service's gauges are safe to sync there) and hand it to the
   writer domain. *)

(* A rendered reply waiting for the durable frontier to reach [tag],
   rendered at [rendered] on the obs clock. *)
type held = { tag : int; conn : conn; response : string; rendered : float }

type shard = {
  index : int;
  service : Service.t;
  q : job Queue.t;
  qm : Mutex.t;
  qc : Condition.t;
  pending : Persist.event list ref;
      (* events the job being run emitted, newest first; the shard
         hands them to the writer when the job ends *)
  held : held Queue.t;  (* only this shard's domain touches it *)
  obs_active : Obs.gauge;
  obs_queue : Obs.gauge;
  mutable stopped : bool;
  mutable domain : unit Domain.t option;
}

type t = {
  shards : shard array;
  shared : Shared.t;
  tenants : Service.compiled Pet_tenant.Tenant.t;
      (* process-wide tenant registry, shared by every shard like
         [shared]; the server owns its builder domain's lifecycle *)
  writer : Group_commit.t option;
  flight : Pet_store.Flight_log.t option;
  fenc : Pet_obs.Flight.t;
  store_h : Store.t option;  (* for WAL-frontier stamps on snapshots *)
  nowf : unit -> float;
  listen : Unix.file_descr option;  (* [None] under stdio *)
  port : int;
  rr : int Atomic.t;  (* round-robin for sessionless requests *)
  conns : int Atomic.t;
  stop_flag : bool Atomic.t;
  failure : string option ref;
  mutable finished : bool;  (* the stdio connection reached EOF, drained *)
  fm : Mutex.t;
  fc : Condition.t;
  mutable acceptor : Thread.t option;
}

let obs_accepted = Obs.counter "pet_net_accepted_total"
let obs_conns = Obs.gauge "pet_net_connections"

(* --- Routing ------------------------------------------------------------------- *)

(* Cheap scan for a top-level ["session":"<id>"] pair without parsing
   the JSON on the connection thread — the shard parses for real. A
   false positive (the pattern inside some string value) can only route
   the request to a shard that does not know the session, which answers
   [unknown_session] exactly as a wrong id would; it cannot crash or
   cross state between shards. *)
let session_hint line =
  let key = {|"session"|} in
  let len = String.length line and klen = String.length key in
  let is_ws c = c = ' ' || c = '\t' in
  let rec skip_ws i = if i < len && is_ws line.[i] then skip_ws (i + 1) else i in
  let rec search from =
    if from + klen > len then None
    else if String.sub line from klen <> key then search (from + 1)
    else
      let i = skip_ws (from + klen) in
      if i >= len || line.[i] <> ':' then search (from + 1)
      else
        let i = skip_ws (i + 1) in
        if i >= len || line.[i] <> '"' then search (from + 1)
        else
          match String.index_from_opt line (i + 1) '"' with
          | Some j when j > i + 1 -> Some (String.sub line (i + 1) (j - i - 1))
          | _ -> search (from + 1)
  in
  search 0

let route t line =
  let shards = Array.length t.shards in
  if shards = 1 then 0
  else
    match session_hint line with
    | Some id -> Shard_map.owner ~shards id
    | None -> Atomic.fetch_and_add t.rr 1 mod shards

(* --- Failure ------------------------------------------------------------------- *)

(* A WAL failure is fatal: every held reply the durable frontier does
   not cover is answered with an [internal] error (what it may show is
   in memory but was never durable), and the server is flagged; [wait]
   returns so [pet serve] can shut down. *)
let fail t reason =
  Mutex.lock t.fm;
  let first = !(t.failure) = None in
  if first then t.failure := Some reason;
  Condition.broadcast t.fc;
  Mutex.unlock t.fm;
  if first then
    Log.error "net.wal_failed" ~fields:[ ("reason", Trace.String reason) ];
  (* Fatal-path flight record, written directly (the writer domain may
     be the thing that failed): the journal's last words say why. *)
  if first then
    match t.flight with
    | Some fl -> (
      try
        Pet_store.Flight_log.append fl
          (Pet_obs.Flight.meta t.fenc ~now:(Obs.now ()) ~event:"fatal"
             [ ("reason", reason) ])
      with Sys_error _ -> ())
    | None -> ()

let finish t =
  Mutex.lock t.fm;
  t.finished <- true;
  Condition.broadcast t.fc;
  Mutex.unlock t.fm

let wait t =
  Mutex.lock t.fm;
  while !(t.failure) = None && not (Atomic.get t.stop_flag || t.finished) do
    Condition.wait t.fc t.fm
  done;
  let result = match !(t.failure) with Some m -> Error m | None -> Ok () in
  Mutex.unlock t.fm;
  result

(* --- Shard domains -------------------------------------------------------------- *)

let enqueue shard job =
  Mutex.lock shard.qm;
  Queue.add job shard.q;
  Obs.set_gauge shard.obs_queue (float_of_int (Queue.length shard.q));
  Condition.signal shard.qc;
  Mutex.unlock shard.qm

let sync_active shard =
  Obs.set_gauge shard.obs_active
    (float_of_int (Service.session_counters shard.service).Session.active)

(* Flight records are stamped with the obs clock; SLO windows are
   judged at the service clock, the timeline requests are recorded on. *)
let flight_snap t service =
  let snapshot = Service.snapshot service ~now:(t.nowf ()) in
  Pet_obs.Flight.snap t.fenc
    ?wal:(Option.map Store.position t.store_h)
    ~now:(Obs.now ()) snapshot

(* Assemble one flight snapshot on a shard domain (syncing that shard's
   service gauges is safe there) and queue it behind the WAL batches.
   Slow traces ride along; the encoder dedups ids, so a trace is
   journaled once no matter how many ticks see it. *)
let emit_flight t shard =
  match t.writer with
  | Some writer when t.flight <> None && Obs.enabled () ->
    let record = flight_snap t shard.service in
    let traces = Pet_obs.Flight.slow_traces t.fenc ~now:(Obs.now ()) (Trace.slow ()) in
    List.iter (Group_commit.submit_flight writer) (record :: traces)
  | _ -> ()

(* Deliver a response line on the connection's write side, then release
   one slot of its outstanding budget. A write failure means the client
   went away; its remaining responses are dropped but the accounting
   still runs, so the reader can drain and close. *)
let respond conn response =
  Mutex.lock conn.wm;
  let written =
    try
      output_string conn.oc response;
      output_char conn.oc '\n';
      flush conn.oc;
      true
    with Sys_error _ -> false
  in
  Mutex.unlock conn.wm;
  Mutex.lock conn.cm;
  if not written then conn.closed <- true;
  conn.outstanding <- conn.outstanding - 1;
  Condition.broadcast conn.cc;
  Mutex.unlock conn.cm

(* End the job's commit: hand its events to the writer under the
   job's commit number. A stopped writer is a failed one. *)
let submit t writer shard lsn =
  let events = List.rev !(shard.pending) in
  shard.pending := [];
  match Group_commit.submit writer lsn events with
  | () -> ()
  | exception Sys_error m -> fail t ("write-ahead log failure: " ^ m)

(* Write every held reply at the head of the FIFO that the durable
   frontier covers; once the writer has failed, answer the rest with
   the [internal] error instead. *)
let release t writer shard =
  let rec go () =
    match Queue.peek_opt shard.held with
    | None -> ()
    | Some r ->
      let durable = r.tag <= Group_commit.durable writer in
      let failed = Group_commit.failure writer in
      if durable || failed <> None then begin
        ignore (Queue.pop shard.held);
        if Obs.enabled () then
          Service.record_hold shard.service (Obs.now () -. r.rendered);
        (match failed with
        | Some m when not durable ->
          let reason = "write-ahead log failure: " ^ m in
          fail t reason;
          respond r.conn
            (Proto.error_response ~id:Json.Null (Proto.error Proto.Internal reason))
        | _ -> respond r.conn r.response);
        go ()
      end
  in
  go ()

let releasable t shard =
  match (t.writer, Queue.peek_opt shard.held) with
  | Some writer, Some r ->
    r.tag <= Group_commit.durable writer || Group_commit.failure writer <> None
  | _ -> false

let handle t shard = function
  | Tick ->
    ignore (Service.sweep_tick ~budget:256 shard.service);
    sync_active shard;
    None
  | Flight ->
    emit_flight t shard;
    None
  | Request { line; conn } ->
    let response = Service.handle_line shard.service line in
    sync_active shard;
    Some (conn, response)

(* Run one job under a commit number claimed before it starts, so the
   number precedes every write the job makes visible to other shards.
   Its reply is tagged with the last number claimed once the job ends:
   that covers the job's own events and every write on another shard it
   could have seen. *)
let run_job t shard job =
  match t.writer with
  | None ->
    Option.iter (fun (conn, response) -> respond conn response) (handle t shard job)
  | Some writer ->
    let lsn = Group_commit.claim writer in
    let reply = handle t shard job in
    submit t writer shard lsn;
    Option.iter
      (fun (conn, response) ->
        Queue.push
          {
            tag = Group_commit.issued writer;
            conn;
            response;
            rendered = (if Obs.enabled () then Obs.now () else 0.);
          }
          shard.held)
      reply;
    release t writer shard

(* Sleep until a job arrives or a held reply can be released; stop only
   once stopped with nothing queued and nothing held. The writer wakes
   every shard after each batch ([wake]). *)
let rec shard_loop t shard =
  Mutex.lock shard.qm;
  while
    Queue.is_empty shard.q
    && (not (releasable t shard))
    && not (shard.stopped && Queue.is_empty shard.held)
  do
    Condition.wait shard.qc shard.qm
  done;
  if Queue.is_empty shard.q && Queue.is_empty shard.held then
    Mutex.unlock shard.qm (* stopped, drained *)
  else begin
    let job = Queue.take_opt shard.q in
    Obs.set_gauge shard.obs_queue (float_of_int (Queue.length shard.q));
    Mutex.unlock shard.qm;
    (match job with
    | Some job -> run_job t shard job
    | None -> Option.iter (fun writer -> release t writer shard) t.writer);
    shard_loop t shard
  end

let wake shard =
  Mutex.lock shard.qm;
  Condition.signal shard.qc;
  Mutex.unlock shard.qm

(* --- Connection threads ----------------------------------------------------------- *)

let strip_cr line =
  let n = String.length line in
  if n > 0 && line.[n - 1] = '\r' then String.sub line 0 (n - 1) else line

(* Recognize a well-formed [watch] request without parsing anything on
   the non-watch path: a cheap substring scan gates the full decode, so
   lines that merely mention "watch" in a value decode once and take the
   normal path, and every other line is byte-for-byte untouched.
   Malformed watch requests also return [None] — the shard produces the
   same error response it always did. *)
let watch_params line =
  let key = {|"watch"|} in
  let n = String.length line and m = String.length key in
  let rec mentions i = i + m <= n && (String.sub line i m = key || mentions (i + 1)) in
  if not (mentions 0) then None
  else
    match Proto.decode line with
    | Ok { Proto.request = Proto.Watch { interval; frames }; _ } ->
      Some (interval, frames)
    | Ok _ | Error _ -> None

(* Take one slot of the connection's outstanding budget, blocking at
   [max_outstanding]. A watch frame gives up instead once the
   connection is [closed]; a request line never does — the close path
   waits for its response either way. *)
let acquire ?(unless_closed = false) conn =
  Mutex.lock conn.cm;
  while conn.outstanding >= max_outstanding && not (unless_closed && conn.closed) do
    Condition.wait conn.cc conn.cm
  done;
  let ok = not (unless_closed && conn.closed) in
  if ok then conn.outstanding <- conn.outstanding + 1;
  Mutex.unlock conn.cm;
  ok

let drain conn =
  Mutex.lock conn.cm;
  while conn.outstanding > 0 do
    Condition.wait conn.cc conn.cm
  done;
  Mutex.unlock conn.cm

(* Stream a watch subscription: the same request line is enqueued once
   per frame, [interval] apart, so each frame travels the ordinary
   request path (same queue, same outstanding budget, one ok-response
   per frame echoing the id). Stops after [frames] frames ([0]: no
   limit), once [stop] is set, when the connection closes, or at server
   stop. *)
let stream ?(stop = Atomic.make false) t conn line ~interval ~frames =
  let shard = t.shards.(route t line) in
  let rec go sent =
    if (frames = 0 || sent < frames)
       && (not (Atomic.get stop || Atomic.get t.stop_flag))
       && acquire ~unless_closed:true conn
    then begin
      enqueue shard (Request { line; conn });
      let sent = sent + 1 in
      if interval > 0. && (frames = 0 || sent < frames) then
        Thread.delay interval;
      go sent
    end
  in
  go 0

(* A watch takes over the stream: requests after it on the same
   connection are dispatched only once its last frame is answered, so
   a transcript is deterministic on any number of shards. A bounded
   watch streams from the reader itself. An unbounded one streams from
   its own thread until the client's EOF (or [quit]) ends it; lines
   read meanwhile are held, then answered after its last frame. *)
let conn_loop t ic conn =
  let watching = ref None and held = Queue.create () in
  let dispatch ~ended line =
    match watch_params line with
    | Some (_, 0) when ended -> () (* it would stream until EOF: passed *)
    | Some (interval, 0) ->
      let stop = Atomic.make false in
      watching :=
        Some
          ( stop,
            Thread.create
              (fun () -> stream ~stop t conn line ~interval ~frames:0)
              () )
    | Some (interval, frames) ->
      stream t conn line ~interval ~frames;
      drain conn
    | None ->
      ignore (acquire conn);
      enqueue t.shards.(route t line) (Request { line; conn })
  in
  let rec read () =
    match In_channel.input_line ic with
    | None | (exception (Sys_error _ | End_of_file)) -> ()
    | Some line ->
      let trimmed = String.trim line in
      if trimmed = "" then read ()
      else if trimmed = "quit" || Atomic.get t.stop_flag then ()
      else begin
        let line = strip_cr line in
        if !watching = None then dispatch ~ended:false line
        else Queue.add line held;
        read ()
      end
  in
  read ();
  Option.iter
    (fun (stop, streamer) ->
      Atomic.set stop true;
      Thread.join streamer;
      drain conn)
    !watching;
  Queue.iter (dispatch ~ended:true) held

(* Serve one connection until EOF (or [quit]), then release it with
   [close] — once every queued request's response is written: a shard
   must never write to a descriptor that may have been recycled by a
   newer accept. Raising [closed] first stops any watch streamer from
   producing further frames, so the budget can actually reach zero. *)
let serve_conn t ic oc ~close =
  Atomic.incr t.conns;
  Obs.set_gauge obs_conns (float_of_int (Atomic.get t.conns));
  let conn =
    {
      oc;
      wm = Mutex.create ();
      cm = Mutex.create ();
      cc = Condition.create ();
      outstanding = 0;
      closed = false;
    }
  in
  Fun.protect
    ~finally:(fun () ->
      Mutex.lock conn.cm;
      conn.closed <- true;
      Condition.broadcast conn.cc;
      Mutex.unlock conn.cm;
      drain conn;
      Atomic.decr t.conns;
      Obs.set_gauge obs_conns (float_of_int (Atomic.get t.conns));
      close ())
    (fun () -> conn_loop t ic conn)

let acceptor_loop t listen =
  let rec go () =
    match Unix.accept ~cloexec:true listen with
    | fd, _ ->
      Obs.incr obs_accepted;
      (* Replies are single small writes: Nagle would hold each one
         back until the client's delayed ACK. *)
      (try Unix.setsockopt fd TCP_NODELAY true with Unix.Unix_error _ -> ());
      let ic = Unix.in_channel_of_descr fd in
      let oc = Unix.out_channel_of_descr fd in
      (* Exactly one close: both channels share the descriptor, and the
         connection thread is its sole owner. *)
      ignore
        (Thread.create
           (fun () -> serve_conn t ic oc ~close:(fun () -> close_out_noerr oc))
           ());
      go ()
    | exception Unix.Unix_error (EINTR, _, _) -> go ()
    | exception Unix.Unix_error _ ->
      (* [stop] shuts the listener down to wake this thread; anything
         else on a closed/shut socket also means we are done. *)
      ()
  in
  go ()

let ticker_loop t interval =
  while not (Atomic.get t.stop_flag) do
    Thread.delay interval;
    if not (Atomic.get t.stop_flag) then begin
      Array.iter (fun shard -> enqueue shard Tick) t.shards;
      (* One flight snapshot per sweep, assembled on shard 0. *)
      if t.flight <> None then enqueue t.shards.(0) Flight
    end
  done

(* --- Lifecycle -------------------------------------------------------------------- *)

(* Structured log lines also go to the flight journal, stamped with the
   obs clock, until [stop] detaches the tee. *)
let tee_log t fl =
  Log.set_sink (fun line ->
      prerr_endline line;
      try
        Pet_store.Flight_log.append fl
          (Pet_obs.Flight.log_event t.fenc ~now:(Obs.now ()) line)
      with Sys_error _ -> ())

let bind port =
  match
    let fd = Unix.socket ~cloexec:true PF_INET SOCK_STREAM 0 in
    Unix.setsockopt fd SO_REUSEADDR true;
    Unix.bind fd (ADDR_INET (Unix.inet_addr_loopback, port));
    Unix.listen fd 128;
    fd
  with
  | exception Unix.Unix_error (e, _, _) ->
    Error
      (Printf.sprintf "cannot listen on port %d: %s" port (Unix.error_message e))
  | fd -> (
    match Unix.getsockname fd with
    | Unix.ADDR_INET (_, p) -> Ok (fd, p)
    | _ -> Ok (fd, port))

let start ?payoff ?capacity ?ttl ?(tenant_quota = 0)
    ?resolve ?store ?recovery ?(sweep_interval = 1.) ?flight ~domains ~listen
    ~now () =
  let domains = max 1 domains in
  let shared = Shared.create () in
  let tenants = Pet_tenant.Tenant.create ~quota:tenant_quota () in
  let durable = store <> None in
  let shards =
    Array.init domains (fun index ->
        let owns id = Shard_map.owner ~shards:domains id = index in
        let labels = [ ("domain", string_of_int index) ] in
        {
          index;
          service =
            Service.create ?payoff ?capacity ?ttl ?resolve
              ~owns ~shared ~tenants ~durable ~now ();
          q = Queue.create ();
          qm = Mutex.create ();
          qc = Condition.create ();
          pending = ref [];
          held = Queue.create ();
          obs_active = Obs.gauge ~labels "pet_net_shard_sessions_active";
          obs_queue = Obs.gauge ~labels "pet_net_shard_queue_depth";
          stopped = false;
          domain = None;
        })
  in
  (* Recovery runs before any domain is spawned, so it needs no
     locking, and before the flight tee, so its log lines stay out of
     the journal. *)
  (match (store, recovery) with
  | Some store, Some recovery ->
    ignore
      (Recovery.recover ~dir:(Store.dir store) recovery
         (Array.map (fun shard -> shard.service) shards))
  | _ -> ());
  let writer =
    Option.map
      (Group_commit.start ~batch_target:domains ?flight
         ~on_durable:(fun () -> Array.iter wake shards))
      store
  in
  (match store with
  | None -> ()
  | Some _ ->
    Array.iter
      (fun shard ->
        Service.set_sink shard.service
          {
            Persist.emit =
              (fun event -> shard.pending := event :: !(shard.pending));
          })
      shards);
  match
    match listen with
    | Tcp port -> Result.map (fun (fd, port) -> (Some fd, port)) (bind port)
    | Stdio _ -> Ok (None, 0)
  with
  | Error m ->
    Option.iter Group_commit.stop writer;
    Pet_tenant.Tenant.stop tenants;
    Error m
  | Ok (listen_fd, port) ->
    let t =
      {
        shards;
        shared;
        tenants;
        writer;
        flight;
        fenc = Pet_obs.Flight.create ();
        store_h = store;
        nowf = now;
        listen = listen_fd;
        port;
        rr = Atomic.make 0;
        conns = Atomic.make 0;
        stop_flag = Atomic.make false;
        failure = ref None;
        finished = false;
        fm = Mutex.create ();
        fc = Condition.create ();
        acceptor = None;
      }
    in
    Option.iter
      (fun fl ->
        tee_log t fl;
        let fields =
          match listen with
          | Stdio _ -> [ ("mode", "stdio") ]
          | Tcp _ ->
            [
              ("transport", "tcp");
              ("domains", string_of_int domains);
              ("port", string_of_int port);
            ]
        in
        try
          Pet_store.Flight_log.append fl
            (Pet_obs.Flight.meta t.fenc ~now:(Obs.now ()) ~event:"start" fields)
        with Sys_error _ -> ())
      flight;
    Option.iter
      (fun writer ->
        Array.iter
          (fun shard ->
            Service.set_on_expire shard.service (Group_commit.note_expired writer))
          t.shards)
      t.writer;
    Array.iter
      (fun shard ->
        shard.domain <- Some (Domain.spawn (fun () -> shard_loop t shard)))
      t.shards;
    (match listen with
    | Stdio (ic, oc) ->
      (* One connection, made here rather than accepted; its EOF ends
         the server once every reply is out. *)
      ignore
        (Thread.create
           (fun () ->
             serve_conn t ic oc ~close:(fun () ->
                 try flush oc with Sys_error _ -> ());
             finish t)
           ())
    | Tcp _ -> ());
    Option.iter
      (fun fd ->
        t.acceptor <- Some (Thread.create (fun () -> acceptor_loop t fd) ());
        Obs.set_gauge
          (Obs.gauge ~help:"Shard domains serving this process." "pet_net_domains")
          (float_of_int domains);
        Log.info "net.listening"
          ~fields:[ ("port", Trace.Int port); ("domains", Trace.Int domains) ])
      listen_fd;
    if sweep_interval > 0. then
      ignore (Thread.create (fun () -> ticker_loop t sweep_interval) ());
    Ok t

let port t = t.port

(* The at-exit flight dump — a final delta snapshot, any slow traces the
   periodic ticks missed, the exit mark — then the log tee comes off.
   Runs with every domain joined, so syncing shard 0's gauges is
   race-free; the fatal-path record is written by [fail] at the moment
   of failure. *)
let dump_flight t =
  match t.flight with
  | None -> ()
  | Some fl ->
    (try
       if Obs.enabled () then
         Pet_store.Flight_log.append fl (flight_snap t t.shards.(0).service);
       List.iter
         (Pet_store.Flight_log.append fl)
         (Pet_obs.Flight.slow_traces t.fenc ~now:(Obs.now ()) (Trace.slow ()));
       Pet_store.Flight_log.append fl
         (Pet_obs.Flight.meta t.fenc ~now:(Obs.now ()) ~event:"exit" [])
     with Sys_error _ -> ());
    Log.set_sink prerr_endline

let stop t =
  if not (Atomic.exchange t.stop_flag true) then begin
    Mutex.lock t.fm;
    Condition.broadcast t.fc;
    Mutex.unlock t.fm;
    Option.iter
      (fun listen ->
        (* Shutting the listener down (not just closing it) wakes the
           acceptor blocked in [accept]. *)
        (try Unix.shutdown listen Unix.SHUTDOWN_ALL
         with Unix.Unix_error _ -> ());
        Option.iter Thread.join t.acceptor;
        t.acceptor <- None;
        try Unix.close listen with Unix.Unix_error _ -> ())
      t.listen;
    Array.iter
      (fun shard ->
        Mutex.lock shard.qm;
        shard.stopped <- true;
        Condition.broadcast shard.qc;
        Mutex.unlock shard.qm)
      t.shards;
    Array.iter
      (fun shard ->
        Option.iter Domain.join shard.domain;
        shard.domain <- None)
      t.shards;
    Option.iter Group_commit.stop t.writer;
    Pet_tenant.Tenant.stop t.tenants;
    (* The ticker is not joined: it sleeps up to a sweep interval and
       exits on its own once it sees [stop_flag]. *)
    dump_flight t
  end

let batch_stats t = Option.map Group_commit.stats t.writer
