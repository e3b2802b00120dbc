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

   The shards are the only domains: shard 0 runs on the domain that
   calls [run], shards 1..N-1 on domains [start] spawns. Each runs one
   loop ([shard_loop]) over its own [Service.t] — sessions never leave
   their shard, so the service needs no locking — and over the
   connections dealt to it, which are its alone: it selects on them and
   its wake pipe, splits their lines, posts a line that names another
   shard's session to that shard's inbox and runs every other line,
   writes and flushes every reply to its connections, and fires [watch]
   frames and the sweep tick from its select timeout. Shard 0 also
   accepts, and deals each connection to the shards in turn; stdio is
   shard 0's one connection. Each round a shard also runs one
   group-commit step and at most one queued tenant build.

   The shard that runs a request claims a commit number, handles it,
   queues its events ([submit] never waits) and holds the rendered
   reply, tagged with the last commit number claimed, until the durable
   frontier reaches the tag. Once it has served what is ready it runs
   the commit step, which commits what every shard queued unless
   another shard is committing, so one fsync covers every request
   submitted since the last one. Replies leave a shard in the order it
   handled them, to the connection's owner. *)

(* A [watch] streaming on its connection: frame [sent + 1] of [frames]
   ([0]: until the connection's input ends) is due at [due]; every frame
   runs on the connection's owner. *)
type watch = {
  wline : string;
  interval : float;
  frames : int;
  mutable sent : int;
  mutable due : float;
}

(* One live connection, its [owner] shard's alone: no other shard reads
   or writes it or its fields. [outstanding] counts requests dispatched
   but not yet written: the owner stops reading at [max_outstanding]
   (backpressure) and closes the connection only once it is back to
   zero, so no reply is ever posted to a closed one. *)
type conn = {
  fd : Unix.file_descr;
  oc : out_channel;
  owner : int;
  mutable outstanding : int;
  mutable closed : bool;  (* a write failed: drop its replies, no more watch frames *)
  partial : Buffer.t;  (* bytes read after the last newline *)
  lines : string Queue.t;  (* read, not yet dispatched *)
  mutable eof : bool;  (* input ended: EOF, a read error or [quit] *)
  mutable watch : watch option;
  release : unit -> unit;  (* close the descriptor (TCP) or flush (stdio) *)
}

type listen = Tcp of int | Stdio of in_channel * out_channel

let max_outstanding = 64

(* What other domains hand a shard: a request line it owns, a reply
   for a connection it owns, or a newly accepted connection. *)
type mail = Run of string * conn | Reply of conn * string | Adopt of conn

(* A rendered reply waiting for the durable frontier to reach [tag],
   rendered at [rendered] on the obs clock. *)
type held = { tag : int; conn : conn; response : string; rendered : float }

type shard = {
  index : int;
  service : Service.t;
  inbox : mail Queue.t;
  qm : Mutex.t;
  wake_r : Unix.file_descr;
  wake_w : Unix.file_descr;
  poked : bool Atomic.t;  (* a wake byte is on its way *)
  pending : Persist.event list ref;
      (* events the job being run emitted, newest first; the shard
         queues them for group commit when the job ends *)
  held : held Queue.t;  (* only this shard's domain touches it *)
  holding : bool Atomic.t;  (* [held] is not empty: wake on a new frontier *)
  chunk : Bytes.t;  (* read buffer *)
  mutable conns : conn list;
  mutable next_tick : float;
  obs_active : Obs.gauge;
  obs_queue : Obs.gauge;
  mutable domain : unit Domain.t option;  (* [None] for shard 0 *)
}

(* Shard 0's loop: not yet run, running in [run], or over. *)
type main = Idle | Running | Over

type t = {
  shards : shard array;
  tenants : Service.compiled Pet_tenant.Tenant.t;
      (* process-wide tenant registry, shared by every shard, whose
         queued builds the shard loops run *)
  commit : Group_commit.t option;  (* [None] without a store *)
  flight : Pet_store.Flight_log.t option;
  fenc : Pet_obs.Flight.t;
  store_h : Store.t option;  (* for WAL-frontier stamps on snapshots *)
  nowf : unit -> float;
  sweep_interval : float;
  listen : Unix.file_descr option;  (* [None] under stdio *)
  port : int;
  mutable dealt : int;  (* connections accepted; shard 0 only *)
  mutable accept_at : float;  (* no accept before, after an error; shard 0 only *)
  connected : int Atomic.t;
  stop_flag : bool Atomic.t;
      (* the serving ends: [stop], a WAL failure or the stdio
         connection's end *)
  stopped : bool Atomic.t;  (* [stop] has run *)
  failure : string option Atomic.t;
  mutable main : main;  (* under [fm] *)
  fm : Mutex.t;
  fc : Condition.t;
}

let obs_accepted = Obs.counter "pet_net_accepted_total"
let obs_conns = Obs.gauge "pet_net_connections"

(* --- Routing ------------------------------------------------------------------- *)

(* Whether [key] occurs in [line] at [i], compared in place. *)
let rec occurs line i key j =
  j = String.length key || (line.[i + j] = key.[j] && occurs line i key (j + 1))

(* The first position at or after [i] where [key] occurs, or -1. *)
let rec find line key i =
  if i + String.length key > String.length line then -1
  else if occurs line i key 0 then i
  else find line key (i + 1)

let rec skip_ws line i =
  if i < String.length line && (line.[i] = ' ' || line.[i] = '\t') then skip_ws line (i + 1)
  else i

(* Cheap scan for a top-level ["session":"<id>"] pair without parsing
   the JSON — the shard parses for real; it allocates only the id. A
   false positive (the pattern inside some string value) can only route
   the request to a shard that does not know the session, which answers
   [unknown_session] exactly as a wrong id would; it cannot crash or
   cross state between shards. *)
let rec session_hint ~from line =
  let key = {|"session"|} in
  let at = find line key from in
  if at < 0 then None
  else
    let len = String.length line in
    let i = skip_ws line (at + String.length key) in
    if i >= len || line.[i] <> ':' then session_hint ~from:(at + 1) line
    else
      let i = skip_ws line (i + 1) in
      if i >= len || line.[i] <> '"' then session_hint ~from:(at + 1) line
      else
        match String.index_from line (i + 1) '"' with
        | j when j > i + 1 -> Some (String.sub line (i + 1) (j - i - 1))
        | _ | (exception Not_found) -> session_hint ~from:(at + 1) line

(* A line that names a session runs on the shard that owns it, every
   other line on its connection's own shard — where [new_session] mints
   an id that shard owns, so a flow read on one connection stays on its
   shard. *)
let route t conn line =
  let shards = Array.length t.shards in
  if shards = 1 then 0
  else
    match session_hint ~from:0 line with
    | Some id -> Shard_map.owner ~shards id
    | None -> conn.owner

(* --- Failure ------------------------------------------------------------------- *)

(* Wake a shard blocked in [select]. At most one byte is ever in the
   pipe: the shard drains it, clears [poked] and only then looks at its
   state, so a change made after that clear pokes again. *)
let poke shard =
  if not (Atomic.exchange shard.poked true) then
    try ignore (Unix.write_substring shard.wake_w "x" 0 1) with Unix.Unix_error _ -> ()

(* End the serving: every shard drains what it holds and leaves its
   loop, so [run] returns. *)
let halt t =
  Atomic.set t.stop_flag true;
  Array.iter poke t.shards

(* A WAL failure is fatal: every held reply the durable frontier does
   not cover is answered with an [internal] error (what it may show is
   in memory but was never durable), and the serving ends with [run]
   returning the reason, so [pet serve] can shut down. *)
let fail t reason =
  if Atomic.compare_and_set t.failure None (Some reason) then begin
    Log.error "net.wal_failed" ~fields:[ ("reason", Trace.String reason) ];
    (* Fatal-path flight record, written directly (the batch that failed
       may have been the journal's too): its last words say why. *)
    (match t.flight with
    | Some fl -> (
      try
        Pet_store.Flight_log.append fl
          (Pet_obs.Flight.meta t.fenc ~now:(Obs.now ()) ~event:"fatal"
             [ ("reason", reason) ])
      with Sys_error _ -> ())
    | None -> ());
    halt t
  end

(* --- Running requests ------------------------------------------------------------- *)

let post shard mail =
  Mutex.lock shard.qm;
  Queue.add mail shard.inbox;
  let depth = Queue.length shard.inbox in
  Mutex.unlock shard.qm;
  Obs.set_gauge shard.obs_queue (float_of_int depth);
  poke shard

let take_inbox shard =
  let mail = Queue.create () in
  Mutex.lock shard.qm;
  Queue.transfer shard.inbox mail;
  Mutex.unlock shard.qm;
  if not (Queue.is_empty mail) then Obs.set_gauge shard.obs_queue 0.;
  mail

(* Flight records are stamped with the obs clock; SLO windows are
   judged at the service clock, the timeline requests are recorded on. *)
let flight_snap t service =
  let snapshot = Service.snapshot service ~now:(t.nowf ()) in
  Pet_obs.Flight.snap t.fenc
    ?wal:(Option.map Store.position t.store_h)
    ~now:(Obs.now ()) snapshot

(* Queue one flight snapshot, assembled on shard 0, behind the WAL
   jobs. Slow traces ride along; the encoder journals each once. *)
let emit_flight t shard =
  match t.commit with
  | Some commit when t.flight <> None && Obs.enabled () ->
    let record = flight_snap t shard.service in
    let traces = Pet_obs.Flight.slow_traces t.fenc ~now:(Obs.now ()) (Trace.slow ()) in
    List.iter (Group_commit.submit_flight commit) (record :: traces)
  | _ -> ()

(* Only a connection's owner writes to it: a reply for another shard's
   connection goes to that shard's inbox. The owner buffers it for the
   round's flush and frees one slot of the budget. A failed write means
   the client went away: its later replies are dropped, but the count
   still runs so the connection can close. A freed slot, or the last
   reply of a connection that waits to drain, pokes the owner so its
   round does not block while the connection can move on. *)
let respond t shard conn response =
  if conn.owner <> shard.index then post t.shards.(conn.owner) (Reply (conn, response))
  else begin
    if not conn.closed then begin
      try
        output_string conn.oc response;
        output_char conn.oc '\n'
      with Sys_error _ -> conn.closed <- true
    end;
    conn.outstanding <- conn.outstanding - 1;
    if conn.outstanding = max_outstanding - 1
       || (conn.outstanding = 0 && (conn.eof || conn.watch <> None))
    then poke shard
  end

(* Send what the round wrote: one flush per connection, a no-op on an
   empty buffer. A failed flush closes it as a failed write does. *)
let flush_written shard =
  List.iter
    (fun c -> if not c.closed then try flush c.oc with Sys_error _ -> c.closed <- true)
    shard.conns

(* Write every held reply at the head of the FIFO that the durable
   frontier covers; once a batch has failed, answer the rest with the
   [internal] error instead. *)
let release t commit shard =
  let rec go () =
    match Queue.peek_opt shard.held with
    | None -> Atomic.set shard.holding false
    | Some r ->
      let durable = r.tag <= Group_commit.durable commit in
      let failed = Group_commit.failure commit in
      if durable || failed <> None then begin
        ignore (Queue.pop shard.held);
        if Obs.enabled () then
          Service.record_hold shard.service (Obs.now () -. r.rendered);
        (match failed with
        | Some m when not durable ->
          let reason = "write-ahead log failure: " ^ m in
          fail t reason;
          respond t shard r.conn
            (Proto.error_response ~id:Json.Null (Proto.error Proto.Internal reason))
        | _ -> respond t shard r.conn r.response);
        go ()
      end
  in
  go ()

(* Run one job (a request, or the sweep) under a commit number claimed
   before it starts, so the number precedes every write the job makes
   visible to other shards. Its reply is tagged with the last number
   claimed once it ends: that covers its own events and every write on
   another shard it could have seen. A stopped group commit is a failed
   one. *)
let run_job t shard work =
  let lsn = Option.map Group_commit.claim t.commit in
  let reply = work () in
  Obs.set_gauge shard.obs_active
    (float_of_int (Service.session_counters shard.service).Session.active);
  match (t.commit, lsn) with
  | Some commit, Some lsn ->
    let events = List.rev !(shard.pending) in
    shard.pending := [];
    (try Group_commit.submit commit lsn events
     with Sys_error m -> fail t ("write-ahead log failure: " ^ m));
    Option.iter
      (fun (conn, response) ->
        let rendered = if Obs.enabled () then Obs.now () else 0. in
        Queue.push { tag = Group_commit.issued commit; conn; response; rendered } shard.held;
        Atomic.set shard.holding true)
      reply;
    release t commit shard
  | _ -> Option.iter (fun (conn, response) -> respond t shard conn response) reply

let serve t shard conn line =
  run_job t shard (fun () -> Some (conn, Service.handle_line shard.service line))

let receive t shard = function
  | Run (line, conn) -> serve t shard conn line
  | Reply (conn, response) -> respond t shard conn response
  | Adopt conn -> shard.conns <- conn :: shard.conns

(* --- Connections ------------------------------------------------------------------ *)

(* [select] cannot watch a descriptor at or past FD_SETSIZE (1024): it
   fails with [EINVAL]. *)
let selectable fd =
  match Unix.select [ fd ] [] [] 0. with _ -> true | exception Unix.Unix_error _ -> false

let connect t fd oc ~owner ~release =
  let n = Atomic.fetch_and_add t.connected 1 + 1 in
  Obs.set_gauge obs_conns (float_of_int n);
  {
    fd;
    oc;
    owner;
    outstanding = 0;
    closed = false;
    partial = Buffer.create 256;
    lines = Queue.create ();
    eof = false;
    watch = None;
    release;
  }

let close_conn t shard conn =
  shard.conns <- List.filter (fun c -> c != conn) shard.conns;
  let n = Atomic.fetch_and_add t.connected (-1) - 1 in
  Obs.set_gauge obs_conns (float_of_int n);
  conn.release ()

(* Blank lines are skipped; a bare [quit] ends the input like EOF; one
   trailing '\r' is dropped. *)
let add_line conn line =
  let trimmed = String.trim line and n = String.length line in
  if conn.eof || trimmed = "" then ()
  else if trimmed = "quit" then conn.eof <- true
  else Queue.add (if line.[n - 1] = '\r' then String.sub line 0 (n - 1) else line) conn.lines

(* Split the [n] bytes read into [buf] at each newline. At EOF a last
   line without one still counts. *)
let split conn buf n =
  let rec go start i =
    if i = n then Buffer.add_subbytes conn.partial buf start (n - start)
    else if Bytes.get buf i <> '\n' then go start (i + 1)
    else begin
      Buffer.add_subbytes conn.partial buf start (i - start);
      add_line conn (Buffer.contents conn.partial);
      Buffer.clear conn.partial;
      go (i + 1) (i + 1)
    end
  in
  go 0 0

let read_conn shard conn =
  match Unix.read conn.fd shard.chunk 0 (Bytes.length shard.chunk) with
  | exception Unix.Unix_error ((EINTR | EAGAIN | EWOULDBLOCK), _, _) -> ()
  | 0 | (exception Unix.Unix_error _) ->
    add_line conn (Buffer.contents conn.partial);
    conn.eof <- true
  | n -> split conn shard.chunk n

(* Run a line here if this shard is its [target], else post it there. *)
let deliver t shard target conn line =
  conn.outstanding <- conn.outstanding + 1;
  if target = shard.index then serve t shard conn line
  else post t.shards.(target) (Run (line, conn))

(* A watch takes over its connection: the lines after it are dispatched
   only once its last frame is answered, so a transcript is
   deterministic on any number of shards. Each frame is the same request
   line run as an ordinary request (on the owner, same outstanding budget,
   one ok-response per frame echoing the id), [interval] apart. A
   bounded watch stops after [frames] frames, an unbounded one when the
   connection's input ends (one read after that is passed over); either
   stops once a write to the connection fails. An in-place scan gates
   the decode, so every other line is passed on untouched, and a
   malformed watch gets the shard's usual error response. *)
let dispatch t shard conn line =
  match if find line {|"watch"|} 0 < 0 then None else Result.to_option (Proto.decode line) with
  | Some { Proto.request = Proto.Watch { frames = 0; _ }; _ } when conn.eof -> ()
  | Some { Proto.request = Proto.Watch { interval; frames }; _ } ->
    conn.watch <- Some { wline = line; interval; frames; sent = 0; due = 0. }
  | _ -> deliver t shard (route t conn line) conn line

let streaming conn w =
  (not conn.closed) && if w.frames = 0 then not conn.eof else w.sent < w.frames

(* When the next frame may go, if only time holds it back. *)
let frame_due conn =
  match conn.watch with
  | Some w when streaming conn w && conn.outstanding < max_outstanding -> Some w.due
  | _ -> None

(* Move a connection on as far as it can go now: a watch frame if one is
   due, else its lines up to the outstanding budget; once its input has
   ended and every reply is out, close it. *)
let rec advance t shard now conn =
  match conn.watch with
  | Some w when streaming conn w -> (
    match frame_due conn with
    | Some due when due <= now ->
      w.sent <- w.sent + 1;
      w.due <- now +. w.interval;
      deliver t shard shard.index conn w.wline;
      (* The last frame may be answered already. *)
      if not (streaming conn w) then advance t shard now conn
    | _ -> ())
  | Some _ ->
    if conn.outstanding = 0 then begin
      conn.watch <- None;
      advance t shard now conn
    end
  | None when Queue.is_empty conn.lines ->
    if conn.eof && conn.outstanding = 0 then close_conn t shard conn
  | None ->
    if conn.outstanding < max_outstanding then begin
      dispatch t shard conn (Queue.pop conn.lines);
      advance t shard now conn
    end

(* Read while nothing read is waiting; during an unbounded watch, read
   on to see its input end. *)
let wants_input conn =
  (not conn.eof)
  && match conn.watch with Some w -> w.frames = 0 | None -> Queue.is_empty conn.lines

(* Deal each accepted connection to the shards in turn. *)
let rec accept t shard listen =
  match Unix.accept ~cloexec:true listen with
  | fd, _ ->
    Obs.incr obs_accepted;
    if not (selectable fd) then begin
      Log.warn "net.refused" ~fields:[ ("reason", Trace.String "descriptor past select's limit") ];
      Unix.close fd
    end
    else begin
      Unix.clear_nonblock fd;
      (* A round's replies are one small write: Nagle would hold it
         back until the client's delayed ACK. *)
      (try Unix.setsockopt fd TCP_NODELAY true with Unix.Unix_error _ -> ());
      let owner = t.dealt mod Array.length t.shards in
      t.dealt <- t.dealt + 1;
      let oc = Unix.out_channel_of_descr fd in
      (* The channel's close is the descriptor's one close. *)
      let conn = connect t fd oc ~owner ~release:(fun () -> close_out_noerr oc) in
      if owner = shard.index then shard.conns <- conn :: shard.conns
      else post t.shards.(owner) (Adopt conn)
    end;
    accept t shard listen
  | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> ()
  | exception Unix.Unix_error (e, _, _) ->
    (* Out of descriptors, say: retry shortly rather than spin on a
       listener that stays readable. *)
    Log.warn "net.accept_failed" ~fields:[ ("reason", Trace.String (Unix.error_message e)) ];
    t.accept_at <- Unix.gettimeofday () +. 0.1

(* Block until a poke, a readable connection or listener, a due frame or
   the sweep tick; then read what is ready. *)
let await t shard ~stopping =
  let now = Unix.gettimeofday () in
  let conns = if stopping then [] else List.filter wants_input shard.conns in
  let listen, backoff =
    match t.listen with
    | Some fd when shard.index = 0 && not stopping ->
      if now >= t.accept_at then ([ fd ], []) else ([], [ t.accept_at ])
    | _ -> ([], [])
  in
  let deadlines =
    if stopping then []
    else
      backoff @ List.filter_map frame_due shard.conns
      @ if t.sweep_interval > 0. then [ shard.next_tick ] else []
  in
  let timeout =
    match deadlines with
    | _ when (not stopping) && Pet_tenant.Tenant.queued t.tenants -> 0.
    | [] -> -1.
    | d :: ds -> Float.max 0. (List.fold_left Float.min d ds -. now)
  in
  match
    Unix.select (shard.wake_r :: listen @ List.map (fun c -> c.fd) conns) [] []
      timeout
  with
  | exception Unix.Unix_error (EINTR, _, _) -> ()
  | ready, _, _ ->
    if List.mem shard.wake_r ready then begin
      (try ignore (Unix.read shard.wake_r shard.chunk 0 64) with Unix.Unix_error _ -> ());
      Atomic.set shard.poked false
    end;
    List.iter (fun fd -> if List.mem fd ready then accept t shard fd) listen;
    List.iter (fun c -> if List.mem c.fd ready then read_conn shard c) conns

(* One round: run and write what other shards posted, move every
   connection on, fire the sweep tick, run the commit step and release
   what the frontier covers, flush what the round wrote, run one queued
   tenant build, then wait for more — without blocking while builds
   remain queued. The commit step and the flush come before the build,
   so a build delays neither a batch nor the replies that wait on it; it
   delays this shard's next requests by its length, as a cache-miss
   recompile on the request path does. Once stopped, a shard reads
   nothing more, runs no build, and ends after a round that found
   nothing posted and left nothing held; [stop] writes the replies
   posted to it after that. *)
let rec shard_loop t shard =
  let stopping = Atomic.get t.stop_flag in
  let mail = take_inbox shard in
  Queue.iter (receive t shard) mail;
  if not stopping then begin
    let now = Unix.gettimeofday () in
    List.iter (advance t shard now) shard.conns;
    if t.sweep_interval > 0. && now >= shard.next_tick then begin
      shard.next_tick <- now +. t.sweep_interval;
      run_job t shard (fun () -> ignore (Service.sweep_tick ~budget:256 shard.service); None);
      (* One flight snapshot per sweep, assembled on shard 0. *)
      if shard.index = 0 then emit_flight t shard
    end
  end;
  Option.iter
    (fun commit ->
      Group_commit.step commit;
      release t commit shard)
    t.commit;
  flush_written shard;
  if not stopping then ignore (Pet_tenant.Tenant.run_one t.tenants);
  if not (stopping && Queue.is_empty shard.held) then begin
    await t shard ~stopping;
    shard_loop t shard
  end
  else if not (Queue.is_empty mail) then shard_loop t shard

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
    Unix.set_nonblock fd;
    fd
  with
  | exception Unix.Unix_error (e, _, _) ->
    Error
      (Printf.sprintf "cannot listen on port %d: %s" port (Unix.error_message e))
  | fd -> (
    match Unix.getsockname fd with
    | Unix.ADDR_INET (_, p) -> Ok (Some fd, p)
    | _ -> Ok (Some fd, port))

let start ?payoff ?capacity ?ttl ?(tenant_quota = 0)
    ?resolve ?store ?recovery ?(sweep_interval = 1.) ?flight ~domains ~listen
    ~now () =
  let ( let* ) = Result.bind in
  let* listen_fd, port = match listen with Tcp port -> bind port | Stdio _ -> Ok (None, 0) in
  let domains = max 1 domains in
  let shared = Shared.create () in
  let tenants = Pet_tenant.Tenant.create ~quota:tenant_quota () in
  let durable = store <> None in
  let started = Unix.gettimeofday () in
  let shards =
    Array.init domains (fun index ->
        let owns id = Shard_map.owner ~shards:domains id = index in
        let labels = [ ("domain", string_of_int index) ] in
        let wake_r, wake_w = Unix.pipe ~cloexec:true () in
        Unix.set_nonblock wake_r;
        Unix.set_nonblock wake_w;
        {
          index;
          service =
            Service.create ?payoff ?capacity ?ttl ?resolve
              ~owns ~shared ~tenants ~durable ~now ();
          inbox = Queue.create ();
          qm = Mutex.create ();
          wake_r;
          wake_w;
          poked = Atomic.make false;
          pending = ref [];
          held = Queue.create ();
          holding = Atomic.make false;
          chunk = Bytes.create 65536;
          conns = [];
          next_tick = started +. sweep_interval;
          obs_active = Obs.gauge ~labels "pet_net_shard_sessions_active";
          obs_queue = Obs.gauge ~labels "pet_net_shard_queue_depth";
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
  let commit =
    Option.map
      (Group_commit.create ?flight
         ~on_durable:(fun () ->
           Array.iter (fun shard -> if Atomic.get shard.holding then poke shard) shards))
      store
  in
  Option.iter
    (fun commit ->
      Array.iter
        (fun shard ->
          Service.set_sink shard.service
            { Persist.emit = (fun event -> shard.pending := event :: !(shard.pending)) };
          Service.set_on_expire shard.service (Group_commit.note_expired commit))
        shards)
    commit;
  let t =
    {
      shards;
      tenants;
      commit;
      flight;
      fenc = Pet_obs.Flight.create ();
      store_h = store;
      nowf = now;
      sweep_interval;
      listen = listen_fd;
      port;
      dealt = 0;
      accept_at = 0.;
      connected = Atomic.make 0;
      stop_flag = Atomic.make false;
      stopped = Atomic.make false;
      failure = Atomic.make None;
      main = Idle;
      fm = Mutex.create ();
      fc = Condition.create ();
    }
  in
  Option.iter
    (fun fl ->
      tee_log t fl;
      let fields =
        match listen with
        | Stdio _ -> [ ("mode", "stdio") ]
        | Tcp _ -> [ ("transport", "tcp"); ("domains", string_of_int domains); ("port", string_of_int port) ]
      in
      try
        Pet_store.Flight_log.append fl
          (Pet_obs.Flight.meta t.fenc ~now:(Obs.now ()) ~event:"start" fields)
      with Sys_error _ -> ())
    flight;
  (match listen with
  | Stdio (ic, oc) ->
    (* Shard 0's one connection, made here rather than accepted; its end
       ends the serving once every reply is out. *)
    let fd = Unix.descr_of_in_channel ic in
    let conn =
      connect t fd oc ~owner:0 ~release:(fun () ->
          (try flush oc with Sys_error _ -> ());
          halt t)
    in
    if not (selectable fd) then conn.eof <- true;
    shards.(0).conns <- [ conn ]
  | Tcp _ ->
    (* A client that resets with replies pending fails its own writes
       ([respond] marks it closed); left at its default, SIGPIPE would
       end the whole server. Stdio keeps the default: a closed stdout
       ends [pet serve] like any filter. *)
    Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
    Obs.set_gauge
      (Obs.gauge ~help:"Shard domains serving this process." "pet_net_domains")
      (float_of_int domains);
    Log.info "net.listening"
      ~fields:[ ("port", Trace.Int port); ("domains", Trace.Int domains) ]);
  Array.iter
    (fun shard ->
      if shard.index > 0 then
        shard.domain <- Some (Domain.spawn (fun () -> shard_loop t shard)))
    shards;
  Ok t

let port t = t.port

let run t =
  Mutex.lock t.fm;
  let idle = t.main = Idle in
  if idle then t.main <- Running;
  Mutex.unlock t.fm;
  if idle then
    Fun.protect
      ~finally:(fun () ->
        Mutex.lock t.fm;
        t.main <- Over;
        Condition.broadcast t.fc;
        Mutex.unlock t.fm)
      (fun () -> shard_loop t t.shards.(0));
  match Atomic.get t.failure with Some m -> Error m | None -> Ok ()

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
  if not (Atomic.exchange t.stopped true) then begin
    halt t;
    Array.iter (fun shard -> Option.iter Domain.join shard.domain) t.shards;
    (* Shard 0's loop ends in [run], if it was ever started. *)
    Mutex.lock t.fm;
    while t.main = Running do
      Condition.wait t.fc t.fm
    done;
    t.main <- Over;
    Mutex.unlock t.fm;
    (* Write the replies posted to a shard after it ended, then close
       the connections still open, with any dealt to a shard after it
       ended. *)
    Array.iter
      (fun shard ->
        Queue.iter (function Run _ -> () | mail -> receive t shard mail) (take_inbox shard);
        List.iter (close_conn t shard) shard.conns)
      t.shards;
    Option.iter Unix.close t.listen;
    Option.iter Group_commit.stop t.commit;
    (* Only now: the last batch may still poke a shard. *)
    Array.iter (fun shard -> Unix.close shard.wake_r; Unix.close shard.wake_w) t.shards;
    dump_flight t
  end

let batch_stats t = Option.map Group_commit.stats t.commit
