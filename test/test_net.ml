(* Tests for the serving core: shard-map stability and distribution,
   collision-free sharded id generation, group-commit batching under
   concurrent submitters, durable-before-reply over a real socket,
   batched-append crash prefixes, sweep fairness across shards,
   cross-shard rule sharing, sessionless requests on their connection's
   shard and replies from another shard written by the connection's
   owner, compaction under TCP (including sessions
   only reads kept alive), per-request accounting merged across shards,
   watch streaming on both transports, one request stream answered alike
   by every transport, pipelining far past the outstanding budget,
   descriptors past select's limit, a client reset with replies
   pending, tenant builds run by the shard loops, and HOST:PORT
   dialing. *)

module Spec = Pet_rules.Spec
module Persist = Pet_server.Persist
module Service = Pet_server.Service
module Session = Pet_server.Session
module Shared = Pet_server.Shared
module Store = Pet_store.Store
module Shard_map = Pet_net.Shard_map
module Group_commit = Pet_net.Group_commit
module Server = Pet_net.Server
module Dial = Pet_net.Dial
module Running = Pet_casestudies.Running

let temp_dir =
  let counter = ref 0 in
  fun () ->
    incr counter;
    let dir =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "pet_net_test_%d_%d" (Unix.getpid ()) !counter)
    in
    let rec remove path =
      if Sys.is_directory path then begin
        Array.iter
          (fun entry -> remove (Filename.concat path entry))
          (Sys.readdir path);
        Sys.rmdir path
      end
      else Sys.remove path
    in
    if Sys.file_exists dir then remove dir;
    dir

let resolve = function
  | "running" -> Some (Spec.to_string (Running.exposure ()))
  | _ -> None

let read_dir_contents dir =
  Sys.readdir dir |> Array.to_list |> List.sort compare
  |> List.map (fun file ->
         In_channel.with_open_bin (Filename.concat dir file)
           In_channel.input_all)
  |> String.concat ""

(* --- Shard map ------------------------------------------------------------------ *)

let test_shard_map_stable () =
  (* The mapping is part of the on-disk contract: recovery must route a
     replayed session to the same shard that created it, in a different
     process. Pin concrete values so an accidental hash change fails
     loudly. *)
  Alcotest.(check int) "s0" (Shard_map.hash "s0") (Shard_map.hash "s0");
  List.iter
    (fun id ->
      let h = Shard_map.hash id in
      Alcotest.(check bool) (id ^ " non-negative") true (h >= 0);
      Alcotest.(check int)
        (id ^ " owner consistent") (h mod 4)
        (Shard_map.owner ~shards:4 id))
    [ "s0"; "s1"; "s17"; "s123456"; "" ];
  Alcotest.(check int) "single shard" 0 (Shard_map.owner ~shards:1 "s99")

let test_shard_map_distribution () =
  let shards = 4 in
  let per_shard = Array.make shards 0 in
  for i = 0 to 999 do
    let owner = Shard_map.owner ~shards (Printf.sprintf "s%d" i) in
    per_shard.(owner) <- per_shard.(owner) + 1
  done;
  Array.iteri
    (fun i n ->
      if n < 100 then
        Alcotest.failf "shard %d got only %d of 1000 sequential ids" i n)
    per_shard

let test_sharded_ids_disjoint () =
  (* Each shard filters the same id sequence by ownership, so the union
     of ids minted by independent shards has no collisions. *)
  let shards = 4 in
  let stores =
    Array.init shards (fun index ->
        Session.create_store
          ~owns:(fun id -> Shard_map.owner ~shards id = index)
          ())
  in
  let seen = Hashtbl.create 256 in
  Array.iteri
    (fun index store ->
      for _ = 1 to 50 do
        let session = Session.create store ~digest:"d" ~now:0. () in
        let id = session.Session.id in
        Alcotest.(check int) (id ^ " owned by its shard") index
          (Shard_map.owner ~shards id);
        if Hashtbl.mem seen id then Alcotest.failf "id %s minted twice" id;
        Hashtbl.add seen id ()
      done)
    stores;
  Alcotest.(check int) "200 distinct ids" 200 (Hashtbl.length seen)

(* --- Group commit ---------------------------------------------------------------- *)

let created id = [ Persist.Session_created { id; digest = "d"; tenant = None; at = 0. } ]

let test_group_commit_batches () =
  (* Eight submitters, each running the commit step after every submit
     as a shard does once per round. *)
  let dir = temp_dir () in
  (match Store.open_dir ~fsync:false dir with
  | Error m -> Alcotest.failf "open_dir: %s" m
  | Ok (store, _) ->
    let writer = Group_commit.create store in
    let submitters = 8 and each = 5 in
    let threads =
      List.init submitters (fun t ->
          Thread.create
            (fun () ->
              for i = 1 to each do
                Group_commit.submit writer (Group_commit.claim writer)
                  (created (Printf.sprintf "s%d_%d" t i));
                Group_commit.step writer
              done)
            ())
    in
    List.iter Thread.join threads;
    Group_commit.stop writer;
    Store.close store;
    let stats = Group_commit.stats writer in
    Alcotest.(check int) "events" (submitters * each) stats.Group_commit.events;
    Alcotest.(check bool) "batched at least once" true
      (stats.Group_commit.batches <= stats.Group_commit.events
      && stats.Group_commit.batches > 0);
    Alcotest.(check bool) "max batch sane" true
      (stats.Group_commit.max_batch >= 1
      && stats.Group_commit.max_batch <= stats.Group_commit.events));
  (* Every submitted event survives, whatever the batching was. *)
  match Store.open_dir ~fsync:false dir with
  | Error m -> Alcotest.failf "reopen: %s" m
  | Ok (store, recovery) ->
    Store.close store;
    Alcotest.(check int) "all events recovered" 40
      (List.length recovery.Store.events)

let test_submit_after_stop_raises () =
  let dir = temp_dir () in
  match Store.open_dir ~fsync:false dir with
  | Error m -> Alcotest.failf "open_dir: %s" m
  | Ok (store, _) ->
    let writer = Group_commit.create store in
    Group_commit.stop writer;
    (match Group_commit.submit writer (Group_commit.claim writer) (created "s0") with
    | () -> Alcotest.fail "submit after stop did not raise"
    | exception Sys_error _ -> ());
    Store.close store

let test_claim_holds_frontier () =
  (* The tag rule rests on this: a claimed number holds the durable
     frontier below itself until it is submitted, even when a later
     number resolved first. *)
  let dir = temp_dir () in
  match Store.open_dir ~fsync:false dir with
  | Error m -> Alcotest.failf "open_dir: %s" m
  | Ok (store, _) ->
    let writer = Group_commit.create store in
    let first = Group_commit.claim writer in
    let second = Group_commit.claim writer in
    Alcotest.(check int) "issued" second (Group_commit.issued writer);
    Group_commit.submit writer second [];
    Group_commit.step writer;
    Alcotest.(check int) "an earlier claim holds the frontier" 0
      (Group_commit.durable writer);
    Group_commit.submit writer first (created "s0");
    Alcotest.(check int) "queued, not yet committed" 0 (Group_commit.durable writer);
    Group_commit.step writer;
    Alcotest.(check int) "both numbers durable" second (Group_commit.durable writer);
    Group_commit.stop writer;
    Store.close store

let test_job_queued_mid_commit () =
  (* Shard A commits; while its batch is in hand, shard B queues a job
     and runs its own step, which finds the flag taken and leaves the
     job to A. A must commit it before its step returns: nothing else
     would, since no shard submits again. *)
  let dir = temp_dir () in
  match Store.open_dir ~fsync:false dir with
  | Error m -> Alcotest.failf "open_dir: %s" m
  | Ok (store, _) ->
    let writer = ref None in
    let late = ref 0 and seen_mid_commit = ref (-1) in
    let on_durable () =
      (* Called by the committer after its batch, flag still held. *)
      if !late = 0 then begin
        let w = Option.get !writer in
        let b =
          Thread.create
            (fun () ->
              late := Group_commit.claim w;
              Group_commit.submit w !late (created "s1");
              Group_commit.step w;
              seen_mid_commit := Group_commit.durable w)
            ()
        in
        Thread.join b
      end
    in
    let w = Group_commit.create ~on_durable store in
    writer := Some w;
    Group_commit.submit w (Group_commit.claim w) (created "s0");
    Group_commit.step w;
    Alcotest.(check int) "B's step left its job queued" 1 !seen_mid_commit;
    Alcotest.(check int) "durable with no later submit" !late (Group_commit.durable w);
    Alcotest.(check int) "two batches" 2 (Group_commit.stats w).Group_commit.batches;
    Group_commit.stop w;
    Store.close store

let test_stop_commits_queued () =
  (* Jobs queued with no step after them are committed by [stop]. *)
  let dir = temp_dir () in
  (match Store.open_dir ~fsync:false dir with
  | Error m -> Alcotest.failf "open_dir: %s" m
  | Ok (store, _) ->
    let writer = Group_commit.create store in
    let lsns =
      List.init 3 (fun i ->
          let lsn = Group_commit.claim writer in
          Group_commit.submit writer lsn (created (Printf.sprintf "s%d" i));
          lsn)
    in
    Alcotest.(check int) "nothing durable before stop" 0 (Group_commit.durable writer);
    Group_commit.stop writer;
    Store.close store;
    Alcotest.(check int) "every number durable after stop" (List.nth lsns 2)
      (Group_commit.durable writer));
  match Store.open_dir ~fsync:false dir with
  | Error m -> Alcotest.failf "reopen: %s" m
  | Ok (store, recovery) ->
    Store.close store;
    Alcotest.(check int) "all events recovered" 3 (List.length recovery.Store.events)

let test_append_batch_crash_prefix () =
  (* A batch torn mid-record by a crash recovers to a prefix of the
     batch — never a suffix, never a hole. *)
  let dir = temp_dir () in
  (match Store.open_dir ~fsync:false dir with
  | Error m -> Alcotest.failf "open_dir: %s" m
  | Ok (store, _) ->
    Store.append_batch store
      (List.init 5 (fun i ->
           Persist.Session_created
             {
               id = Printf.sprintf "s%d" i;
               digest = "d";
               tenant = None;
               at = 0.;
             }));
    Store.close store);
  let file =
    match Sys.readdir dir |> Array.to_list |> List.sort compare with
    | f :: _ -> Filename.concat dir f
    | [] -> Alcotest.fail "no wal file"
  in
  let size = (Unix.stat file).Unix.st_size in
  Unix.truncate file (size - 7);
  match Store.open_dir ~fsync:false dir with
  | Error m -> Alcotest.failf "reopen: %s" m
  | Ok (store, recovery) ->
    Store.close store;
    let ids =
      List.map
        (function
          | Persist.Session_created { id; _ } -> id
          | _ -> Alcotest.fail "unexpected event kind")
        recovery.Store.events
    in
    Alcotest.(check (list string)) "prefix of the batch"
      [ "s0"; "s1"; "s2"; "s3" ] ids;
    Alcotest.(check bool) "tear reported" true
      (recovery.Store.truncated <> None)

(* --- TCP server ------------------------------------------------------------------- *)

let connect port =
  let fd = Unix.socket ~cloexec:true PF_INET SOCK_STREAM 0 in
  Unix.connect fd (ADDR_INET (Unix.inet_addr_loopback, port));
  (fd, Unix.in_channel_of_descr fd, Unix.out_channel_of_descr fd)

let request oc ic line =
  output_string oc line;
  output_char oc '\n';
  flush oc;
  match In_channel.input_line ic with
  | Some response -> response
  | None -> Alcotest.fail "server closed the connection"

(* Run shard 0's loop on a domain of its own, as [pet serve] runs it on
   its main domain; [f] gets the server and a poll for what {!Server.run}
   returned, [None] until it has, waiting at most [within] seconds. *)
let running server f =
  let ran = Atomic.make None in
  let shard0 = Domain.spawn (fun () -> Atomic.set ran (Some (Server.run server))) in
  let finished ~within =
    let deadline = Unix.gettimeofday () +. within in
    let rec poll () =
      match Atomic.get ran with
      | Some result -> Some result
      | None when Unix.gettimeofday () > deadline -> None
      | None -> Thread.delay 0.01; poll ()
    in
    poll ()
  in
  Fun.protect
    ~finally:(fun () ->
      Server.stop server;
      Domain.join shard0)
    (fun () -> f ~finished)

let tcp_server ?store ?recovery ?ttl ?(domains = 4) ?(now = Unix.gettimeofday) () =
  match
    Server.start ~resolve ?store ?recovery ?ttl ~sweep_interval:0. ~domains
      ~listen:(Tcp 0) ~now ()
  with
  | Error m -> Alcotest.failf "server start: %s" m
  | Ok server -> server

let with_server ?store ?recovery ?ttl ?domains ?now f =
  let server = tcp_server ?store ?recovery ?ttl ?domains ?now () in
  running server (fun ~finished:_ -> f server)

(* A fresh data dir for [f], or none. *)
let with_data_dir durable f =
  if not durable then f None None
  else
    match Store.open_dir ~fsync:false (temp_dir ()) with
    | Error m -> Alcotest.failf "open_dir: %s" m
    | Ok (store, recovery) ->
      Fun.protect ~finally:(fun () -> Store.close store) (fun () -> f (Some store) (Some recovery))

(* [n] connections to [server], opened in order: the k-th connection a
   server accepts is dealt to shard k mod N. [f] gets [call k line],
   which sends [line] on connection [k] and returns its reply. *)
let with_conns server n f =
  let conns = Array.init n (fun _ -> connect (Server.port server)) in
  Fun.protect
    ~finally:(fun () -> Array.iter (fun (fd, _, _) -> Unix.close fd) conns)
    (fun () ->
      f (fun k line ->
          let _, ic, oc = conns.(k) in
          request oc ic line))

let contains haystack needle =
  let h = String.length haystack and n = String.length needle in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  n = 0 || go 0

(* pull "session":"sN" out of a response line *)
let session_of response =
  let key = {|"session":"|} in
  let rec find i =
    if i + String.length key >= String.length response then
      Alcotest.failf "no session in %s" response
    else if String.sub response i (String.length key) = key then begin
      let start = i + String.length key in
      let stop = String.index_from response start '"' in
      String.sub response start (stop - start)
    end
    else find (i + 1)
  in
  find 0

let new_session_line = {|{"pet":1,"id":1,"method":"new_session","params":{"source":"running"}}|}

let report_line ~id sid =
  Printf.sprintf
    {|{"pet":1,"id":%S,"method":"get_report","params":{"session":"%s","valuation":"101"}}|}
    id sid

let json_of line =
  match Pet_pet.Json.parse line with
  | Ok json -> json
  | Error m -> Alcotest.failf "not JSON (%s): %s" m line

let path json keys =
  List.fold_left
    (fun json key ->
      match Pet_pet.Json.member key json with
      | Some v -> v
      | None -> Alcotest.failf "no %s in %s" key (Pet_pet.Json.to_string json))
    json keys

let int_at json keys =
  match path json keys with
  | Pet_pet.Json.Int n -> n
  | Pet_pet.Json.Float f -> int_of_float f
  | v -> Alcotest.failf "not a number: %s" (Pet_pet.Json.to_string v)

let fold_obj json f init =
  match json with
  | Pet_pet.Json.Obj kvs -> List.fold_left (fun acc (k, v) -> f k v acc) init kvs
  | _ -> init

let test_durable_before_reply () =
  let dir = temp_dir () in
  match Store.open_dir ~fsync:true dir with
  | Error m -> Alcotest.failf "open_dir: %s" m
  | Ok (store, _) ->
    Fun.protect
      ~finally:(fun () -> Store.close store)
      (fun () ->
        with_server ~store (fun server ->
            let fd, ic, oc = connect (Server.port server) in
            Fun.protect
              ~finally:(fun () -> Unix.close fd)
              (fun () ->
                let r1 =
                  request oc ic
                    {|{"pet":1,"id":1,"method":"publish_rules","params":{"source":"running"}}|}
                in
                Alcotest.(check bool) "publish ok" true (contains r1 {|"ok"|});
                (* The reply for publish is in hand: its Rules event must
                   already be on disk, before any later append. *)
                Alcotest.(check bool) "rules durable before reply" true
                  (contains (read_dir_contents dir) {|"ev":"rules"|});
                let r2 =
                  request oc ic
                    {|{"pet":1,"id":2,"method":"new_session","params":{"source":"running"}}|}
                in
                let sid = session_of r2 in
                Alcotest.(check bool) "session durable before reply" true
                  (contains (read_dir_contents dir)
                     (Printf.sprintf {|"id":"%s"|} sid));
                (* And the whole flow commits through group commit. *)
                let r3 =
                  request oc ic
                    (Printf.sprintf
                       {|{"pet":1,"id":3,"method":"get_report","params":{"session":"%s","valuation":"101"}}|}
                       sid)
                in
                Alcotest.(check bool) "report ok" true (contains r3 {|"ok"|});
                let r4 =
                  request oc ic
                    (Printf.sprintf
                       {|{"pet":1,"id":4,"method":"choose_option","params":{"session":"%s","option":0}}|}
                       sid)
                in
                Alcotest.(check bool) "choose ok" true (contains r4 {|"ok"|});
                let r5 =
                  request oc ic
                    (Printf.sprintf
                       {|{"pet":1,"id":5,"method":"submit_form","params":{"session":"%s"}}|}
                       sid)
                in
                Alcotest.(check bool) "submit ok" true (contains r5 {|"ok"|});
                Alcotest.(check bool) "grant durable before reply" true
                  (contains (read_dir_contents dir) {|"ev":"grant"|}));
            match Server.batch_stats server with
            | None -> Alcotest.fail "no batch stats with a store"
            | Some stats ->
              (* publish + create + choose + submit + grant = 5 events *)
              Alcotest.(check int) "all events committed" 5
                stats.Group_commit.events))

(* Send every line, then read one reply per line. *)
let pipeline oc ic lines =
  List.iter
    (fun line ->
      output_string oc line;
      output_char oc '\n')
    lines;
  flush oc;
  List.map
    (fun _ ->
      match In_channel.input_line ic with
      | Some response -> response
      | None -> Alcotest.fail "server closed the connection")
    lines

let with_durable_server ~domains f =
  let dir = temp_dir () in
  match Store.open_dir ~fsync:true dir with
  | Error m -> Alcotest.failf "open_dir: %s" m
  | Ok (store, _) ->
    Fun.protect
      ~finally:(fun () -> Store.close store)
      (fun () ->
        with_server ~store ~domains (fun server ->
            f server;
            Server.stop server;
            match Server.batch_stats server with
            | None -> Alcotest.fail "no batch stats with a store"
            | Some stats -> stats))

let test_batches_track_outstanding () =
  (* One shard, one connection: a shard that no longer waits for its own
     fsync keeps handling the pipelined requests while the previous
     batch is on its way to disk, so batches hold several requests. A
     shard that blocked until its own fsync would commit each of the 64
     sessions alone. The rules go first, in a request of their own, so
     the counts below are the sessions' alone. *)
  let before = ref None in
  let stats =
    with_durable_server ~domains:1 (fun server ->
        let fd, ic, oc = connect (Server.port server) in
        Fun.protect
          ~finally:(fun () -> Unix.close fd)
          (fun () ->
            let r =
              request oc ic
                {|{"pet":1,"id":"rules","method":"publish_rules","params":{"source":"running"}}|}
            in
            let digest =
              match path (json_of r) [ "ok"; "digest" ] with
              | Pet_pet.Json.String d -> d
              | _ -> Alcotest.failf "no digest in %s" r
            in
            before := Server.batch_stats server;
            let replies =
              pipeline oc ic
                (List.init 64 (fun i ->
                     Printf.sprintf
                       {|{"pet":1,"id":%d,"method":"new_session","params":{"digest":"%s"}}|}
                       i digest))
            in
            List.iteri
              (fun i r ->
                Alcotest.(check bool)
                  (Printf.sprintf "reply %d in request order" i)
                  true
                  (contains r (Printf.sprintf {|"id":%d,|} i) && contains r {|"ok"|}))
              replies))
  in
  let before =
    match !before with
    | Some b -> b
    | None -> Alcotest.fail "no batch stats with a store"
  in
  Alcotest.(check int) "the rules alone before" 1 before.Group_commit.events;
  let batches = stats.Group_commit.batches - before.Group_commit.batches in
  Alcotest.(check int) "session events" 64
    (stats.Group_commit.events - before.Group_commit.events);
  Alcotest.(check bool)
    (Printf.sprintf "a batch held several sessions (max %d)"
       stats.Group_commit.max_batch)
    true
    (stats.Group_commit.max_batch > 1);
  Alcotest.(check bool)
    (Printf.sprintf "fewer batches (%d) than sessions" batches)
    true (batches < 64)

(* Send [n] lines ([line i], i from 1) on a connection from a thread of
   their own while counting the ok replies; a reply that does not come
   within 20 s ends the count (a read past [SO_RCVTIMEO] raises
   [Sys_blocked_io]). *)
let pipeline_far (fd, ic, oc) n line =
  Unix.setsockopt_float fd SO_RCVTIMEO 20.;
  Unix.setsockopt_float fd SO_SNDTIMEO 20.;
  let sender =
    Thread.create
      (fun () ->
        try
          for i = 1 to n do
            output_string oc (line i);
            output_char oc '\n'
          done;
          flush oc
        with Sys_error _ -> ())
      ()
  in
  let answered = ref 0 in
  (try
     for _ = 1 to n do
       match In_channel.input_line ic with
       | Some r when contains r {|"ok"|} -> incr answered
       | _ -> ()
     done
   with Sys_error _ | Sys_blocked_io -> ());
  Thread.join sender;
  !answered

let test_pipelined_across_shards () =
  (* Connections keep far more requests in flight than their outstanding
     budget, over two shards. The owner stops reading a connection at
     the budget and must move on whenever a reply frees a slot, whichever
     shard ran the line and whichever committed it. A lost wake-up leaves
     the owner asleep with requests unread: a read below times out, or
     the shard cannot be woken to stop. *)
  let n = 10000 in
  let create i =
    Printf.sprintf {|{"pet":1,"id":%d,"method":"new_session","params":{"source":"running"}}|} i
  in
  let publish conn =
    let _, ic, oc = conn in
    ignore
      (request oc ic
         {|{"pet":1,"id":"rules","method":"publish_rules","params":{"source":"running"}}|})
  in
  let with_two server f =
    let a = connect (Server.port server) and b = connect (Server.port server) in
    Fun.protect ~finally:(fun () -> List.iter (fun (fd, _, _) -> Unix.close fd) [ a; b ]) (fun () ->
        publish a;
        f a b)
  in
  (* One connection: every other line is a report on a session of the
     other shard, whose reply comes back through the owner's inbox. *)
  ignore
    (with_durable_server ~domains:2 (fun server ->
         with_two server (fun a (_, ic, oc) ->
             let remote = session_of (request oc ic new_session_line) in
             Alcotest.(check int) "a session of the other shard" 1
               (Shard_map.owner ~shards:2 remote);
             Alcotest.(check int) "every pipelined request answered" n
               (pipeline_far a n (fun i ->
                    if i mod 2 = 0 then report_line ~id:(string_of_int i) remote else create i)))));
  (* Two connections, one per shard, at once: each shard's replies are
     often made durable by the other shard's commit, so the reply that
     frees a slot is written in a round that has already moved its
     connections on. *)
  ignore
    (with_durable_server ~domains:2 (fun server ->
         with_two server (fun a b ->
             let answered = Array.make 2 0 in
             List.iter Thread.join
               (List.mapi
                  (fun k conn -> Thread.create (fun () -> answered.(k) <- pipeline_far conn n create) ())
                  [ a; b ]);
             Alcotest.(check (array int)) "every pipelined request answered, both connections"
               [| n; n |] answered)))

(* The bytes of every file under [dir], as they are this moment. *)
let copy_files dir =
  Sys.readdir dir |> Array.to_list
  |> List.map (fun file ->
         (file, In_channel.with_open_bin (Filename.concat dir file) In_channel.input_all))

(* Every [Session_created] a recovery would replay from [files]. *)
let logged_sessions files =
  let dir = temp_dir () in
  Sys.mkdir dir 0o755;
  List.iter
    (fun (file, bytes) ->
      Out_channel.with_open_bin (Filename.concat dir file) (fun oc ->
          output_string oc bytes))
    files;
  let recovered = Store.read dir in
  List.iter (fun (file, _) -> Sys.remove (Filename.concat dir file)) files;
  Sys.rmdir dir;
  match recovered with
  | Error m -> Alcotest.failf "read: %s" m
  | Ok recovery ->
    List.filter_map
      (function
        | Persist.Session_created { id; tenant; _ } -> Some (id, tenant)
        | _ -> None)
      recovery.Store.events

let test_no_reply_before_durable () =
  (* Writes and cross-shard reads pipelined on four connections over two
     shards: sessions opened by digest and by tenant, and the tenant's
     session count read through [tenant] and [stats] — a count another
     shard's write can raise. The moment each reply arrives, the client
     copies the log's files; a recovery from that copy must replay every
     session the reply names, and at least as many of the tenant's
     sessions as it counts. *)
  let dir = temp_dir () in
  let seen = ref [] and sm = Mutex.create () in
  (match Store.open_dir ~fsync:true dir with
  | Error m -> Alcotest.failf "open_dir: %s" m
  | Ok (store, _) ->
    Fun.protect
      ~finally:(fun () -> Store.close store)
      (fun () ->
        with_server ~store ~domains:2 (fun server ->
            let digest =
              let fd, ic, oc = connect (Server.port server) in
              Fun.protect
                ~finally:(fun () -> Unix.close fd)
                (fun () ->
                  ignore
                    (request oc ic
                       {|{"pet":1,"id":1,"method":"publish_rules","params":{"source":"running","tenant":"acme"}}|});
                  let r =
                    request oc ic
                      {|{"pet":1,"id":2,"method":"tenant","params":{"name":"acme","wait":true}}|}
                  in
                  match path (json_of r) [ "ok"; "digest" ] with
                  | Pet_pet.Json.String d -> d
                  | _ -> Alcotest.failf "no digest in %s" r)
            in
            let client c =
              let fd, ic, oc = connect (Server.port server) in
              Fun.protect
                ~finally:(fun () -> Unix.close fd)
                (fun () ->
                  let line i =
                    let id = (100 * c) + i in
                    match i mod 4 with
                    | 0 ->
                      Printf.sprintf
                        {|{"pet":1,"id":%d,"method":"new_session","params":{"digest":"%s"}}|}
                        id digest
                    | 1 ->
                      Printf.sprintf
                        {|{"pet":1,"id":%d,"method":"new_session","params":{"tenant":"acme"}}|}
                        id
                    | 2 ->
                      Printf.sprintf
                        {|{"pet":1,"id":%d,"method":"tenant","params":{"name":"acme"}}|}
                        id
                    | _ -> Printf.sprintf {|{"pet":1,"id":%d,"method":"stats"}|} id
                  in
                  let lines = List.init 48 line in
                  List.iter
                    (fun line ->
                      output_string oc line;
                      output_char oc '\n')
                    lines;
                  flush oc;
                  List.iter
                    (fun _ ->
                      match In_channel.input_line ic with
                      | Some r ->
                        let files = copy_files dir in
                        Mutex.protect sm (fun () -> seen := (r, files) :: !seen)
                      | None -> ())
                    lines)
            in
            List.iter Thread.join (List.init 4 (fun c -> Thread.create client c)))));
  Alcotest.(check int) "every reply seen" (4 * 48) (List.length !seen);
  List.iter
    (fun (r, files) ->
      let ok =
        match Pet_pet.Json.member "ok" (json_of r) with
        | Some ok -> ok
        | None -> Alcotest.failf "failed: %s" r
      in
      let logged = logged_sessions files in
      match Pet_pet.Json.member "session" ok with
      | Some (Pet_pet.Json.String id) ->
        if not (List.mem_assoc id logged) then
          Alcotest.failf "session %s acknowledged before it was logged" id
      | _ ->
        let counted =
          match Pet_pet.Json.member "tenants" ok with
          | Some tenants -> int_at tenants [ "by_tenant"; "acme"; "sessions_created" ]
          | None -> int_at ok [ "sessions"; "created" ]
        in
        let on_disk =
          List.length (List.filter (fun (_, tenant) -> tenant = Some "acme") logged)
        in
        if on_disk < counted then
          Alcotest.failf "a reply counted %d acme sessions, the log held %d: %s"
            counted on_disk r)
    !seen

let test_wal_failure_answers_held () =
  (* Once an append fails, nothing past the durable frontier is
     acknowledged: every held reply gets the [internal] error and the
     server takes the fatal path. The log's directory vanishing makes
     the writer's next segment open fail. *)
  let dir = temp_dir () in
  match Store.open_dir ~fsync:true dir with
  | Error m -> Alcotest.failf "open_dir: %s" m
  | Ok (store, _) ->
    let server = tcp_server ~store ~domains:1 () in
    running server (fun ~finished ->
        let fd, ic, oc = connect (Server.port server) in
        Fun.protect
          ~finally:(fun () -> Unix.close fd)
          (fun () ->
            let r =
              request oc ic
                {|{"pet":1,"id":1,"method":"publish_rules","params":{"source":"running"}}|}
            in
            Alcotest.(check bool) "publish ok" true (contains r {|"ok"|});
            Store.close store;
            Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
            Sys.rmdir dir;
            let replies =
              pipeline oc ic
                (List.init 3 (fun i ->
                     Printf.sprintf
                       {|{"pet":1,"id":%d,"method":"new_session","params":{"source":"running"}}|}
                       (i + 2)))
            in
            List.iter
              (fun r ->
                Alcotest.(check bool) ("internal error: " ^ r) true
                  (contains r {|"code":"internal"|}
                  && contains r "write-ahead log failure"))
              replies;
            match finished ~within:10. with
            | Some (Error m) ->
              Alcotest.(check bool) "fatal reason" true
                (contains m "write-ahead log failure")
            | Some (Ok ()) -> Alcotest.fail "run returned Ok after a WAL failure"
            | None -> Alcotest.fail "run did not return after a WAL failure"))

let test_cross_shard_rules () =
  (* One client publishes once; sessions land on whichever shard owns
     their id and every shard can serve them — the canonical text is
     shared even though each shard compiles its own engine. The creates
     go over four connections, one per shard; every report goes over
     the first, so most of them cross shards. *)
  with_server (fun server ->
      with_conns server 4 (fun call ->
          let r =
            call 0 {|{"pet":1,"id":0,"method":"publish_rules","params":{"source":"running"}}|}
          in
          Alcotest.(check bool) "publish ok" true (contains r {|"ok"|});
          let shards_hit = Hashtbl.create 4 in
          for i = 1 to 12 do
            let r =
              call (i mod 4)
                (Printf.sprintf
                   {|{"pet":1,"id":%d,"method":"new_session","params":{"source":"running"}}|}
                   i)
            in
            let sid = session_of r in
            Hashtbl.replace shards_hit (Shard_map.owner ~shards:4 sid) ();
            let report =
              call 0
                (Printf.sprintf
                   {|{"pet":1,"id":%d,"method":"get_report","params":{"session":"%s","valuation":"101"}}|}
                   (100 + i) sid)
            in
            Alcotest.(check bool)
              (sid ^ " served by its shard")
              true
              (contains report {|"ok"|})
          done;
          (* 12 sessionless creates over four connections, one per
             shard, touch every shard. *)
          Alcotest.(check int) "all shards minted sessions" 4
            (Hashtbl.length shards_hit)))

let test_sessionless_on_own_shard () =
  (* A line that names no session runs on its connection's shard, so
     every create on the k-th connection mints an id that shard k mod N
     owns. Two creates per connection, so that dealing lines to the
     shards in turn, rather than by connection, fails. *)
  List.iter
    (fun domains ->
      with_server ~domains (fun server ->
          with_conns server (2 * domains) (fun call ->
              for k = 0 to (2 * domains) - 1 do
                for _ = 1 to 2 do
                  let sid = session_of (call k new_session_line) in
                  Alcotest.(check int)
                    (Printf.sprintf "%d domains, connection %d: %s" domains k sid)
                    (k mod domains)
                    (Shard_map.owner ~shards:domains sid)
                done
              done)))
    [ 2; 4 ]

let test_cross_shard_reply () =
  (* Connection B pipelines 100 creates for its own shard, then 20
     reports on a session of connection A's shard, then ends its input.
     The reports run on A's shard and reach B through B's owner; B is
     closed only once every reply, the last report's too, is written.
     With and without a data dir, so replies are held on both shards. *)
  List.iter
    (fun durable ->
      with_data_dir durable (fun store recovery ->
          with_server ?store ?recovery ~domains:2 (fun server ->
              let a_fd, a_ic, a_oc = connect (Server.port server) in
              let b_fd, b_ic, b_oc = connect (Server.port server) in
              Unix.setsockopt_float b_fd SO_RCVTIMEO 20.;
              Fun.protect
                ~finally:(fun () -> List.iter Unix.close [ a_fd; b_fd ])
                (fun () ->
                  let sid = session_of (request a_oc a_ic new_session_line) in
                  Alcotest.(check int) "minted on A's shard" 0 (Shard_map.owner ~shards:2 sid);
                  let reports = List.init 20 (fun i -> report_line ~id:(Printf.sprintf "cross%d" i) sid) in
                  List.iter
                    (fun line ->
                      output_string b_oc line;
                      output_char b_oc '\n')
                    (List.init 100 (fun _ -> new_session_line) @ reports);
                  flush b_oc;
                  Unix.shutdown b_fd SHUTDOWN_SEND;
                  let replies =
                    String.split_on_char '\n' (In_channel.input_all b_ic)
                    |> List.filter (fun l -> l <> "")
                  in
                  Alcotest.(check int) "every reply before the close" 120 (List.length replies);
                  Alcotest.(check int) "every reply ok" 120
                    (List.length (List.filter (fun r -> contains r {|"ok"|}) replies));
                  for i = 0 to 19 do
                    let id = Printf.sprintf {|"id":"cross%d"|} i in
                    Alcotest.(check bool) (id ^ " written") true
                      (List.exists (fun r -> contains r id) replies)
                  done))))
    [ false; true ]

(* --- Sweep fairness ---------------------------------------------------------------- *)

let test_sweep_fairness () =
  (* A hot shard with many expired sessions cannot starve another
     shard's TTL expiry: each shard sweeps its own sessions on its own
     tick, and each tick's work is bounded by the budget. *)
  let clock = ref 0. in
  let now () = !clock in
  let shards = 2 in
  let shared = Shared.create () in
  let service index =
    Service.create ~resolve
      ~owns:(fun id -> Shard_map.owner ~shards id = index)
      ~shared ~ttl:10. ~now ()
  in
  let hot = service 0 and cold = service 1 in
  let create service n =
    for _ = 1 to n do
      ignore
        (Service.handle_line service
           {|{"pet":1,"id":1,"method":"new_session","params":{"source":"running"}}|})
    done
  in
  ignore
    (Service.handle_line hot
       {|{"pet":1,"id":0,"method":"publish_rules","params":{"source":"running"}}|});
  create hot 100;
  create cold 3;
  clock := 1000.;
  (* the cold shard expires everything in one bounded tick, regardless
     of the hot shard's backlog *)
  let swept_cold = Service.sweep_tick ~budget:8 cold in
  Alcotest.(check int) "cold shard fully swept" 3 swept_cold;
  Alcotest.(check int) "cold shard empty"
    0 (Service.session_counters cold).Session.active;
  (* the hot shard needs several bounded ticks — each one makes
     progress and none exceeds its budget *)
  let rec drain ticks total =
    let swept = Service.sweep_tick ~budget:8 hot in
    if swept > 8 then Alcotest.failf "tick swept %d > budget" swept;
    if (Service.session_counters hot).Session.active = 0 then
      (ticks + 1, total + swept)
    else if ticks > 100 then Alcotest.fail "hot shard never drained"
    else drain (ticks + 1) (total + swept)
  in
  let ticks, total = drain 0 0 in
  Alcotest.(check int) "hot shard fully swept" 100 total;
  Alcotest.(check bool) "took multiple bounded ticks" true (ticks > 1);
  (* counters stay coherent when summed across shards *)
  let sum f =
    f (Service.session_counters hot) + f (Service.session_counters cold)
  in
  Alcotest.(check int) "created summed" 103 (sum (fun c -> c.Session.created));
  Alcotest.(check int) "expired summed" 103 (sum (fun c -> c.Session.expired));
  Alcotest.(check int) "active summed" 0 (sum (fun c -> c.Session.active))

(* --- Compaction under TCP ---------------------------------------------------------- *)

let logical_clock () =
  let tick = Atomic.make 0 in
  fun () -> float_of_int (Atomic.fetch_and_add tick 1 + 1)

let test_tcp_compaction () =
  (* Tiny segments and a two-segment threshold: the committing shard
     must compact between batches, so a long-running server keeps a bounded
     directory and a restart replays a bounded log, whatever it served.
     Sessions idle past the ttl are what compaction drops; grants are
     kept. *)
  let dir = temp_dir () in
  let auto = 2 in
  let open_store () =
    match
      Store.open_dir ~segment_bytes:2048 ~auto_compact_segments:auto
        ~fsync:false dir
    with
    | Ok pair -> pair
    | Error m -> Alcotest.failf "open_dir: %s" m
  in
  let most_files = ref 0 in
  let serve ?(submit = 0) sessions =
    let store, recovery = open_store () in
    Fun.protect
      ~finally:(fun () -> Store.close store)
      (fun () ->
        with_server ~store ~recovery ~ttl:50. ~domains:2 ~now:(logical_clock ())
          (fun server ->
            let fd, ic, oc = connect (Server.port server) in
            Fun.protect
              ~finally:(fun () -> Unix.close fd)
              (fun () ->
                let call line =
                  let response = request oc ic line in
                  most_files := max !most_files (Array.length (Sys.readdir dir));
                  if not (contains response {|"ok"|}) then
                    Alcotest.failf "%s -> %s" line response;
                  response
                in
                ignore
                  (call
                     {|{"pet":1,"id":0,"method":"publish_rules","params":{"source":"running"}}|});
                for i = 1 to sessions do
                  let sid =
                    session_of
                      (call
                         {|{"pet":1,"id":1,"method":"new_session","params":{"source":"running"}}|})
                  in
                  ignore
                    (call
                       (Printf.sprintf
                          {|{"pet":1,"id":2,"method":"get_report","params":{"session":"%s","valuation":"101"}}|}
                          sid));
                  ignore
                    (call
                       (Printf.sprintf
                          {|{"pet":1,"id":3,"method":"choose_option","params":{"session":"%s","option":0}}|}
                          sid));
                  if i <= submit then
                    ignore
                      (call
                         (Printf.sprintf
                            {|{"pet":1,"id":4,"method":"submit_form","params":{"session":"%s"}}|}
                            sid))
                done;
                call {|{"pet":1,"id":5,"method":"stats"}|})))
  in
  let ledger_of stats =
    match Pet_pet.Json.parse stats with
    | Ok json ->
      Pet_pet.Json.to_string
        (Option.get
           (Pet_pet.Json.member "ledger"
              (Option.get (Pet_pet.Json.member "ok" json))))
    | Error m -> Alcotest.failf "stats: %s" m
  in
  let replayed () =
    let store, recovery = open_store () in
    Store.close store;
    recovery.Store.records
  in
  let served = serve ~submit:5 300 in
  let after_first = replayed () in
  let restarted = serve 0 in
  Alcotest.(check string) "the restarted server keeps the archive"
    (ledger_of served) (ledger_of restarted);
  ignore (serve 300);
  let after_second = replayed () in
  Alcotest.(check bool)
    (Printf.sprintf "at most %d files at any reply (saw %d)" (auto + 2)
       !most_files)
    true
    (!most_files <= auto + 2);
  (* 300 sessions log 600+ events; the live state plus the tail
     segments is far less, and serving 300 more does not grow it. *)
  Alcotest.(check bool)
    (Printf.sprintf "replay bounded (%d records)" after_first)
    true (after_first < 200);
  Alcotest.(check bool)
    (Printf.sprintf "replay bounded after 300 more sessions (%d then %d records)"
       after_first after_second)
    true
    (after_second < 200);
  match Pet_audit.Audit.run dir with
  | Error m -> Alcotest.fail m
  | Ok report ->
    Alcotest.(check bool)
      (Format.asprintf "audit passes: %a" Pet_audit.Audit.pp report)
      true (Pet_audit.Audit.pass report)

let test_compaction_keeps_read_sessions () =
  (* A report read keeps a session alive in memory but logs nothing, so
     the log alone makes it look idle. Compaction must keep it anyway:
     its later choice and submission name it, and a restart must replay
     them. *)
  let dir = temp_dir () in
  let open_store () =
    match
      Store.open_dir ~segment_bytes:512 ~auto_compact_segments:1 ~fsync:false
        dir
    with
    | Ok pair -> pair
    | Error m -> Alcotest.failf "open_dir: %s" m
  in
  let clock = ref 0. in
  let store, recovery = open_store () in
  Fun.protect
    ~finally:(fun () -> Store.close store)
    (fun () ->
      with_server ~store ~recovery ~ttl:100. ~domains:1
        ~now:(fun () -> !clock)
        (fun server ->
          let fd, ic, oc = connect (Server.port server) in
          Fun.protect
            ~finally:(fun () -> Unix.close fd)
            (fun () ->
              let call line =
                let response = request oc ic line in
                if not (contains response {|"ok"|}) then
                  Alcotest.failf "%s -> %s" line response
              in
              let new_session () =
                session_of
                  (request oc ic
                     {|{"pet":1,"id":1,"method":"new_session","params":{"source":"running"}}|})
              in
              call
                {|{"pet":1,"id":0,"method":"publish_rules","params":{"source":"running"}}|};
              let sid = new_session () in
              clock := 60.;
              call
                (Printf.sprintf
                   {|{"pet":1,"id":2,"method":"get_report","params":{"session":"%s","valuation":"101"}}|}
                   sid);
              (* Sessions opened at 120 move the log's clock 120s past
                 the read session's last logged event (ttl 100), and
                 seal segments until a committing shard compacts. *)
              clock := 120.;
              let compacted () =
                Array.exists
                  (fun f -> String.length f > 5 && String.sub f 0 5 = "snap-")
                  (Sys.readdir dir)
              in
              let rec fill n =
                if n > 500 then Alcotest.fail "the log was never compacted"
                else if not (compacted ()) then begin
                  ignore (new_session ());
                  fill (n + 1)
                end
              in
              fill 0;
              call
                (Printf.sprintf
                   {|{"pet":1,"id":3,"method":"choose_option","params":{"session":"%s","option":0}}|}
                   sid);
              call
                (Printf.sprintf
                   {|{"pet":1,"id":4,"method":"submit_form","params":{"session":"%s"}}|}
                   sid))));
  let store, recovery = open_store () in
  Store.close store;
  let service = Service.create ~durable:true ~resolve ~now:(fun () -> 130.) () in
  let errors =
    List.filter_map
      (fun event -> Result.fold ~ok:(fun () -> None) ~error:Option.some
          (Service.apply_event service event))
      recovery.Store.events
  in
  Alcotest.(check (list string)) "no replay errors" [] errors;
  match Pet_audit.Audit.run dir with
  | Error m -> Alcotest.fail m
  | Ok report ->
    Alcotest.(check bool)
      (Format.asprintf "audit passes: %a" Pet_audit.Audit.pp report)
      true (Pet_audit.Audit.pass report)

(* --- Accounting across shards ------------------------------------------------------- *)

let test_accounting_across_shards () =
  (* Two shards and four concurrent clients across methods and tenants:
     the merged metrics count exactly what was sent, the SLO windows
     agree with them, and the shards' own stats sum to the same
     totals. *)
  with_server ~domains:2 (fun server ->
      let port = Server.port server in
      let fd, ic, oc = connect port in
      Fun.protect
        ~finally:(fun () -> Unix.close fd)
        (fun () ->
          let call line = request oc ic line in
          List.iter
            (fun line -> ignore (call line))
            [
              {|{"pet":1,"id":0,"method":"publish_rules","params":{"source":"running","tenant":"acme"}}|};
              {|{"pet":1,"id":0,"method":"publish_rules","params":{"source":"running","tenant":"beta"}}|};
              {|{"pet":1,"id":0,"method":"tenant","params":{"name":"acme","wait":true}}|};
              {|{"pet":1,"id":0,"method":"tenant","params":{"name":"beta","wait":true}}|};
            ];
          (* Per client: 7 requests, 2 errors; 5 of them (1 error)
             attributed to its tenant. *)
          let client tenant () =
            let fd, ic, oc = connect port in
            Fun.protect
              ~finally:(fun () -> Unix.close fd)
              (fun () ->
                let call fmt = Printf.ksprintf (request oc ic) fmt in
                let sid =
                  session_of
                    (call
                       {|{"pet":1,"id":1,"method":"new_session","params":{"tenant":"%s"}}|}
                       tenant)
                in
                List.iter
                  (fun (line, ok) ->
                    let response = line () in
                    if contains response {|"ok"|} <> ok then
                      Alcotest.failf "unexpected reply %s" response)
                  [
                    ( (fun () ->
                        call
                          {|{"pet":1,"id":2,"method":"get_report","params":{"session":"%s","valuation":"101"}}|}
                          sid),
                      true );
                    ( (fun () ->
                        call
                          {|{"pet":1,"id":3,"method":"choose_option","params":{"session":"%s","option":0}}|}
                          sid),
                      true );
                    ( (fun () ->
                        call
                          {|{"pet":1,"id":4,"method":"choose_option","params":{"session":"%s","option":0}}|}
                          sid),
                      false );
                    ( (fun () ->
                        call
                          {|{"pet":1,"id":5,"method":"submit_form","params":{"session":"%s"}}|}
                          sid),
                      true );
                    ( (fun () ->
                        call
                          {|{"pet":1,"id":6,"method":"get_report","params":{"session":"nope","valuation":"101"}}|}),
                      false );
                    ((fun () -> call {|{"pet":1,"id":7,"method":"stats"}|}), true);
                  ])
          in
          List.iter Thread.join
            (List.map
               (fun tenant -> Thread.create (client tenant) ())
               [ "acme"; "beta"; "acme"; "beta" ]);
          let sent = 4 + (4 * 7) and errors = 4 * 2 in
          let metrics = json_of (call {|{"pet":1,"id":8,"method":"metrics"}|}) in
          let counter name = int_at metrics [ "ok"; "counters"; name ] in
          let gauge name = int_at metrics [ "ok"; "gauges"; name ] in
          (* The metrics request counts itself on arrival, not yet as
             answered. *)
          Alcotest.(check int) "requests" (sent + 1)
            (counter "pet_server_requests_total");
          Alcotest.(check int) "per-domain requests" (sent + 1)
            (counter {|pet_net_shard_requests_total{domain="0"}|}
            + counter {|pet_net_shard_requests_total{domain="1"}|});
          Alcotest.(check int) "errors" errors (counter "pet_server_errors_total");
          List.iter
            (fun tenant ->
              let label = Printf.sprintf {|{tenant="%s"}|} tenant in
              Alcotest.(check int) (tenant ^ " requests") 11
                (counter ("pet_tenant_requests_total" ^ label));
              Alcotest.(check int) (tenant ^ " errors") 2
                (counter ("pet_tenant_errors_total" ^ label));
              Alcotest.(check int) (tenant ^ " latency count") 11
                (int_at metrics
                   [ "ok"; "histograms"; "pet_tenant_request_seconds" ^ label; "count" ]);
              Alcotest.(check int) (tenant ^ " slo window") 11
                (gauge (Printf.sprintf {|pet_slo_window_requests{slo="tenant:%s"}|} tenant)))
            [ "acme"; "beta" ];
          let answered =
            fold_obj (path metrics [ "ok"; "histograms" ])
              (fun name h n ->
                if String.starts_with ~prefix:"pet_server_request_seconds" name
                then n + int_at h [ "count" ]
                else n)
              0
          in
          Alcotest.(check int) "answered, by method" sent answered;
          let windowed =
            fold_obj (path metrics [ "ok"; "gauges" ])
              (fun name v n ->
                if String.starts_with ~prefix:"pet_slo_window_requests" name
                   && not (contains name "tenant:")
                then n + int_at v []
                else n)
              0
          in
          Alcotest.(check int) "slo windows, by method" sent windowed;
          (* Two sessionless requests on connections of both shards (the
             sixth connection accepted is dealt to shard 1); each answers
             from its own set only. *)
          let stats_line = {|{"pet":1,"id":9,"method":"stats"}|} in
          let stats =
            List.map
              (fun reply -> path (json_of reply) [ "ok"; "requests" ])
              [
                call stats_line;
                (let fd, ic, oc = connect port in
                 Fun.protect ~finally:(fun () -> Unix.close fd) (fun () -> request oc ic stats_line));
              ]
          in
          let sum f = List.fold_left (fun n s -> n + f s) 0 stats in
          let by_method field s =
            fold_obj (path s [ "by_method" ]) (fun _ m n -> n + int_at m [ field ]) 0
          in
          Alcotest.(check int) "stats totals" (sent + 3) (sum (fun s -> int_at s [ "total" ]));
          Alcotest.(check int) "stats counts" (sent + 1) (sum (by_method "count"));
          Alcotest.(check int) "stats errors" errors (sum (by_method "errors"))))

let test_gauges_across_shards () =
  (* Six sessions over two shards, created and scraped in turn over two
     connections, one per shard: every scrape, whichever shard answers
     it, shows the process-wide session and registry counters. *)
  with_server ~domains:2 (fun server ->
      with_conns server 2 (fun call ->
          ignore
            (call 0
               {|{"pet":1,"id":0,"method":"publish_rules","params":{"source":"running"}}|});
          for i = 1 to 6 do
            ignore (call (i mod 2) new_session_line)
          done;
          let scrapes =
            List.init 4 (fun i ->
                let metrics = json_of (call (i mod 2) {|{"pet":1,"id":2,"method":"metrics"}|}) in
                let gauge name = int_at metrics [ "ok"; "gauges"; name ] in
                ( gauge "pet_sessions_created",
                  gauge "pet_sessions_active",
                  gauge "pet_registry_hits",
                  gauge "pet_registry_misses" ))
          in
          List.iter
            (fun (created, active, hits, misses) ->
              Alcotest.(check int) "sessions created" 6 created;
              Alcotest.(check int) "sessions active" 6 active;
              (* The publish and six sessions look the rule set up: one
                 miss per shard, a hit for every other lookup. *)
              Alcotest.(check int) "registry lookups" 7 (hits + misses);
              Alcotest.(check int) "registry misses" 2 misses)
            scrapes))

(* --- Watch on both transports ------------------------------------------------------- *)

let watch_line frames =
  Printf.sprintf
    {|{"pet":1,"id":"w","method":"watch","params":{"frames":%d,"interval":0.01}}|}
    frames

let stats_line = {|{"pet":1,"id":"after","method":"stats"}|}
let is_frame line = contains line {|"ok":{"watch"|}

(* A server at two domains whose first connection watches and whose
   second, dealt to the other shard, mints a session there: [f] gets the
   first connection and a line on that session, which runs on another
   shard than the watch. *)
let with_watch_and_remote f =
  with_server ~domains:2 (fun server ->
      let fd, ic, oc = connect (Server.port server) in
      Fun.protect
        ~finally:(fun () -> Unix.close fd)
        (fun () ->
          let sid =
            let fd, ic, oc = connect (Server.port server) in
            Fun.protect ~finally:(fun () -> Unix.close fd) (fun () ->
                session_of (request oc ic new_session_line))
          in
          Alcotest.(check int) "a session of the other shard" 1 (Shard_map.owner ~shards:2 sid);
          f fd ic oc (report_line ~id:"after" sid)))

let test_tcp_watch_then_request () =
  (* Pipelined in one write: the report runs on another shard than the
     watch, yet is answered only after the watch's last frame. *)
  with_watch_and_remote (fun _ ic oc after_line ->
      output_string oc (watch_line 3 ^ "\n" ^ after_line ^ "\n");
      flush oc;
      let lines = List.init 4 (fun _ -> Option.get (In_channel.input_line ic)) in
      Alcotest.(check (list bool)) "three frames, then the report"
        [ true; true; true; false ] (List.map is_frame lines);
      Alcotest.(check bool) "report answered last" true
        (contains (List.nth lines 3) {|"id":"after"|}));
  (* Unbounded: the line after the watch is held until the client's EOF
     ends the stream, then answered after the last frame. *)
  with_watch_and_remote (fun fd ic oc after_line ->
      output_string oc (watch_line 0 ^ "\n" ^ after_line ^ "\n");
      flush oc;
      Alcotest.(check bool) "streaming" true (is_frame (Option.get (In_channel.input_line ic)));
      Unix.shutdown fd Unix.SHUTDOWN_SEND;
      let rec after_frames n =
        match In_channel.input_line ic with
        | Some line when is_frame line ->
          if n > 1000 then Alcotest.fail "EOF never ended the stream";
          after_frames (n + 1)
        | other -> other
      in
      let reply = after_frames 0 in
      Alcotest.(check bool) "report answered after the last frame" true
        (match reply with Some l -> contains l {|"id":"after"|} | None -> false);
      Alcotest.(check (option string)) "then the server closes" None (In_channel.input_line ic))

(* A stdio server over pipes: [feed] writes request lines, [close]
   sends EOF, [read] takes one response line; [finished] polls whether
   {!Server.run} has returned. *)
let with_stdio_server ?store ?recovery f =
  let req_r, req_w = Unix.pipe ~cloexec:true () in
  let resp_r, resp_w = Unix.pipe ~cloexec:true () in
  let server_in = Unix.in_channel_of_descr req_r in
  let server_out = Unix.out_channel_of_descr resp_w in
  let feed = Unix.out_channel_of_descr req_w in
  let responses = Unix.in_channel_of_descr resp_r in
  match
    Server.start ~resolve ?store ?recovery ~sweep_interval:0. ~domains:1
      ~listen:(Stdio (server_in, server_out)) ~now:Unix.gettimeofday ()
  with
  | Error m -> Alcotest.failf "server start: %s" m
  | Ok server ->
    Fun.protect
      ~finally:(fun () ->
        List.iter close_in_noerr [ server_in; responses ];
        List.iter close_out_noerr [ server_out; feed ])
      (fun () ->
        running server @@ fun ~finished ->
        f
          ~feed:(fun line -> output_string feed line; flush feed)
          ~close:(fun () -> close_out feed)
          ~read:(fun () -> Option.get (In_channel.input_line responses))
          ~finished
          ~rest:(fun () ->
            (* Stop the server and close its side: every line it wrote
               and nothing more. *)
            Server.stop server;
            close_out_noerr server_out;
            In_channel.input_all responses))

(* [with_stdio_server] for the callers that feed whole lines. *)
let with_stdio_lines f =
  with_stdio_server (fun ~feed ~close ~read ~finished ~rest:_ ->
      f ~feed:(fun line -> feed (line ^ "\n")) ~close ~read ~finished)

let test_stdio_watch_then_request () =
  with_stdio_lines (fun ~feed ~close ~read ~finished ->
      feed (watch_line 2);
      feed stats_line;
      close ();
      let lines = List.init 3 (fun _ -> read ()) in
      Alcotest.(check (list bool)) "two frames, then the stats reply"
        [ true; true; false ] (List.map is_frame lines);
      Alcotest.(check bool) "EOF ends the server" true
        (finished ~within:10. = Some (Ok ())))

let test_stdio_unbounded_watch_stops_at_eof () =
  with_stdio_lines (fun ~feed ~close ~read ~finished ->
      feed (watch_line 0);
      Alcotest.(check bool) "first frame" true (is_frame (read ()));
      Alcotest.(check bool) "second frame" true (is_frame (read ()));
      Alcotest.(check bool) "still streaming" true (finished ~within:0.05 = None);
      close ();
      Alcotest.(check bool) "stdin EOF ends the stream and the server" true
        (finished ~within:10. = Some (Ok ())));
  (* A line after the unbounded watch is held until EOF ends the stream,
     then answered after its last frame. *)
  with_stdio_lines (fun ~feed ~close ~read ~finished ->
      feed (watch_line 0);
      feed stats_line;
      Alcotest.(check bool) "streaming" true (is_frame (read ()));
      close ();
      let rec after_frames n =
        let line = read () in
        if not (is_frame line) then line
        else if n > 1000 then Alcotest.fail "EOF never ended the stream"
        else after_frames (n + 1)
      in
      Alcotest.(check bool) "stats answered after the last frame" true
        (contains (after_frames 0) {|"id":"after"|});
      Alcotest.(check bool) "EOF ends the server" true
        (finished ~within:10. = Some (Ok ())))

(* --- Descriptors ------------------------------------------------------------------- *)

let selectable fd =
  match Unix.select [ fd ] [] [] 0. with
  | _ -> true
  | exception Unix.Unix_error (EINVAL, _, _) -> false

let test_descriptors_past_select () =
  (* Take every descriptor below select's limit of 1024, so the next
     accept lands past it — or, where the process may open fewer, every
     descriptor but one (for the client), so the next accept fails. *)
  with_server ~domains:1 (fun server ->
      let port = Server.port server in
      let dummies = ref [] in
      let close_dummies () =
        List.iter Unix.close !dummies;
        dummies := []
      in
      let rec fill () =
        match Unix.openfile "/dev/null" [ O_RDONLY; O_CLOEXEC ] 0 with
        | fd ->
          dummies := fd :: !dummies;
          if selectable fd then fill () else `Past_select
        | exception Unix.Unix_error ((EMFILE | ENFILE), _, _) ->
          Unix.close (List.hd !dummies);
          dummies := List.tl !dummies;
          `Full
      in
      Fun.protect ~finally:close_dummies (fun () ->
          let filled = fill () in
          let fd, ic, oc = connect port in
          Fun.protect
            ~finally:(fun () -> Unix.close fd)
            (fun () ->
              match filled with
              | `Past_select ->
                Alcotest.(check (option string)) "refused: EOF" None (In_channel.input_line ic)
              | `Full ->
                (* The accept fails while the table is full; it is
                   retried, so the request is answered once there is
                   room again. *)
                output_string oc (stats_line ^ "\n");
                flush oc;
                Unix.sleepf 0.2;
                close_dummies ();
                Alcotest.(check bool) "answered after the retry" true
                  (contains (Option.get (In_channel.input_line ic)) {|"id":"after"|})));
      (* With the descriptors back, the server still accepts. *)
      let fd, ic, oc = connect port in
      Fun.protect
        ~finally:(fun () -> Unix.close fd)
        (fun () ->
          Alcotest.(check bool) "a new connection is served" true
            (contains (request oc ic stats_line) {|"id":"after"|})))

let test_reset_with_replies_pending () =
  (* A client pipelines far more than the server can answer at once and
     resets the connection: the server's writes to it fail. That must
     cost the client its connection, not the server its life. *)
  with_server ~domains:2 (fun server ->
      let port = Server.port server in
      let fd, _, oc = connect port in
      Unix.setsockopt_float fd SO_SNDTIMEO 20.;
      (try
         for _ = 1 to 5000 do
           output_string oc stats_line;
           output_char oc '\n'
         done;
         flush oc
       with Sys_error _ -> ());
      Unix.setsockopt_optint fd SO_LINGER (Some 0);
      Unix.close fd;
      let fd, ic, oc = connect port in
      Unix.setsockopt_float fd SO_RCVTIMEO 20.;
      Fun.protect
        ~finally:(fun () -> Unix.close fd)
        (fun () ->
          Alcotest.(check bool) "a new connection is served" true
            (contains (request oc ic stats_line) {|"id":"after"|})))

(* --- Tenant builds on the shard loops --------------------------------------------- *)

module Corpus = Pet_corpus.Corpus

let envelope meth params =
  Pet_pet.Json.(
    to_string
      (Obj [ ("pet", Int 1); ("id", Int 0); ("method", String meth); ("params", Obj params) ]))

let tenant_rules (form : Corpus.form) =
  [ ("tenant", Pet_pet.Json.String form.name); ("rules", Pet_pet.Json.String form.text) ]

let test_update_lands_without_wait () =
  (* Nothing waits for the update's build: only the shard loops run it,
     so the active version moves without a barrier at any domain count. *)
  List.iter
    (fun domains ->
      with_server ~domains (fun server ->
          let fd, ic, oc = connect (Server.port server) in
          Fun.protect
            ~finally:(fun () -> Unix.close fd)
            (fun () ->
              let call meth params = json_of (request oc ic (envelope meth params)) in
              let form = Corpus.form ~seed:5 ~size:10 0 in
              let name = [ ("name", Pet_pet.Json.String form.name) ] in
              ignore (call "publish_rules" (tenant_rules form));
              ignore (call "tenant" (("wait", Pet_pet.Json.Bool true) :: name));
              ignore (call "update_rules" (tenant_rules (Corpus.update ~seed:5 form)));
              let deadline = Unix.gettimeofday () +. 10. in
              let rec poll () =
                let active = int_at (call "tenant" name) [ "ok"; "active" ] in
                if active = 1 && Unix.gettimeofday () < deadline then begin
                  Unix.sleepf 0.001;
                  poll ()
                end
                else active
              in
              Alcotest.(check int)
                (Printf.sprintf "version 2 active at %d domains" domains)
                2 (poll ()))))
    [ 1; 2 ]

let test_new_session_on_building_tenant () =
  (* One shard, and each new_session arrives while its tenant's first
     build is still queued: the shard runs the build itself rather than
     wait for a runner that is the shard. *)
  with_server ~domains:1 (fun server ->
      let fd, ic, oc = connect (Server.port server) in
      Unix.setsockopt_float fd SO_RCVTIMEO 20.;
      Fun.protect
        ~finally:(fun () -> Unix.close fd)
        (fun () ->
          for i = 0 to 49 do
            let form = Corpus.form ~seed:7 ~size:8 i in
            match
              pipeline oc ic
                [
                  envelope "publish_rules" (tenant_rules form);
                  envelope "new_session" [ ("tenant", Pet_pet.Json.String form.name) ];
                ]
            with
            | [ published; opened ] ->
              Alcotest.(check string) (form.name ^ " published") "building"
                (match path (json_of published) [ "ok"; "state" ] with
                | Pet_pet.Json.String s -> s
                | _ -> "");
              Alcotest.(check int) (form.name ^ " session on version 1") 1
                (int_at (json_of opened) [ "ok"; "version" ])
            | _ -> Alcotest.fail "two replies expected"
          done))

(* --- One stream over every transport ----------------------------------------------- *)

(* One seeded [corpus drive] stream through [call], then one request
   [last]: every (request, reply) pair, in order. The drive is lockstep
   and picks its next request from the replies, so every transport sees
   the same stream as long as it answers the same. *)
let last_line = {|{"pet":1,"id":"last","method":"stats"}|}

let drive_pairs call =
  let pairs = ref [] in
  let call line =
    let reply = call line in
    pairs := (line, reply) :: !pairs;
    reply
  in
  ignore (Pet_check.Drive.run ~seed:3 ~lo:8 ~hi:12 ~count:6 ~sessions:24 ~update_every:5 call);
  List.rev !pairs

(* What must not depend on the transport: session ids renamed by first
   appearance (a shard mints only ids it owns), trace ids dropped, and
   the bodies of [stats], [metrics] and [watch] (counters and timings)
   dropped. *)
let normalize pairs =
  let names = Hashtbl.create 64 in
  let rename id =
    match Hashtbl.find_opt names id with
    | Some n -> n
    | None ->
      let n = Printf.sprintf "S%d" (Hashtbl.length names) in
      Hashtbl.add names id n;
      n
  in
  let module Json = Pet_pet.Json in
  let rec walk = function
    | Json.Obj kvs ->
      Json.Obj
        (List.filter_map
           (fun (k, v) ->
             match (k, v) with
             | "trace", _ -> None
             | "session", Json.String id -> Some (k, Json.String (rename id))
             | _ -> Some (k, walk v))
           kvs)
    | Json.List l -> Json.List (List.map walk l)
    | v -> v
  in
  List.map
    (fun (request, reply) ->
      let request = walk (json_of request) in
      let reply = walk (json_of reply) in
      let reply =
        match (Json.member "method" request, reply) with
        | Some (Json.String ("stats" | "metrics" | "watch")), Json.Obj kvs ->
          Json.Obj (List.map (fun (k, v) -> if k = "ok" then (k, Json.Null) else (k, v)) kvs)
        | _ -> reply
      in
      Json.to_string request ^ " -> " ^ Json.to_string reply)
    pairs

let sequential_pairs () =
  let call = Service.handle_line (Service.create ~resolve ~now:Unix.gettimeofday ()) in
  drive_pairs call @ [ (last_line, call last_line) ]

(* Request i goes on connection i mod [conns]: with two, a line that
   names a session crosses shards whichever connection minted it. *)
let tcp_pairs ~domains ~durable ~conns =
  with_data_dir durable (fun store recovery ->
      with_server ?store ?recovery ~domains (fun server ->
          with_conns server conns (fun call ->
              let sent = ref 0 in
              let call line =
                incr sent;
                call (!sent mod conns) line
              in
              drive_pairs call @ [ (last_line, call last_line) ])))

(* Over stdio the stream also carries what a line splitter can get
   wrong: blank and whitespace-only lines (no reply), requests ended by
   "\r\n", and a last request with no newline before EOF. *)
let stdio_pairs ~durable =
  with_data_dir durable (fun store recovery ->
      with_stdio_server ?store ?recovery (fun ~feed ~close ~read ~finished ~rest ->
          let n = ref 0 in
          let call line =
            incr n;
            if !n mod 7 = 1 then feed "\n \t\n";
            feed (line ^ if !n mod 5 = 2 then "\r\n" else "\n");
            read ()
          in
          let pairs = drive_pairs call in
          feed last_line;
          close ();
          let last = read () in
          Alcotest.(check bool) "EOF ends the server" true (finished ~within:10. = Some (Ok ()));
          Alcotest.(check string) "nothing more" "" (rest ());
          pairs @ [ (last_line, last) ]))

let test_transport_differential () =
  let expected = normalize (sequential_pairs ()) in
  Alcotest.(check bool) "a real stream" true (List.length expected > 60);
  let check name pairs = Alcotest.(check (list string)) name expected (normalize pairs) in
  List.iter
    (fun durable ->
      let dir = if durable then " with a data dir" else "" in
      check ("stdio" ^ dir) (stdio_pairs ~durable);
      List.iter
        (fun (domains, conns) ->
          check
            (Printf.sprintf "tcp, %d domains, %d connection(s)%s" domains conns dir)
            (tcp_pairs ~domains ~durable ~conns))
        [ (1, 1); (2, 1); (4, 1); (1, 2); (2, 2); (4, 2) ])
    [ false; true ];
  (* A bare [quit] mid-stream ends the input: the lines before it are
     answered, the line after it is not, and the server ends. *)
  let first = {|{"pet":1,"id":1,"method":"publish_rules","params":{"source":"running"}}|} in
  let service = Service.create ~resolve ~now:Unix.gettimeofday () in
  let expected = normalize [ (first, Service.handle_line service first) ] in
  with_stdio_server (fun ~feed ~close:_ ~read ~finished ~rest ->
      feed (first ^ "\n quit \r\n" ^ last_line ^ "\n");
      let reply = read () in
      Alcotest.(check (list string)) "before quit" expected (normalize [ (first, reply) ]);
      Alcotest.(check bool) "quit ends the server" true (finished ~within:10. = Some (Ok ()));
      Alcotest.(check string) "nothing after quit" "" (rest ()))

(* --- One build per tenant version ----------------------------------------------------- *)

let with_metrics f =
  let was_on = Pet_obs.Metrics.enabled () in
  Pet_obs.Metrics.enable ();
  Fun.protect ~finally:(fun () -> if not was_on then Pet_obs.Metrics.disable ()) f

let provider_builds call =
  int_at
    (json_of (call 0 {|{"pet":1,"id":"m","method":"metrics"}|}))
    [ "ok"; "counters"; "pet_provider_builds_total" ]

let test_one_build_per_tenant () =
  (* Two shards whose engine caches hold two rule sets each, and 20
     tenants. Every tenant gets a session on both connections, one per
     shard, and only then a report on each, so by the time a report runs
     its shard's cache has evicted the engine. Each shard serves every
     tenant from the one artifact its build produced: 20 builds in all,
     none on a cache miss. *)
  with_metrics (fun () ->
      let server =
        match
          Server.start ~resolve ~capacity:2 ~sweep_interval:0. ~domains:2
            ~listen:(Tcp 0) ~now:Unix.gettimeofday ()
        with
        | Error m -> Alcotest.failf "server start: %s" m
        | Ok server -> server
      in
      running server (fun ~finished:_ ->
          with_conns server 2 (fun call ->
              let before = provider_builds call in
              let forms = List.init 20 (fun i -> Corpus.form ~seed:13 ~size:8 i) in
              List.iter
                (fun (form : Corpus.form) ->
                  ignore (call 0 (envelope "publish_rules" (tenant_rules form))))
                forms;
              List.iter
                (fun (form : Corpus.form) ->
                  ignore
                    (call 0
                       (envelope "tenant"
                          [
                            ("name", Pet_pet.Json.String form.name);
                            ("wait", Pet_pet.Json.Bool true);
                          ])))
                forms;
              let sessions =
                List.concat_map
                  (fun (form : Corpus.form) ->
                    List.init 2 (fun conn ->
                        let opened =
                          call conn
                            (envelope "new_session"
                               [ ("tenant", Pet_pet.Json.String form.name) ])
                        in
                        (conn, form, session_of opened)))
                  forms
              in
              List.iter
                (fun (conn, form, sid) ->
                  let reply =
                    call conn
                      (envelope "get_report"
                         [
                           ("session", Pet_pet.Json.String sid);
                           ( "valuation",
                             Pet_pet.Json.String (Corpus.valuation ~seed:13 form conn) );
                         ])
                  in
                  Alcotest.(check bool)
                    (Printf.sprintf "%s report on connection %d" form.name conn)
                    true
                    (contains reply {|"ok"|} || contains reply {|"ineligible"|}))
                sessions;
              Alcotest.(check int) "provider builds" 20 (provider_builds call - before))))

(* A flow per respondent: open, report, choose the first option, submit.
   Submitting asks the engine, so two connections' flows query one
   tenant's engine from both shards at once. *)
let respondent_flow (form : Corpus.form) respondent =
  let sid = Printf.sprintf "@%d" respondent in
  [
    envelope "new_session" [ ("tenant", Pet_pet.Json.String form.name) ];
    envelope "get_report"
      [
        ("session", Pet_pet.Json.String sid);
        ("valuation", Pet_pet.Json.String (Corpus.valuation ~seed:17 form respondent));
      ];
    envelope "choose_option"
      [ ("session", Pet_pet.Json.String sid); ("option", Pet_pet.Json.Int 0) ];
    envelope "submit_form" [ ("session", Pet_pet.Json.String sid) ];
  ]

(* Send a respondent's flow lockstep through [call], putting the session
   the first reply minted where the flow says ["@k"]; the pairs, with
   grant ids (drawn from one process-wide sequence, so interleaved
   between concurrent flows) dropped. *)
let run_flows call flows =
  List.concat_map
    (fun lines ->
      let sid = ref "" in
      List.map
        (fun line ->
          let line =
            match String.index_opt line '@' with
            | Some i when !sid <> "" ->
              let j = String.index_from line i '"' in
              String.sub line 0 i ^ !sid ^ String.sub line j (String.length line - j)
            | _ -> line
          in
          let reply = call line in
          if !sid = "" then sid := session_of reply;
          let module Json = Pet_pet.Json in
          let reply =
            match json_of reply with
            | Json.Obj kvs ->
              Json.to_string
                (Json.Obj
                   (List.map
                      (function
                        | "ok", Json.Obj ok ->
                          ("ok", Json.Obj (List.filter (fun (k, _) -> k <> "grant") ok))
                        | kv -> kv)
                      kvs))
            | _ -> reply
          in
          (line, reply))
        lines)
    flows

let test_shared_bdd_tenant () =
  (* An 18-predicate tenant, so its engine is a BDD: two connections, one
     per shard, run twelve respondents each at the same time against its
     one artifact, and each connection's stream is answered exactly as
     one sequential service answers it. *)
  let form = Corpus.form ~seed:17 ~size:18 0 in
  let flows conn = List.init 12 (fun k -> respondent_flow form ((2 * k) + conn)) in
  let setup call =
    ignore (call (envelope "publish_rules" (tenant_rules form)));
    ignore
      (call
         (envelope "tenant"
            [ ("name", Pet_pet.Json.String form.name); ("wait", Pet_pet.Json.Bool true) ]))
  in
  let expected =
    let call = Service.handle_line (Service.create ~resolve ~now:Unix.gettimeofday ()) in
    setup call;
    List.map (fun conn -> normalize (run_flows call (flows conn))) [ 0; 1 ]
  in
  with_server ~domains:2 (fun server ->
      with_conns server 2 (fun call ->
          setup (call 0);
          let answered =
            List.map
              (fun conn -> Domain.spawn (fun () -> run_flows (call conn) (flows conn)))
              [ 0; 1 ]
            |> List.map (fun d -> normalize (Domain.join d))
          in
          List.iteri
            (fun conn (expected, answered) ->
              Alcotest.(check (list string))
                (Printf.sprintf "connection %d" conn)
                expected answered)
            (List.combine expected answered)))

(* --- Dialing ----------------------------------------------------------------------- *)

let test_dial () =
  with_server ~domains:1 (fun server ->
      let port = Server.port server in
      let dial addr =
        match Dial.connect addr with
        | Ok fd ->
          let ic = Unix.in_channel_of_descr fd and oc = Unix.out_channel_of_descr fd in
          let response = request oc ic stats_line in
          Unix.close fd;
          Ok (contains response {|"id":"after"|})
        | Error m -> Error m
      in
      Alcotest.(check (result bool string)) "localhost:N" (Ok true)
        (dial (Printf.sprintf "localhost:%d" port));
      Alcotest.(check (result bool string)) ":N" (Ok true)
        (dial (Printf.sprintf ":%d" port));
      Alcotest.(check (result bool string)) "missing port"
        (Error "localhost: expected HOST:PORT") (dial "localhost");
      Alcotest.(check (result bool string)) "port not a number"
        (Error "localhost:http: expected HOST:PORT") (dial "localhost:http"));
  (* Resolution is injected so the test never leaves the machine. *)
  Alcotest.(check bool) "unknown host" true
    (match Dial.connect ~resolve:(fun _ -> None) "no-such-host:80" with
    | Error "cannot resolve host no-such-host" -> true
    | _ -> false)

(* The line client behind ping, top and corpus drive. *)
let test_dial_lines () =
  with_server ~domains:1 (fun server ->
      let addr = Printf.sprintf "127.0.0.1:%d" (Server.port server) in
      Alcotest.(check bool) "call" true
        (match Dial.with_lines addr (fun c -> Ok (Dial.call c stats_line)) with
        | Ok response -> contains response {|"id":"after"|}
        | Error m -> Alcotest.fail m);
      (* relay: blank lines skipped, quit sent and not awaited, nothing
         after it read *)
      let script = ref [ ""; stats_line; "  "; "quit"; stats_line ] in
      let next () =
        match !script with
        | [] -> None
        | l :: rest ->
          script := rest;
          Some l
      in
      let printed = ref [] in
      Alcotest.(check (result unit string)) "relay" (Ok ())
        (Dial.with_lines addr (fun c ->
             Ok (Dial.relay c next (fun r -> printed := r :: !printed))));
      Alcotest.(check int) "one reply" 1 (List.length !printed);
      Alcotest.(check (list string)) "stopped at quit" [ stats_line ] !script;
      (* watch: numbered frames, each with its predecessor *)
      let seen = ref [] in
      Alcotest.(check (result unit string)) "watch" (Ok ())
        (Dial.with_lines addr (fun c ->
             Dial.watch c ~interval:0.01 ~frames:2 (fun n prev _ ->
                 seen := (n, Option.is_some prev) :: !seen)));
      Alcotest.(check (list (pair int bool))) "frames" [ (1, false); (2, true) ] (List.rev !seen);
      Alcotest.(check (result unit string)) "no watch frame"
        (Error {|unexpected response: {"pet":1,"id":null,"error":{"code":"parse_error","message":"line 1, column 1 (offset 0): unexpected character 'x'"}}|})
        (Dial.with_lines addr (fun c ->
             Dial.send c "x";
             Dial.watch c ~interval:0.01 ~frames:1 (fun _ _ _ -> ()))));
  (* A server that reads the request and closes without replying. *)
  let listener = Unix.socket ~cloexec:true PF_INET SOCK_STREAM 0 in
  Unix.bind listener (ADDR_INET (Unix.inet_addr_loopback, 0));
  Unix.listen listener 1;
  let port = match Unix.getsockname listener with ADDR_INET (_, p) -> p | _ -> assert false in
  let mute =
    Thread.create
      (fun () ->
        let fd, _ = Unix.accept listener in
        ignore (In_channel.input_line (Unix.in_channel_of_descr fd));
        Unix.close fd)
      ()
  in
  let result =
    Dial.with_lines (Printf.sprintf "127.0.0.1:%d" port) (fun c -> Ok (Dial.call c "hello"))
  in
  Thread.join mute;
  Unix.close listener;
  Alcotest.(check (result string string)) "EOF" (Error "server closed the connection") result

(* --- Replay across shards ------------------------------------------------------------ *)

let test_replay_keeps_shard_stats () =
  (* Each shard counts the submissions of the sessions it owns; replay
     must count each on the same shard, so no shard's stats change across
     a restart. Grants used to replay on shard 0 whatever session made
     them. *)
  let shards = 2 in
  let tick = ref 0 in
  let now () =
    incr tick;
    float_of_int !tick
  in
  let make () =
    let shared = Shared.create () in
    Array.init shards (fun index ->
        Service.create ~durable:true ~resolve
          ~owns:(fun id -> Shard_map.owner ~shards id = index)
          ~shared ~now ())
  in
  let call service method_ params =
    let line =
      Printf.sprintf {|{"pet":1,"id":1,"method":"%s","params":{%s}}|} method_
        params
    in
    let response = json_of (Service.handle_line service line) in
    match Pet_pet.Json.member "ok" response with
    | Some ok -> ok
    | None ->
      Alcotest.failf "%s failed: %s" method_ (Pet_pet.Json.to_string response)
  in
  let live = make () in
  let log = ref [] in
  Array.iter
    (fun service ->
      Service.set_sink service { Persist.emit = (fun e -> log := e :: !log) })
    live;
  ignore (call live.(0) "publish_rules" {|"source":"running"|});
  for i = 0 to 5 do
    (* sessions open on the shard that owns their id; shard 1 submits
       two of its three, shard 0 all three *)
    let service = live.(i mod shards) in
    let sid =
      match
        path (call service "new_session" {|"source":"running"|}) [ "session" ]
      with
      | Pet_pet.Json.String sid -> sid
      | _ -> Alcotest.fail "session id"
    in
    let on = Printf.sprintf {|"session":"%s"|} sid in
    ignore (call service "get_report" (on ^ {|,"valuation":"011"|}));
    ignore (call service "choose_option" (on ^ {|,"option":0|}));
    if i <> 5 then ignore (call service "submit_form" on)
  done;
  let sessions service = path (call service "stats" "") [ "sessions" ] in
  let before = Array.map sessions live in
  let replayed = make () in
  let outcome = Pet_net.Recovery.replay replayed (List.rev !log) in
  Alcotest.(check (list string))
    "no replay errors" [] outcome.Pet_net.Recovery.errors;
  Array.iteri
    (fun index service ->
      Alcotest.(check string)
        (Printf.sprintf "shard %d sessions" index)
        (Pet_pet.Json.to_string before.(index))
        (Pet_pet.Json.to_string (sessions service)))
    replayed;
  Alcotest.(check (list int)) "submissions per shard" [ 3; 2 ]
    (Array.to_list (Array.map (fun j -> int_at j [ "submitted" ]) before))

let () =
  Alcotest.run "pet_net"
    [
      ( "shard_map",
        [
          Alcotest.test_case "stable" `Quick test_shard_map_stable;
          Alcotest.test_case "distribution" `Quick test_shard_map_distribution;
          Alcotest.test_case "ids disjoint" `Quick test_sharded_ids_disjoint;
        ] );
      ( "group_commit",
        [
          Alcotest.test_case "concurrent batching" `Quick
            test_group_commit_batches;
          Alcotest.test_case "submit after stop" `Quick
            test_submit_after_stop_raises;
          Alcotest.test_case "a claim holds the frontier" `Quick
            test_claim_holds_frontier;
          Alcotest.test_case
            "a job queued while another shard commits becomes durable with no later submit"
            `Quick test_job_queued_mid_commit;
          Alcotest.test_case "stop commits what is still queued" `Quick
            test_stop_commits_queued;
          Alcotest.test_case "crash prefix" `Quick
            test_append_batch_crash_prefix;
        ] );
      ( "tcp",
        [
          Alcotest.test_case "durable before reply" `Quick
            test_durable_before_reply;
          Alcotest.test_case "batches track outstanding requests" `Quick
            test_batches_track_outstanding;
          Alcotest.test_case "pipelined far past the budget, two shards" `Quick
            test_pipelined_across_shards;
          Alcotest.test_case "no reply before it is durable" `Quick
            test_no_reply_before_durable;
          Alcotest.test_case "a failed append answers held replies" `Quick
            test_wal_failure_answers_held;
          Alcotest.test_case "cross-shard rules" `Quick test_cross_shard_rules;
          Alcotest.test_case "sessionless requests run on their connection's shard" `Quick
            test_sessionless_on_own_shard;
          Alcotest.test_case "a reply from another shard reaches its connection" `Quick
            test_cross_shard_reply;
          Alcotest.test_case "compaction bounds the log" `Quick
            test_tcp_compaction;
          Alcotest.test_case "compaction keeps read sessions"
            `Quick test_compaction_keeps_read_sessions;
          Alcotest.test_case "accounting merges shards" `Quick
            test_accounting_across_shards;
          Alcotest.test_case "gauges sum shards" `Quick
            test_gauges_across_shards;
          Alcotest.test_case "watch, then a request" `Quick
            test_tcp_watch_then_request;
          Alcotest.test_case "dial HOST:PORT" `Quick test_dial;
          Alcotest.test_case "line client" `Quick test_dial_lines;
          Alcotest.test_case "descriptors past select's limit" `Quick
            test_descriptors_past_select;
          Alcotest.test_case "a reset with replies pending" `Quick
            test_reset_with_replies_pending;
          Alcotest.test_case "an update lands without a wait" `Quick
            test_update_lands_without_wait;
          Alcotest.test_case "one build per tenant version" `Quick
            test_one_build_per_tenant;
          Alcotest.test_case "an 18-predicate tenant on two shards" `Quick
            test_shared_bdd_tenant;
          Alcotest.test_case "new_session on a building tenant" `Quick
            test_new_session_on_building_tenant;
        ] );
      ( "stdio",
        [
          Alcotest.test_case "watch, then a request" `Quick
            test_stdio_watch_then_request;
          Alcotest.test_case "unbounded watch stops at EOF" `Quick
            test_stdio_unbounded_watch_stops_at_eof;
        ] );
      ( "transport",
        [
          Alcotest.test_case "one stream, every transport" `Quick
            test_transport_differential;
        ] );
      ( "sweep",
        [ Alcotest.test_case "fairness" `Quick test_sweep_fairness ] );
      ( "recovery",
        [
          Alcotest.test_case "replay keeps each shard's stats" `Quick
            test_replay_keeps_shard_stats;
        ] );
    ]
