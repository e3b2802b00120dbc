module Persist = Pet_server.Persist
module Json = Pet_pet.Json

type damage = Segment.damage = { file : string; offset : int; reason : string }

type recovery = {
  events : Persist.event list;
  files : int;
  records : int;
  truncated : damage option;
  damage : damage list;
}

type t = {
  dir : string;
  auto_compact_segments : int;
  sync : ((unit -> unit) -> unit) option;  (* fsync, timed; [None] skips it *)
  wal : Segment.writer;
  mutable sealed : int;  (* full segments since the last snapshot *)
}

(* --- Directory layout ------------------------------------------------------- *)

let rec mkdir_p dir =
  if dir <> "" && not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Sys.mkdir dir 0o755 with Sys_error _ -> ()
  end

(* The snapshots and the segments of a directory, each in number order. *)
let families dir = (Segment.list dir "snap", Segment.list dir "wal")

(* Replay order: the newest snapshot, then every segment after it. Stale
   files (segments at or below the snapshot, older snapshots) are
   leftovers of an interrupted compaction — already folded into the
   snapshot, so skipped for replay though [scan] still checks them. *)
let replay_files (snaps, wals) =
  let snap, head =
    match List.rev snaps with
    | (n, file) :: _ -> (n, [ file ])
    | [] -> (-1, [])
  in
  (snap, head @ List.filter_map (fun (n, f) -> if n > snap then Some f else None) wals)

let next_segment (snaps, wals) =
  List.fold_left (fun acc (n, _) -> max acc (n + 1)) 0 (snaps @ wals)

(* --- Event codec -------------------------------------------------------------- *)

let encode event = Json.to_string (Persist.to_json event)

let decode payload =
  match Json.parse payload with
  | Error m -> Error ("invalid JSON: " ^ m)
  | Ok json -> Persist.of_json json

(* --- Recovery ------------------------------------------------------------------- *)

exception Stop of damage

(* Every reader of the store walks its files by one rule: the crash
   tail can only end a chain on a [wal] segment. *)
let walk ?unreadable dir files record on_file =
  Segment.walk_chain ?unreadable ~appended:"wal" dir files record on_file

(* Walk the file chain record by record, handing every decoded event
   of the longest clean prefix to [on_event]. The walk stops at the
   first damage or undecodable event, so the recovered state never
   builds on bytes after a hole. *)
let walk_chain dir chain ~on_event =
  let records = ref 0 and truncated = ref None in
  let step file offset payload =
    match decode payload with
    | Ok event ->
      on_event event;
      incr records
    | Error reason ->
      raise_notrace (Stop { file; offset; reason = "undecodable event: " ^ reason })
  in
  let on_file _ _ = function
    | Segment.Clean -> ()
    | Segment.Crash_tail d -> truncated := Some d
    | Segment.Damaged d -> raise_notrace (Stop d)
  in
  let damage = match walk dir chain step on_file with () -> [] | exception Stop d -> [ d ] in
  (!records, !truncated, damage)

let recover_chain dir chain =
  let events = ref [] in
  let records, truncated, damage =
    walk_chain dir chain ~on_event:(fun event -> events := event :: !events)
  in
  {
    events = List.rev !events;
    files = List.length chain;
    records;
    truncated;
    damage;
  }

let guard f = match f () with v -> Ok v | exception Sys_error m -> Error m

let read dir =
  guard (fun () ->
      let _, chain = replay_files (families dir) in
      recover_chain dir chain)

let walk_replay dir ~unreadable record on_file =
  guard (fun () -> walk ~unreadable dir (snd (replay_files (families dir))) record on_file)

let obs_recovery_h = Pet_obs.Metrics.histogram "pet_store_recovery_seconds"
let obs_recovered = Pet_obs.Metrics.gauge "pet_store_recovered_records"
let obs_appends = Pet_obs.Metrics.counter "pet_store_appends_total"
let obs_append_bytes = Pet_obs.Metrics.counter "pet_store_append_bytes_total"
let obs_append_h = Pet_obs.Metrics.histogram "pet_store_append_seconds"
let obs_fsync_h = Pet_obs.Metrics.histogram "pet_store_fsync_seconds"
let obs_segments = Pet_obs.Metrics.gauge "pet_store_segments"

let open_dir ?(segment_bytes = 1 lsl 20) ?(auto_compact_segments = 8)
    ?(fsync = true) dir =
  guard (fun () ->
      mkdir_p dir;
      let files = families dir in
      let snap, chain = replay_files files in
      let recovery =
        Pet_obs.Span.enter "store.recover" (fun () ->
            Pet_obs.Metrics.time obs_recovery_h (fun () ->
                recover_chain dir chain))
      in
      Pet_obs.Metrics.set_gauge obs_recovered
        (float_of_int recovery.records);
      (* Cut the torn tail so the damage cannot be misread twice; new
         appends go to a fresh segment either way. *)
      Option.iter
        (fun d -> Unix.truncate (Filename.concat dir d.file) d.offset)
        recovery.truncated;
      let t =
        {
          dir;
          auto_compact_segments;
          (* Wall-clock: how appends batch depends on scheduling. *)
          sync =
            (if fsync then Some (Pet_obs.Metrics.time_wall obs_fsync_h) else None);
          wal =
            Segment.writer ~dir ~prefix:"wal" ~segment_bytes (next_segment files);
          sealed = List.length (List.filter (fun (n, _) -> n > snap) (snd files));
        }
      in
      (t, recovery))

(* --- Appending -------------------------------------------------------------------- *)

let dir t = t.dir
let position t = Segment.position t.wal

let write t payloads =
  Pet_obs.Metrics.time_wall obs_append_h @@ fun () ->
  let bytes, sealed = Segment.append ?sync:t.sync t.wal payloads in
  if sealed then begin
    t.sealed <- t.sealed + 1;
    Pet_obs.Log.debug "store.segment_sealed"
      ~fields:
        [
          ("next_segment", Pet_obs.Trace.Int (Segment.number t.wal));
          ("sealed", Pet_obs.Trace.Int t.sealed);
        ]
  end;
  if Pet_obs.Metrics.enabled () then begin
    Pet_obs.Metrics.add obs_appends (List.length payloads);
    Pet_obs.Metrics.add obs_append_bytes bytes;
    (* sealed segments plus the active one *)
    Pet_obs.Metrics.set_gauge obs_segments (float_of_int (t.sealed + 1))
  end

let append t event = write t [ encode event ]
let append_batch t = function [] -> () | events -> write t (List.map encode events)
let sink t = { Persist.emit = (fun event -> append t event) }

let compacts t = t.auto_compact_segments > 0
let wants_compaction t = compacts t && t.sealed >= t.auto_compact_segments
let close t = Segment.close t.wal

(* --- Compaction --------------------------------------------------------------------- *)

let compact t ~events =
  guard (fun () ->
      (* The snapshot covers everything below the next segment number,
         including the active segment being abandoned. *)
      let cover = Segment.number t.wal in
      Segment.seal t.wal;
      Segment.write_atomic ~dir:t.dir ~prefix:"snap" cover encode events;
      let snaps, wals = families t.dir in
      let stale =
        List.filter (fun (n, _) -> n <= cover) wals
        @ List.filter (fun (n, _) -> n < cover) snaps
      in
      List.iter (fun (_, file) -> Sys.remove (Filename.concat t.dir file)) stale;
      let removed = List.length stale in
      t.sealed <- 0;
      Pet_obs.Log.debug "store.compacted"
        ~fields:
          [
            ("snapshot", Pet_obs.Trace.Int cover);
            ("removed_files", Pet_obs.Trace.Int removed);
          ];
      removed)

(* --- Offline inspection ---------------------------------------------------------------- *)

type file_report = {
  file : string;
  bytes : int;
  records : int;
  kinds : (string * int) list;
  damage : damage list;
  r2 : damage list;
  tail : damage option;
}

let scan dir =
  guard (fun () ->
      let snaps, wals = families dir in
      let files = List.map snd (snaps @ wals) in
      let _, chain = replay_files (snaps, wals) in
      let counts = Hashtbl.create 64 and ends = Hashtbl.create 8 and faults = ref [] in
      let bump key =
        Hashtbl.replace counts key (1 + Option.value ~default:0 (Hashtbl.find_opt counts key))
      in
      let fault kind file offset reason = faults := (kind, { file; offset; reason }) :: !faults in
      let record file offset payload =
        bump (file, None);
        match Json.parse payload with
        | Error m -> fault `Damage file offset ("record holds invalid JSON: " ^ m)
        | Ok json -> (
          if Persist.carries_valuation json then
            fault `R2 file offset "decoded event carries a \"valuation\" field";
          match Persist.of_json json with
          | Ok event -> bump (file, Some (Persist.kind event))
          | Error m -> fault `Damage file offset ("not a known event: " ^ m))
      in
      (* Stale files first, so the replay chain's own tail ends the walk. *)
      walk dir
        (List.filter (fun f -> not (List.mem f chain)) files @ chain)
        record
        (fun file bytes verdict ->
          (match verdict with Segment.Damaged d -> faults := (`Damage, d) :: !faults | _ -> ());
          Hashtbl.replace ends file (bytes, verdict));
      let faults = List.rev !faults in
      List.map
        (fun file ->
          let bytes, verdict = Hashtbl.find ends file in
          let only kind =
            List.filter_map
              (fun (k, (d : damage)) -> if k = kind && d.file = file then Some d else None)
              faults
          in
          let kind (f, k) n acc =
            match k with Some k when f = file -> (k, n) :: acc | _ -> acc
          in
          {
            file;
            bytes;
            records = Option.value ~default:0 (Hashtbl.find_opt counts (file, None));
            kinds = List.sort compare (Hashtbl.fold kind counts []);
            damage = only `Damage;
            r2 = only `R2;
            tail = (match verdict with Segment.Crash_tail d -> Some d | _ -> None);
          })
        files)

let replay ppf dir =
  Result.bind (read dir) (fun recovery ->
      List.iter
        (fun event -> Fmt.pf ppf "%s@." (Json.to_string (Persist.to_json event)))
        recovery.events;
      match recovery.damage with
      | [] -> Ok ()
      | d :: _ ->
        Error (Printf.sprintf "replay stopped at byte %d of %s: %s" d.offset d.file d.reason))

let inspect ppf reports =
  let records = ref 0 and bytes = ref 0 and kinds = Hashtbl.create 8 in
  List.iter
    (fun r ->
      records := !records + r.records;
      bytes := !bytes + r.bytes;
      List.iter
        (fun (kind, n) ->
          Hashtbl.replace kinds kind (n + Option.value ~default:0 (Hashtbl.find_opt kinds kind)))
        r.kinds;
      Fmt.pf ppf "%-16s %8d bytes %6d record(s)%s%s@." r.file r.bytes r.records
        (match r.damage with
        | [] -> ""
        | damage -> Printf.sprintf "  %d damaged" (List.length damage))
        (if r.tail = None then "" else "  torn tail"))
    reports;
  Fmt.pf ppf "total: %d file(s), %d bytes, %d record(s)@." (List.length reports) !bytes
    !records;
  Hashtbl.fold (fun kind n acc -> (kind, n) :: acc) kinds []
  |> List.sort compare
  |> List.iter (fun (kind, n) -> Fmt.pf ppf "  %-18s %6d@." kind n)

let verify ppf reports =
  let records = List.fold_left (fun acc r -> acc + r.records) 0 reports in
  let faults =
    List.concat_map
      (fun r ->
        List.map (fun d -> ("damage", d)) r.damage
        @ List.map (fun v -> ("R2 violation", v)) r.r2)
      reports
  in
  List.iter
    (fun r -> Option.iter (fun d -> Fmt.pf ppf "note: %s@." (Segment.tail_note d)) r.tail)
    reports;
  List.iter
    (fun (label, (d : damage)) ->
      Fmt.pf ppf "%s: %s at byte %d: %s@." label d.file d.offset d.reason)
    faults;
  if faults = [] then begin
    Fmt.pf ppf
      "ok: %d record(s) in %d file(s); every checksum holds and no decoded event carries \
       a raw valuation (R2 on disk)@."
      records (List.length reports);
    Ok ()
  end
  else
    Error
      (Printf.sprintf "%d fault(s) in %d file(s)" (List.length faults) (List.length reports))

(* --- Offline compaction ------------------------------------------------------------------ *)

module Compactor = struct
  type sess = {
    digest : string;
    tenant : string option;
    created_at : float;
    mutable chosen : (string * string list * float) option;
    mutable submitted : (int * float) option;
    mutable last : float;
  }

  type state = {
    rules : (string, string) Hashtbl.t;
    tenants : (string, (int * string * string * int option * float) list ref) Hashtbl.t;
        (* tenant -> (version, digest, text, quota, at), every version
           kept: recovery needs them all so pinned sessions can resolve
           pre-swap digests *)
    grants :
      ( string * string option,
        (int * string * string list * string option * bool) list ref )
      Hashtbl.t;
        (* (digest, tenant) -> (grant_id, form, benefits, session,
           revoked): ledgers are namespaced per tenant, mirroring the
           service *)
    sessions : (string, sess) Hashtbl.t;
    revoked : (string, float) Hashtbl.t;  (* session -> revocation time *)
    horizons : (string, float * float) Hashtbl.t;
        (* session -> (horizon, set_at), latest wins *)
    links : (string, (string * string option) * int) Hashtbl.t;
        (* session -> (ledger key, grant id) — where its grant lives *)
    mutable clock : float;
        (* the last timestamp in log order — not the largest: a logical
           clock restarts with the process, and sessions the restarted
           service still serves must not look idle *)
  }

  let create () =
    {
      rules = Hashtbl.create 8;
      tenants = Hashtbl.create 8;
      grants = Hashtbl.create 8;
      sessions = Hashtbl.create 64;
      revoked = Hashtbl.create 8;
      horizons = Hashtbl.create 8;
      links = Hashtbl.create 8;
      clock = 0.;
    }

  let tick state at = state.clock <- at

  let add state = function
    | Persist.Rules { digest; text } ->
      if not (Hashtbl.mem state.rules digest) then
        Hashtbl.replace state.rules digest text
    | Persist.Tenant_published { tenant; version; digest; text; quota; at } ->
      tick state at;
      let cell =
        match Hashtbl.find_opt state.tenants tenant with
        | Some cell -> cell
        | None ->
          let cell = ref [] in
          Hashtbl.add state.tenants tenant cell;
          cell
      in
      (* replaying the same version twice (snapshot + tail) keeps the
         newest record *)
      cell :=
        (version, digest, text, quota, at)
        :: List.filter (fun (v, _, _, _, _) -> v <> version) !cell
    | Persist.Session_created { id; digest; tenant; at } ->
      tick state at;
      Hashtbl.replace state.sessions id
        {
          digest;
          tenant;
          created_at = at;
          chosen = None;
          submitted = None;
          last = at;
        }
    | Persist.Session_chosen { id; mas; benefits; at } ->
      tick state at;
      Option.iter
        (fun sess ->
          sess.chosen <- Some (mas, benefits, at);
          sess.last <- at)
        (Hashtbl.find_opt state.sessions id)
    | Persist.Session_submitted { id; grant_id; at } ->
      tick state at;
      Option.iter
        (fun sess ->
          sess.submitted <- Some (grant_id, at);
          sess.last <- at)
        (Hashtbl.find_opt state.sessions id)
    | Persist.Grant { digest; grant_id; form; benefits; session; tenant; revoked }
      ->
      let key = (digest, tenant) in
      let cell =
        match Hashtbl.find_opt state.grants key with
        | Some cell -> cell
        | None ->
          let cell = ref [] in
          Hashtbl.add state.grants key cell;
          cell
      in
      cell := (grant_id, form, benefits, session, revoked) :: !cell;
      Option.iter
        (fun session -> Hashtbl.replace state.links session (key, grant_id))
        session
    | Persist.Session_revoked { id; at } ->
      tick state at;
      (* Compaction must never resurrect revoked data: the session
         disappears now, and {!events} tombstones its grant. The
         revocation itself is kept so recovery still refuses a second
         revoke. *)
      Hashtbl.replace state.revoked id at;
      Hashtbl.remove state.sessions id
    | Persist.Session_expiry { id; horizon; at } ->
      tick state at;
      Hashtbl.replace state.horizons id (horizon, at)

  let sorted_bindings table =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) table []
    |> List.sort (fun (a, _) (b, _) -> compare a b)

  let events ?(ttl = 3600.) ?(expired = fun _ -> false) state =
    let rules =
      List.map
        (fun (digest, text) -> Persist.Rules { digest; text })
        (sorted_bindings state.rules)
    in
    let tenants =
      List.concat_map
        (fun (tenant, cell) ->
          List.sort (fun (a, _, _, _, _) (b, _, _, _, _) -> compare a b) !cell
          |> List.map (fun (version, digest, text, quota, at) ->
                 Persist.Tenant_published
                   { tenant; version; digest; text; quota; at }))
        (sorted_bindings state.tenants)
    in
    (* A grant is erased — emitted as a tombstone, its form dropped —
       when its own record says so, or its session revoked consent, or
       its session's expiry horizon has passed by the log's own clock. *)
    let erased session already =
      already
      ||
      match session with
      | None -> false
      | Some id ->
        Hashtbl.mem state.revoked id
        || (match Hashtbl.find_opt state.horizons id with
           | Some (horizon, _) -> horizon <= state.clock
           | None -> false)
    in
    let grants =
      List.concat_map
        (fun ((digest, tenant), cell) ->
          List.rev !cell
          |> List.sort (fun (a, _, _, _, _) (b, _, _, _, _) -> compare a b)
          |> List.map (fun (grant_id, form, benefits, session, revoked) ->
                 if erased session revoked then
                   Persist.Grant
                     {
                       digest;
                       grant_id;
                       form = "";
                       benefits = [];
                       session;
                       tenant;
                       revoked = true;
                     }
                 else
                   Persist.Grant
                     { digest; grant_id; form; benefits; session; tenant;
                       revoked = false }))
        (sorted_bindings state.grants)
    in
    let live id (sess : sess) =
      (ttl <= 0. || state.clock -. sess.last <= ttl)
      && (not (expired id))
      && not (erased (Some id) false)
    in
    let sessions =
      sorted_bindings state.sessions
      |> List.sort (fun ((a, _) : string * sess) (b, _) ->
             compare (String.length a, a) (String.length b, b))
      |> List.concat_map (fun (id, sess) ->
             if not (live id sess) then []
             else
               Persist.Session_created
                 {
                   id;
                   digest = sess.digest;
                   tenant = sess.tenant;
                   at = sess.created_at;
                 }
               :: (match sess.chosen with
                  | Some (mas, benefits, at) ->
                    [ Persist.Session_chosen { id; mas; benefits; at } ]
                  | None -> [])
               @
               match sess.submitted with
               | Some (grant_id, at) ->
                 [ Persist.Session_submitted { id; grant_id; at } ]
               | None -> [])
    in
    (* Lifecycle events last: they may name sessions the snapshot
       dropped, never ones that appear later. Revocations survive
       compaction so a second revoke still errors, and horizons re-arm
       so recovery re-applies any that passed. A revoked session keeps
       its horizon too: it is never armed again, but a request on the
       session past it still answers [session_expired]. *)
    let by_id l = List.sort (fun (a, _) (b, _) ->
        compare (String.length a, a) (String.length b, b)) l
    in
    let lifecycle =
      List.map
        (fun (id, at) -> Persist.Session_revoked { id; at })
        (by_id (Hashtbl.fold (fun id at acc -> (id, at) :: acc) state.revoked []))
      @ List.map
          (fun (id, (horizon, at)) -> Persist.Session_expiry { id; horizon; at })
          (by_id
             (Hashtbl.fold (fun id h acc -> (id, h) :: acc) state.horizons []))
    in
    rules @ tenants @ grants @ sessions @ lifecycle
end

(* --- Online compaction ----------------------------------------------------------------- *)

type compaction = { read : int; kept : int; retired : int }

let compact_chain ?ttl ?expired ?on_damage t =
  let compactor = Compactor.create () in
  match
    guard (fun () ->
        walk_chain t.dir
          (snd (replay_files (families t.dir)))
          ~on_event:(Compactor.add compactor))
  with
  | Error m -> Error m
  | Ok (_, _, d :: _) when on_damage = None ->
    Error
      (Printf.sprintf "replay chain damaged at byte %d of %s: %s" d.offset
         d.file d.reason)
  | Ok (read, _, damage) ->
    Option.iter (fun f -> List.iter f damage) on_damage;
    let events = Compactor.events ?ttl ?expired compactor in
    Result.map
      (fun retired -> { read; kept = List.length events; retired })
      (compact t ~events)

let compact_dir ~ttl ~on_damage dir =
  Result.bind (open_dir dir) (fun (store, _) ->
      let result = compact_chain ~ttl ~on_damage store in
      close store;
      result)
