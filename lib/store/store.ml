module Persist = Pet_server.Persist
module Json = Pet_pet.Json

type damage = { file : string; offset : int; reason : string }

type recovery = {
  events : Persist.event list;
  files : int;
  records : int;
  truncated : damage option;
  damage : damage list;
}

type t = {
  dir : string;
  segment_bytes : int;
  auto_compact_segments : int;
  fsync : bool;
  mutable seg : int;
  mutable channel : (Unix.file_descr * out_channel) option;
  mutable written : int;
  mutable sealed : int;  (* full segments since the last snapshot *)
}

(* --- Directory layout ------------------------------------------------------- *)

let wal_name n = Printf.sprintf "wal-%06d.log" n
let snap_name n = Printf.sprintf "snap-%06d.log" n

let parse_name name =
  let numbered prefix =
    let pl = String.length prefix and nl = String.length name in
    if nl = pl + 10 && String.sub name 0 pl = prefix
       && String.sub name (nl - 4) 4 = ".log"
    then int_of_string_opt (String.sub name pl 6)
    else None
  in
  match numbered "wal-" with
  | Some n -> Some (`Wal n)
  | None -> (
    match numbered "snap-" with Some n -> Some (`Snap n) | None -> None)

let rec mkdir_p dir =
  if dir <> "" && not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Sys.mkdir dir 0o755 with Sys_error _ -> ()
  end

let listing dir =
  Array.to_list (Sys.readdir dir)
  |> List.filter_map (fun name ->
         match parse_name name with
         | Some kind -> Some (kind, name)
         | None -> None)

(* Replay order: the newest snapshot, then every segment after it. Stale
   files (segments at or below the snapshot, older snapshots) are
   leftovers of an interrupted compaction — already folded into the
   snapshot, so skipped for replay though [scan] still checks them. *)
let replay_files files =
  let snap =
    List.fold_left
      (fun acc (kind, _) ->
        match kind with `Snap n -> max acc n | `Wal _ -> acc)
      (-1) files
  in
  let wals =
    List.filter_map
      (fun (kind, name) ->
        match kind with
        | `Wal n when n > snap -> Some (n, name)
        | _ -> None)
      files
    |> List.sort compare |> List.map snd
  in
  let chain =
    if snap >= 0 then snap_name snap :: wals else wals
  in
  (snap, chain)

let next_segment files =
  List.fold_left
    (fun acc (kind, _) ->
      match kind with `Wal n | `Snap n -> max acc (n + 1))
    0 files

(* --- Event codec -------------------------------------------------------------- *)

let encode event = Json.to_string (Persist.to_json event)

let decode payload =
  match Json.parse payload with
  | Error m -> Error ("invalid JSON: " ^ m)
  | Ok json -> Persist.of_json json

(* --- Recovery ------------------------------------------------------------------- *)

let read_file path =
  In_channel.with_open_bin path In_channel.input_all

(* Walk the file chain record by record, handing every decoded event
   of the longest clean prefix to [on_event]. A torn tail is legitimate
   only on the last file (the one being appended when the process
   died); torn bytes anywhere else, checksum failures and undecodable
   events are damage: the walk stops there so the recovered state never
   builds on bytes after a hole. *)
let walk_chain dir chain ~on_event =
  let records = ref 0 and truncated = ref None and damage = ref [] in
  let rec through_files = function
    | [] -> ()
    | file :: rest ->
      let buf = read_file (Filename.concat dir file) in
      let last = rest = [] in
      let rec through_records offset =
        match Record.read buf offset with
        | Record.End -> `Continue
        | Record.Record { payload; next } -> (
          match decode payload with
          | Ok event ->
            on_event event;
            incr records;
            through_records next
          | Error reason ->
            `Stop { file; offset; reason = "undecodable event: " ^ reason })
        | Record.Torn { offset; reason } ->
          if last then begin
            truncated := Some { file; offset; reason };
            `Continue
          end
          else `Stop { file; offset; reason = "torn mid-log: " ^ reason }
        | Record.Corrupt { offset; reason } -> `Stop { file; offset; reason }
      in
      (match through_records 0 with
      | `Continue -> through_files rest
      | `Stop d -> damage := [ d ])
  in
  through_files chain;
  (!records, !truncated, !damage)

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
      let _, chain = replay_files (listing dir) in
      recover_chain dir chain)

let replay_chain dir =
  guard (fun () -> snd (replay_files (listing dir)))

let obs_recovery_h = Pet_obs.Metrics.histogram "pet_store_recovery_seconds"
let obs_recovered = Pet_obs.Metrics.gauge "pet_store_recovered_records"

let open_dir ?(segment_bytes = 1 lsl 20) ?(auto_compact_segments = 8)
    ?(fsync = true) dir =
  guard (fun () ->
      mkdir_p dir;
      let files = listing dir in
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
      let sealed =
        List.length
          (List.filter
             (fun (kind, _) ->
               match kind with `Wal n -> n > snap | `Snap _ -> false)
             files)
      in
      let t =
        {
          dir;
          segment_bytes;
          auto_compact_segments;
          fsync;
          seg = next_segment files;
          channel = None;
          written = 0;
          sealed;
        }
      in
      (t, recovery))

(* --- Appending -------------------------------------------------------------------- *)

let channel t =
  match t.channel with
  | Some (fd, oc) -> (fd, oc)
  | None ->
    let path = Filename.concat t.dir (wal_name t.seg) in
    let fd = Unix.openfile path [ O_WRONLY; O_CREAT; O_APPEND ] 0o644 in
    let oc = Unix.out_channel_of_descr fd in
    t.channel <- Some (fd, oc);
    (fd, oc)

let seal t =
  match t.channel with
  | None -> ()
  | Some (_, oc) ->
    close_out oc;
    t.channel <- None;
    t.seg <- t.seg + 1;
    t.written <- 0;
    t.sealed <- t.sealed + 1;
    Pet_obs.Log.debug "store.segment_sealed"
      ~fields:
        [
          ("next_segment", Pet_obs.Trace.Int t.seg);
          ("sealed", Pet_obs.Trace.Int t.sealed);
        ]

let dir t = t.dir
let position t = (wal_name t.seg, t.written)

let obs_appends = Pet_obs.Metrics.counter "pet_store_appends_total"
let obs_append_bytes = Pet_obs.Metrics.counter "pet_store_append_bytes_total"
let obs_append_h = Pet_obs.Metrics.histogram "pet_store_append_seconds"
let obs_fsync_h = Pet_obs.Metrics.histogram "pet_store_fsync_seconds"
let obs_segments = Pet_obs.Metrics.gauge "pet_store_segments"

let append t event =
  Pet_obs.Metrics.time obs_append_h @@ fun () ->
  let record = Record.frame (encode event) in
  let fd, oc = channel t in
  output_string oc record;
  flush oc;
  if t.fsync then Pet_obs.Metrics.time obs_fsync_h (fun () -> Unix.fsync fd);
  t.written <- t.written + String.length record;
  if t.written >= t.segment_bytes then seal t;
  if Pet_obs.Metrics.enabled () then begin
    Pet_obs.Metrics.incr obs_appends;
    Pet_obs.Metrics.add obs_append_bytes (String.length record);
    (* sealed segments plus the active one *)
    Pet_obs.Metrics.set_gauge obs_segments (float_of_int (t.sealed + 1))
  end

let append_batch t events =
  match events with
  | [] -> ()
  | events ->
    Pet_obs.Metrics.time obs_append_h @@ fun () ->
    let fd, oc = channel t in
    let bytes =
      List.fold_left
        (fun bytes event ->
          let record = Record.frame (encode event) in
          output_string oc record;
          bytes + String.length record)
        0 events
    in
    flush oc;
    if t.fsync then Pet_obs.Metrics.time obs_fsync_h (fun () -> Unix.fsync fd);
    t.written <- t.written + bytes;
    if t.written >= t.segment_bytes then seal t;
    if Pet_obs.Metrics.enabled () then begin
      Pet_obs.Metrics.add obs_appends (List.length events);
      Pet_obs.Metrics.add obs_append_bytes bytes;
      Pet_obs.Metrics.set_gauge obs_segments (float_of_int (t.sealed + 1))
    end

let sink t = { Persist.emit = (fun event -> append t event) }

let compacts t = t.auto_compact_segments > 0
let wants_compaction t = compacts t && t.sealed >= t.auto_compact_segments

let close t =
  match t.channel with
  | None -> ()
  | Some (_, oc) ->
    close_out oc;
    t.channel <- None

(* --- Compaction --------------------------------------------------------------------- *)

let fsync_dir dir =
  match Unix.openfile dir [ O_RDONLY ] 0 with
  | fd ->
    (try Unix.fsync fd with Unix.Unix_error _ -> ());
    Unix.close fd
  | exception Unix.Unix_error _ -> ()

let compact t ~events =
  guard (fun () ->
      (* The snapshot covers everything below the next segment number,
         including the active segment being abandoned. *)
      close t;
      let cover = t.seg in
      let tmp = Filename.concat t.dir "snap.tmp" in
      let fd = Unix.openfile tmp [ O_WRONLY; O_CREAT; O_TRUNC ] 0o644 in
      let oc = Unix.out_channel_of_descr fd in
      List.iter (fun event -> output_string oc (Record.frame (encode event))) events;
      flush oc;
      Unix.fsync fd;
      close_out oc;
      Sys.rename tmp (Filename.concat t.dir (snap_name cover));
      fsync_dir t.dir;
      let removed =
        List.fold_left
          (fun removed (kind, name) ->
            let stale =
              match kind with `Wal n -> n <= cover | `Snap n -> n < cover
            in
            if stale then begin
              Sys.remove (Filename.concat t.dir name);
              removed + 1
            end
            else removed)
          0 (listing t.dir)
      in
      t.seg <- cover + 1;
      t.written <- 0;
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
}

let scan_file dir file =
  let buf = read_file (Filename.concat dir file) in
  let records = ref 0 and kinds = Hashtbl.create 8 in
  let damage = ref [] and r2 = ref [] in
  let tally kind =
    Hashtbl.replace kinds kind
      (1 + Option.value ~default:0 (Hashtbl.find_opt kinds kind))
  in
  let rec go offset =
    match Record.read buf offset with
    | Record.End -> ()
    | Record.Record { payload; next } ->
      incr records;
      (match Json.parse payload with
      | Error m ->
        damage :=
          { file; offset; reason = "record holds invalid JSON: " ^ m }
          :: !damage
      | Ok json -> (
        if Persist.carries_valuation json then
          r2 :=
            {
              file;
              offset;
              reason = "decoded event carries a \"valuation\" field";
            }
            :: !r2;
        match Persist.of_json json with
        | Ok event -> tally (Persist.kind event)
        | Error m ->
          damage :=
            { file; offset; reason = "not a known event: " ^ m } :: !damage));
      go next
    | Record.Torn { offset; reason } ->
      damage := { file; offset; reason = "torn: " ^ reason } :: !damage
    | Record.Corrupt { offset; reason } ->
      damage := { file; offset; reason } :: !damage
  in
  go 0;
  {
    file;
    bytes = String.length buf;
    records = !records;
    kinds =
      Hashtbl.fold (fun k n acc -> (k, n) :: acc) kinds []
      |> List.sort compare;
    damage = List.rev !damage;
    r2 = List.rev !r2;
  }

let scan dir =
  guard (fun () ->
      let files = listing dir in
      let order (kind, name) =
        match kind with `Snap n -> (0, n, name) | `Wal n -> (1, n, name)
      in
      List.sort (fun a b -> compare (order a) (order b)) files
      |> List.map (fun (_, name) -> scan_file dir name))

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
       compaction so a second revoke still errors,
       and horizons re-arm so recovery re-applies any that passed. *)
    let by_id l = List.sort (fun (a, _) (b, _) ->
        compare (String.length a, a) (String.length b, b)) l
    in
    let lifecycle =
      List.map
        (fun (id, at) -> Persist.Session_revoked { id; at })
        (by_id (Hashtbl.fold (fun id at acc -> (id, at) :: acc) state.revoked []))
      @ List.filter_map
          (fun (id, (horizon, at)) ->
            if Hashtbl.mem state.revoked id then None
            else Some (Persist.Session_expiry { id; horizon; at }))
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
          (snd (replay_files (listing t.dir)))
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
