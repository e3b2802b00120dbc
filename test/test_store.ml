(* Tests for the durable store: CRC-32 and record framing, crash
   injection (truncation at every byte offset), recovery determinism,
   grant-id continuity across restarts, the R2-on-disk invariant,
   corruption localization, segment rotation and compaction
   equivalence. *)

module Json = Pet_pet.Json
module Spec = Pet_rules.Spec
module Persist = Pet_server.Persist
module Service = Pet_server.Service
module Crc32 = Pet_store.Crc32
module Record = Pet_store.Record
module Store = Pet_store.Store
module Running = Pet_casestudies.Running

let temp_dir =
  let counter = ref 0 in
  fun () ->
    incr counter;
    let dir =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "pet_store_test_%d_%d" (Unix.getpid ()) !counter)
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

let read_file path =
  In_channel.with_open_bin path In_channel.input_all

let write_file path contents =
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc contents)

(* --- CRC-32 and framing ------------------------------------------------------- *)

let test_crc32_vector () =
  (* The standard check value for reflected CRC-32/ISO-HDLC. *)
  Alcotest.(check int) "123456789" 0xCBF43926 (Crc32.string "123456789");
  Alcotest.(check int) "empty" 0 (Crc32.string "");
  Alcotest.(check int)
    "sub agrees with string" (Crc32.string "456")
    (Crc32.sub "123456789" 3 3)

let test_record_roundtrip () =
  List.iter
    (fun payload ->
      let framed = Record.frame payload in
      Alcotest.(check int) "framed size"
        (Record.header_bytes + String.length payload)
        (String.length framed);
      match Record.read framed 0 with
      | Record.Record { payload = back; next } ->
        Alcotest.(check string) "payload" payload back;
        Alcotest.(check int) "next" (String.length framed) next
      | _ -> Alcotest.fail "frame did not read back")
    [ ""; "x"; {|{"ev":"rules","digest":"d","text":"t"}|}; String.make 4096 'z' ]

let test_record_bitflip () =
  let payload = {|{"ev":"session_submitted","id":"s0","grant":3,"at":9}|} in
  let framed = Record.frame payload in
  for i = 0 to String.length framed - 1 do
    let corrupted = Bytes.of_string framed in
    Bytes.set corrupted i (Char.chr (Char.code framed.[i] lxor 0x40));
    match Record.read (Bytes.to_string corrupted) 0 with
    | Record.Record { payload = back; _ } ->
      Alcotest.failf "flip at byte %d went undetected (payload %S)" i back
    | Record.End -> Alcotest.failf "flip at byte %d read as End" i
    | Record.Torn _ | Record.Corrupt _ -> ()
  done

(* --- A service wired to a store ----------------------------------------------- *)

let resolve = function
  | "running" -> Some (Spec.to_string (Running.exposure ()))
  | _ -> None

let make_service () =
  let tick = ref 0 in
  let now () =
    incr tick;
    float_of_int !tick
  in
  Service.create ~durable:true ~resolve ~now ()

let request service ?(id = 1) method_ params =
  let line =
    Json.to_string
      (Json.Obj
         [
           ("pet", Json.Int 1);
           ("id", Json.Int id);
           ("method", Json.String method_);
           ("params", Json.Obj params);
         ])
  in
  match Json.parse (Service.handle_line service line) with
  | Ok response -> response
  | Error m -> Alcotest.failf "response is not JSON: %s" m

let expect_ok response =
  match Json.member "ok" response with
  | Some payload -> payload
  | None -> Alcotest.failf "expected ok, got %s" (Json.to_string response)

(* Run the paper's running example through a durable service: publish,
   two sessions, reports, choices, submissions — leaves grants 0 and 1
   in the ledger. The running form is a&b|c over 3 predicates. *)
let drive service =
  ignore
    (expect_ok
       (request service "publish_rules" [ ("source", Json.String "running") ]));
  let session params = Json.string_opt (Option.get (Json.member "session" (expect_ok params))) |> Option.get in
  let s0 = session (request service "new_session" [ ("source", Json.String "running") ]) in
  let s1 = session (request service "new_session" [ ("source", Json.String "running") ]) in
  List.iter
    (fun (s, v) ->
      ignore
        (expect_ok
           (request service "get_report"
              [ ("session", Json.String s); ("valuation", Json.String v) ]));
      ignore
        (expect_ok
           (request service "choose_option"
              [ ("session", Json.String s); ("option", Json.Int 0) ]));
      ignore
        (expect_ok (request service "submit_form" [ ("session", Json.String s) ])))
    [ (s0, "110"); (s1, "011") ]

let open_ok ?segment_bytes ?auto_compact_segments dir =
  match Store.open_dir ?segment_bytes ?auto_compact_segments ~fsync:false dir with
  | Ok pair -> pair
  | Error m -> Alcotest.failf "open_dir %s: %s" dir m

let populated_dir ?segment_bytes () =
  let dir = temp_dir () in
  let store, _ = open_ok ?segment_bytes dir in
  let service = make_service () in
  Service.set_sink service (Store.sink store);
  drive service;
  Store.close store;
  (dir, service)

let recover_service dir =
  let recovery =
    match Store.read dir with
    | Ok r -> r
    | Error m -> Alcotest.failf "read %s: %s" dir m
  in
  let service = make_service () in
  List.iter
    (fun event ->
      match Service.apply_event service event with
      | Ok () -> ()
      | Error m -> Alcotest.failf "apply_event: %s" m)
    recovery.Store.events;
  (service, recovery)

(* The durable state as a client can see it: the session and archive
   totals from [stats], then for each session the error a report
   request on it answers (naming its state), the grant its revocation
   tombstones, and the archive audit after that. Probing revokes, so
   two services are compared by probing each of them the same way. *)
let probe service =
  let stats = expect_ok (request service "stats" []) in
  let totals = List.map (fun k -> Option.get (Json.member k stats)) [ "sessions"; "ledger" ] in
  let per_session sid =
    [
      request service "get_report"
        [ ("session", Json.String sid); ("valuation", Json.String "110") ];
      request service "revoke" [ ("session", Json.String sid) ];
      request service "audit" [ ("source", Json.String "running") ];
    ]
  in
  Json.to_string (Json.List (totals @ List.concat_map per_session [ "s0"; "s1"; "s2" ]))

(* The durable state of a directory as its log holds it: the replayed
   events squashed with every session kept — rule texts, every session
   with its chosen form and submission, every grant, revocations and
   horizons. Compaction must not change it. *)
let log_state dir =
  match Store.read dir with
  | Error m -> Alcotest.failf "read %s: %s" dir m
  | Ok recovery ->
    let compactor = Store.Compactor.create () in
    List.iter (Store.Compactor.add compactor) recovery.Store.events;
    Json.to_string
      (Json.List
         (List.map Persist.to_json (Store.Compactor.events ~ttl:0. compactor)))

(* --- Crash injection ----------------------------------------------------------- *)

(* Truncating the only segment at every byte offset simulates a crash
   at any point mid-append: recovery must never raise, must recover a
   prefix of the event stream, and must lose at most the record that
   was being written. *)
let test_truncate_everywhere () =
  let dir, _ = populated_dir () in
  let wal =
    match Sys.readdir dir with
    | [| file |] -> Filename.concat dir file
    | files -> Alcotest.failf "expected one segment, found %d" (Array.length files)
  in
  let whole = read_file wal in
  let full_events =
    match Store.read dir with
    | Ok r -> List.map Persist.to_json r.Store.events
    | Error m -> Alcotest.failf "baseline read: %s" m
  in
  let total = List.length full_events in
  Alcotest.(check bool) "baseline has events" true (total > 0);
  (* Record boundaries of the intact file: a cut exactly on one leaves
     a clean, shorter log; a cut anywhere else leaves a torn tail. *)
  let boundaries = Hashtbl.create 16 in
  let rec collect offset =
    Hashtbl.replace boundaries offset ();
    match Record.read whole offset with
    | Record.Record { next; _ } -> collect next
    | _ -> ()
  in
  collect 0;
  let crash_dir = temp_dir () in
  Unix.mkdir crash_dir 0o755;
  let crash_wal = Filename.concat crash_dir (Filename.basename wal) in
  let last_seen = ref (-1) in
  for cut = 0 to String.length whole - 1 do
    write_file crash_wal (String.sub whole 0 cut);
    match Store.read crash_dir with
    | Error m -> Alcotest.failf "cut at %d: recovery failed: %s" cut m
    | Ok r ->
      let got = List.map Persist.to_json r.Store.events in
      let n = List.length got in
      (* A strict prefix of the full stream... *)
      List.iteri
        (fun i event ->
          Alcotest.(check string)
            (Printf.sprintf "cut %d event %d" cut i)
            (Json.to_string (List.nth full_events i))
            (Json.to_string event))
        got;
      (* ...that never loses an already-complete record (monotone in the
         cut point) and reports the torn tail when one exists. *)
      Alcotest.(check bool) "monotone" true (n >= !last_seen);
      last_seen := max !last_seen n;
      Alcotest.(check bool)
        (Printf.sprintf "cut %d torn-tail report" cut)
        (not (Hashtbl.mem boundaries cut))
        (r.Store.truncated <> None)
  done;
  Alcotest.(check int) "last cut recovers all but the final record"
    (total - 1) !last_seen

(* open_dir must truncate the torn tail in place and keep working:
   append after recovery, reopen, and the new event is there. *)
let test_torn_tail_truncated_and_appendable () =
  let dir, _ = populated_dir () in
  let wal =
    Filename.concat dir
      (match Sys.readdir dir with
      | [| f |] -> f
      | _ -> Alcotest.fail "expected one segment")
  in
  let whole = read_file wal in
  write_file wal (String.sub whole 0 (String.length whole - 3));
  let store, recovery = open_ok dir in
  Alcotest.(check bool) "torn tail reported" true (recovery.Store.truncated <> None);
  Alcotest.(check (list string)) "no hard damage" []
    (List.map (fun d -> d.Store.reason) recovery.Store.damage);
  Store.append store
    (Persist.Rules { digest = "after-crash"; text = "form a\nbenefits b\nrule b := a" });
  Store.close store;
  match Store.read dir with
  | Error m -> Alcotest.fail m
  | Ok r ->
    let kinds = List.map Persist.kind r.Store.events in
    Alcotest.(check bool) "appended event recovered" true
      (List.exists
         (function
           | Persist.Rules { digest = "after-crash"; _ } -> true | _ -> false)
         r.Store.events);
    Alcotest.(check bool) "still no damage" true (r.Store.damage = []);
    ignore kinds

(* --- Recovery semantics --------------------------------------------------------- *)

let test_recovery_deterministic () =
  let dir, original = populated_dir () in
  let a, _ = recover_service dir in
  let b, _ = recover_service dir in
  Service.set_sink original Persist.null;
  let original = probe original and a = probe a in
  Alcotest.(check string) "replay twice, identical state" a (probe b);
  (* The recovered state and the original agree on everything durable:
     same sessions in the same states, the same grants linked to them,
     the same archive. *)
  Alcotest.(check string) "recovered state matches original" original a

let test_grant_ids_continue () =
  let dir, _ = populated_dir () in
  let service, _ = recover_service dir in
  (* Sessions s0 and s1 were submitted before the restart; a new
     session must be s2 and its grant must be 2. *)
  let created = expect_ok (request service "new_session" [ ("source", Json.String "running") ]) in
  Alcotest.(check string) "session ids continue" "s2"
    (Option.get (Json.string_opt (Option.get (Json.member "session" created))));
  ignore
    (expect_ok
       (request service "get_report"
          [ ("session", Json.String "s2"); ("valuation", Json.String "110") ]));
  ignore
    (expect_ok
       (request service "choose_option"
          [ ("session", Json.String "s2"); ("option", Json.Int 0) ]));
  let submitted =
    expect_ok (request service "submit_form" [ ("session", Json.String "s2") ])
  in
  Alcotest.(check int) "grant ids continue" 2
    (match Json.member "grant" submitted with
    | Some (Json.Int n) -> n
    | _ -> -1)

let test_r2_on_disk () =
  let dir, _ = populated_dir () in
  match Store.scan dir with
  | Error m -> Alcotest.fail m
  | Ok reports ->
    List.iter
      (fun (r : Store.file_report) ->
        Alcotest.(check (list string))
          (r.Store.file ^ " framing intact")
          []
          (List.map (fun d -> d.Store.reason) r.Store.damage);
        Alcotest.(check (list string))
          (r.Store.file ^ " holds no valuation")
          []
          (List.map (fun d -> d.Store.reason) r.Store.r2))
      reports;
    (* Raw bytes on disk never contain the valuation strings the
       respondents sent ("110" appears inside minimized forms only with
       blanks, but the JSON key "valuation" must be absent). *)
    List.iter
      (fun (r : Store.file_report) ->
        let bytes = read_file (Filename.concat dir r.Store.file) in
        let contains s =
          let n = String.length bytes and m = String.length s in
          let rec go i =
            i + m <= n && (String.sub bytes i m = s || go (i + 1))
          in
          go 0
        in
        Alcotest.(check bool) "no \"valuation\" key on disk" false
          (contains "\"valuation\""))
      reports

let test_midlog_corruption_localized () =
  let dir, _ = populated_dir () in
  let wal =
    Filename.concat dir
      (match Sys.readdir dir with
      | [| f |] -> f
      | _ -> Alcotest.fail "expected one segment")
  in
  let whole = read_file wal in
  (* Flip a byte inside the *second* record's payload: replay must keep
     the first record, stop there, and verify must name the offset of
     the record whose checksum broke. *)
  let second_offset =
    match Record.read whole 0 with
    | Record.Record { next; _ } -> next
    | _ -> Alcotest.fail "cannot find second record"
  in
  let target = second_offset + Record.header_bytes + 2 in
  let corrupted = Bytes.of_string whole in
  Bytes.set corrupted target (Char.chr (Char.code whole.[target] lxor 0xFF));
  write_file wal (Bytes.to_string corrupted);
  (match Store.read dir with
  | Error m -> Alcotest.failf "recovery raised/failed: %s" m
  | Ok r ->
    Alcotest.(check int) "clean prefix is the first record" 1
      (List.length r.Store.events);
    (match r.Store.damage with
    | [ d ] ->
      Alcotest.(check int) "damage at the record boundary" second_offset
        d.Store.offset
    | ds -> Alcotest.failf "expected one damage report, got %d" (List.length ds)));
  match Store.scan dir with
  | Error m -> Alcotest.fail m
  | Ok [ report ] ->
    (match report.Store.damage with
    | [ d ] ->
      Alcotest.(check int) "verify names the same offset" second_offset
        d.Store.offset
    | ds -> Alcotest.failf "scan: expected one damage report, got %d" (List.length ds))
  | Ok reports -> Alcotest.failf "expected one file report, got %d" (List.length reports)

(* Two shards draw grant ids from one ledger but can reach the single
   writer in either order, and a crash can cut an in-flight grant. A
   hand-built log with grants 1, 0, 3 (2 never logged) must recover
   every grant at its own id and pass the audit with a note; a
   duplicated id is the one thing both refuse. *)
let test_r2_nested_valuation () =
  (* A decodable [rules] event with a valuation tucked inside a field the
     decoder ignores: [store verify] and [pet audit] judge it by the same
     predicate, so both must flag it. *)
  let dir = temp_dir () in
  let text = Spec.to_string (Running.exposure ()) in
  let rules = Persist.Rules { digest = Pet_server.Registry.digest text; text } in
  let store, _ = open_ok dir in
  Store.append store rules;
  Store.close store;
  let tainted =
    match Persist.to_json rules with
    | Json.Obj fields ->
      Json.Obj
        (fields @ [ ("meta", Json.Obj [ ("valuation", Json.String "0101") ]) ])
    | _ -> Alcotest.fail "an event encodes as an object"
  in
  Alcotest.(check bool) "still decodable" true
    (Result.is_ok (Persist.of_json tainted));
  let wal =
    match Sys.readdir dir with
    | [| file |] -> Filename.concat dir file
    | files -> Alcotest.failf "expected one segment, found %d" (Array.length files)
  in
  write_file wal (read_file wal ^ Record.frame (Json.to_string tainted));
  (match Store.scan dir with
  | Error m -> Alcotest.fail m
  | Ok reports ->
    Alcotest.(check int) "store verify flags it" 1
      (List.fold_left
         (fun n (r : Store.file_report) -> n + List.length r.Store.r2)
         0 reports));
  match Pet_audit.Audit.run dir with
  | Error m -> Alcotest.fail m
  | Ok report ->
    let r2 =
      List.find
        (fun (p : Pet_audit.Audit.property) -> p.Pet_audit.Audit.name = "r2")
        report.Pet_audit.Audit.properties
    in
    Alcotest.(check int) "audit r2 flags it" 1
      (List.length r2.Pet_audit.Audit.violations);
    Alcotest.(check bool) "audit fails" false (Pet_audit.Audit.pass report)

let test_grants_swapped_and_gap () =
  let digest =
    let service = make_service () in
    Option.get
      (Json.string_opt
         (Option.get
            (Json.member "digest"
               (expect_ok
                  (request service "publish_rules"
                     [ ("source", Json.String "running") ])))))
  in
  let text = Option.get (resolve "running") in
  let session i = Printf.sprintf "s%d" i in
  let grant i =
    Persist.Grant
      {
        digest;
        grant_id = i;
        form = "_11";
        benefits = [ "b1" ];
        session = Some (session i);
        tenant = None;
        revoked = false;
      }
  in
  let log grants =
    let dir = temp_dir () in
    let store, _ = open_ok dir in
    Store.append store (Persist.Rules { digest; text });
    List.iter
      (fun i ->
        Store.append store
          (Persist.Session_created
             { id = session i; digest; tenant = None; at = float_of_int i }))
      [ 0; 1; 2; 3 ];
    List.iter (fun i -> Store.append store (grant i)) grants;
    Store.close store;
    dir
  in
  let replay dir =
    let recovery =
      match Store.read dir with Ok r -> r | Error m -> Alcotest.fail m
    in
    let service = make_service () in
    (service, Pet_net.Recovery.replay [| service |] recovery.Store.events)
  in
  let audit dir =
    match Pet_audit.Audit.run dir with Ok r -> r | Error m -> Alcotest.fail m
  in
  let dir = log [ 1; 0; 3 ] in
  let service, outcome = replay dir in
  Alcotest.(check (list string)) "swapped pair and gap replay cleanly" []
    outcome.Pet_net.Recovery.errors;
  let audited = expect_ok (request service "audit" [ ("digest", Json.String digest) ]) in
  Alcotest.(check int) "id slots up to the highest" 4
    (match Json.member "records" audited with Some (Json.Int n) -> n | _ -> -1);
  let report = audit dir in
  Alcotest.(check bool) "audit passes" true (Pet_audit.Audit.pass report);
  Alcotest.(check (option string)) "the gap is a note"
    (Some
       (Printf.sprintf
          "grant id 2 of ledger %s never reached the log: in flight at a crash"
          digest))
    report.Pet_audit.Audit.note;
  let dir = log [ 0; 1; 1 ] in
  let _, outcome = replay dir in
  Alcotest.(check int) "a duplicate id is a replay error" 1
    (List.length outcome.Pet_net.Recovery.errors);
  Alcotest.(check bool) "and an audit violation" false
    (Pet_audit.Audit.pass (audit dir))

(* --- Rotation and compaction ---------------------------------------------------- *)

let test_rotation () =
  (* A 256-byte threshold forces a rotation every record or two. *)
  let dir, _ = populated_dir ~segment_bytes:256 () in
  let segments =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> String.length f > 4 && String.sub f 0 4 = "wal-")
  in
  Alcotest.(check bool)
    (Printf.sprintf "several segments (%d)" (List.length segments))
    true
    (List.length segments > 1);
  let service, recovery = recover_service dir in
  Alcotest.(check int) "all files replayed" (List.length segments)
    recovery.Store.files;
  Alcotest.(check bool) "no damage across boundaries" true
    (recovery.Store.damage = [] && recovery.Store.truncated = None);
  ignore service

let test_compaction_equivalence () =
  let dir, _ = populated_dir () in
  let before = log_state dir in
  let recovered, recovery = recover_service dir in
  (* Offline squash with ttl 0 (keep every session), written back as a
     snapshot; recovering from the snapshot alone must rebuild the same
     state. *)
  let store, _ = open_ok dir in
  let compactor = Store.Compactor.create () in
  List.iter (Store.Compactor.add compactor) recovery.Store.events;
  let squashed = Store.Compactor.events ~ttl:0. compactor in
  (match Store.compact store ~events:squashed with
  | Ok _ -> ()
  | Error m -> Alcotest.failf "compact: %s" m);
  Store.close store;
  let files = Sys.readdir dir |> Array.to_list |> List.sort compare in
  Alcotest.(check bool) "old segments retired" true
    (List.for_all (fun f -> String.sub f 0 5 = "snap-" || String.sub f 0 4 = "wal-") files
    && List.exists (fun f -> String.sub f 0 5 = "snap-") files);
  Alcotest.(check string) "state survives compaction" before (log_state dir);
  let after, recovery' = recover_service dir in
  Alcotest.(check string) "recovered state survives compaction"
    (probe recovered) (probe after);
  Alcotest.(check bool) "snapshot is clean" true
    (recovery'.Store.damage = [] && recovery'.Store.truncated = None);
  (* And the compacted log still honours R2. *)
  match Store.scan dir with
  | Error m -> Alcotest.fail m
  | Ok reports ->
    List.iter
      (fun (r : Store.file_report) ->
        Alcotest.(check bool) (r.Store.file ^ " r2 clean") true (r.Store.r2 = []))
      reports

let test_online_compaction () =
  (* With a tiny segment size and a low auto-compaction threshold, the
     store asks for compaction; squashing its own replay chain must
     retire segments and keep the state identical. *)
  let dir = temp_dir () in
  let store, _ = open_ok ~segment_bytes:128 ~auto_compact_segments:2 dir in
  let service = make_service () in
  Service.set_sink service (Store.sink store);
  drive service;
  Alcotest.(check bool) "wants compaction" true (Store.wants_compaction store);
  let before = log_state dir in
  (match Store.compact_chain store with
  | Ok c -> Alcotest.(check bool) "files retired" true (c.Store.retired > 0)
  | Error m -> Alcotest.failf "compact: %s" m);
  Store.close store;
  Alcotest.(check string) "state survives online compaction" before
    (log_state dir);
  Service.set_sink service Persist.null;
  let live = probe service in
  let recovered, _ = recover_service dir in
  Alcotest.(check string) "recovered state matches the live one" live
    (probe recovered)


let test_compactor_tombstones () =
  (* The offline compactor applies the consent lifecycle at the log's
     own clock: revoked and expired sessions vanish, their grants
     squash to tombstones (id slot only, no form), and the lifecycle
     events themselves survive so recovery still refuses double
     revocations and re-arms horizons. *)
  let digest = "d1" in
  let grant i sid =
    Persist.Grant
      {
        digest;
        grant_id = i;
        form = "0_1";
        benefits = [ "b1" ];
        session = Some sid;
        tenant = None;
        revoked = false;
      }
  in
  let stream =
    [
      Persist.Rules { digest; text = "benefits b1 grants when p1" };
      Persist.Session_created { id = "s0"; digest; tenant = None; at = 1. };
      Persist.Session_created { id = "s1"; digest; tenant = None; at = 2. };
      Persist.Session_created { id = "s2"; digest; tenant = None; at = 3. };
      grant 0 "s0";
      Persist.Session_submitted { id = "s0"; grant_id = 0; at = 4. };
      grant 1 "s1";
      Persist.Session_submitted { id = "s1"; grant_id = 1; at = 5. };
      grant 2 "s2";
      Persist.Session_submitted { id = "s2"; grant_id = 2; at = 6. };
      Persist.Session_revoked { id = "s0"; at = 7. };
      (* A horizon the stream's own clock has already passed. *)
      Persist.Session_expiry { id = "s1"; horizon = 9.; at = 8. };
      Persist.Session_created { id = "s3"; digest; tenant = None; at = 20. };
    ]
  in
  let compactor = Store.Compactor.create () in
  List.iter (Store.Compactor.add compactor) stream;
  let squashed = Store.Compactor.events ~ttl:0. compactor in
  let grants =
    List.filter_map
      (function
        | Persist.Grant { grant_id; form; revoked; _ } ->
          Some (grant_id, form, revoked)
        | _ -> None)
      squashed
  in
  Alcotest.(check (list (triple int string bool)))
    "revoked and expired grants squash to tombstones"
    [ (0, "", true); (1, "", true); (2, "0_1", false) ]
    (List.sort compare grants);
  let session_ids =
    List.filter_map
      (function
        | Persist.Session_created { id; _ } -> Some id
        | _ -> None)
      squashed
  in
  Alcotest.(check (list string))
    "revoked and expired sessions dropped" [ "s2"; "s3" ]
    (List.sort compare session_ids);
  Alcotest.(check bool) "revocation event survives" true
    (List.exists
       (function Persist.Session_revoked { id; _ } -> id = "s0" | _ -> false)
       squashed);
  (* The expiry already applied at the log clock is also kept: replay
     re-arms it, which is idempotent against the tombstone. *)
  Alcotest.(check bool) "expiry event survives" true
    (List.exists
       (function Persist.Session_expiry { id; _ } -> id = "s1" | _ -> false)
       squashed)

let () =
  Alcotest.run "pet_store"
    [
      ( "record",
        [
          Alcotest.test_case "crc32 vector" `Quick test_crc32_vector;
          Alcotest.test_case "roundtrip" `Quick test_record_roundtrip;
          Alcotest.test_case "bitflip detected" `Quick test_record_bitflip;
        ] );
      ( "crash",
        [
          Alcotest.test_case "truncate everywhere" `Quick
            test_truncate_everywhere;
          Alcotest.test_case "torn tail truncated, then appendable" `Quick
            test_torn_tail_truncated_and_appendable;
        ] );
      ( "recovery",
        [
          Alcotest.test_case "deterministic" `Quick test_recovery_deterministic;
          Alcotest.test_case "grant ids continue" `Quick test_grant_ids_continue;
          Alcotest.test_case "r2 on disk" `Quick test_r2_on_disk;
          Alcotest.test_case "r2 nested valuation" `Quick
            test_r2_nested_valuation;
          Alcotest.test_case "grants swapped and a gap" `Quick
            test_grants_swapped_and_gap;
          Alcotest.test_case "corruption localized" `Quick
            test_midlog_corruption_localized;
        ] );
      ( "segments",
        [
          Alcotest.test_case "rotation" `Quick test_rotation;
          Alcotest.test_case "compaction equivalence" `Quick
            test_compaction_equivalence;
          Alcotest.test_case "online compaction" `Quick test_online_compaction;
          Alcotest.test_case "compaction tombstones revoked grants" `Quick
            test_compactor_tombstones;
        ] );
    ]
