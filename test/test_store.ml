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
module Segment = Pet_store.Segment
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

(* A crash-torn tail is a note for verify, as for recovery and the
   audit, not a fault; the same torn bytes in an earlier segment are
   damage for all of them. *)
let test_verify_torn_tail () =
  let lines f = String.split_on_char '\n' (Fmt.str "%t" f) |> List.filter (( <> ) "") in
  let views dir =
    let reports = match Store.scan dir with Ok r -> r | Error m -> Alcotest.fail m in
    let verdict = ref (Error "") in
    let verify = lines (fun ppf -> verdict := Store.verify ppf reports) in
    (verify, !verdict, lines (fun ppf -> Store.inspect ppf reports))
  in
  let dir, _ = populated_dir () in
  let wal = Filename.concat dir "wal-000000.log" in
  let size = String.length (read_file wal) in
  write_file wal (read_file wal ^ "cut");
  let verify, verdict, inspect = views dir in
  Alcotest.(check (result unit string)) "verify passes" (Ok ()) verdict;
  Alcotest.(check string) "verify notes the tail"
    (Printf.sprintf
       "note: torn tail in wal-000000.log at byte %d (truncated header (3 of 8 \
        bytes)): crash damage; recovery truncates it"
       size)
    (List.hd verify);
  Alcotest.(check bool) "then its ok line" true
    (String.starts_with ~prefix:"ok: " (List.nth verify 1));
  Alcotest.(check bool) "inspect marks the tail" true
    (String.ends_with ~suffix:"  torn tail" (List.hd inspect));
  (* A second process starts a fresh segment: the tail is no longer last. *)
  let store, _ = open_ok dir in
  Store.append store (Persist.Rules { digest = "later"; text = "form a\nbenefits b\nrule b := a" });
  Store.close store;
  write_file wal (read_file wal ^ "cut");
  let verify, verdict, inspect = views dir in
  Alcotest.(check (result unit string)) "verify fails" (Error "1 fault(s) in 2 file(s)") verdict;
  Alcotest.(check (list string)) "verify names the damage"
    [
      Printf.sprintf
        "damage: wal-000000.log at byte %d: torn mid-log: truncated header (3 of 8 bytes)" size;
    ]
    verify;
  Alcotest.(check bool) "inspect counts it damaged" true
    (String.ends_with ~suffix:"  1 damaged" (List.hd inspect))

(* The WAL and the flight journal are one segment family: the same
   payloads appended at the same segment size make byte-identical files.
   Cut both at every byte of the last segment's last frame, and of the
   first segment's last frame: recovery, scan (verify), the audit and
   the flight reader count the same records and agree on crash tail
   versus damage, at the same byte with the same reason. *)
let test_readers_agree () =
  let dir = temp_dir () in
  let store, _ = open_ok ~segment_bytes:4096 dir in
  let events =
    List.init 48 (fun i ->
        Persist.Rules { digest = Printf.sprintf "d%02d" i; text = String.make 80 'r' })
  in
  List.iter (Store.append store) events;
  Store.close store;
  (match Pet_store.Flight_log.open_dir ~segment_bytes:4096 dir with
  | Error m -> Alcotest.fail m
  | Ok fl ->
    List.iter
      (fun e -> Pet_store.Flight_log.append fl (Json.to_string (Persist.to_json e)))
      events;
    Pet_store.Flight_log.close fl);
  let wals = List.map snd (Segment.list dir "wal") in
  Alcotest.(check int) "two segments" 2 (List.length wals);
  let pristine = List.map (fun f -> read_file (Filename.concat dir f)) wals in
  List.iteri
    (fun k bytes ->
      Alcotest.(check bool) "the journal's bytes are the WAL's" true
        (bytes = read_file (Filename.concat dir (Segment.name "flight" k))))
    pristine;
  let total = List.length events in
  let frames bytes =
    let offsets = ref [] in
    ignore (Segment.walk bytes (fun offset _ -> offsets := offset :: !offsets));
    !offsets
  in
  List.iter
    (fun k ->
      let bytes = List.nth pristine k and last = k = 1 in
      let start = List.hd (frames bytes) in
      let before = List.length (frames (List.hd pristine)) - 1 in
      for cut = start to String.length bytes - 1 do
        let what = Printf.sprintf "segment %d cut at %d" k cut in
        List.iter
          (fun prefix ->
            write_file (Filename.concat dir (Segment.name prefix k)) (String.sub bytes 0 cut))
          [ "wal"; "flight" ];
        let torn = cut > start in
        let recovery = match Store.read dir with Ok r -> r | Error m -> Alcotest.fail m in
        let reports = match Store.scan dir with Ok r -> r | Error m -> Alcotest.fail m in
        let audit = match Pet_audit.Audit.run dir with Ok r -> r | Error m -> Alcotest.fail m in
        let flight, flight_damage =
          match Pet_store.Flight_log.fold dir ~init:0 (fun n _ -> n + 1) with
          | Ok r -> r
          | Error m -> Alcotest.fail m
        in
        let integrity =
          (List.find
             (fun (p : Pet_audit.Audit.property) -> p.Pet_audit.Audit.name = "integrity")
             audit.Pet_audit.Audit.properties)
            .Pet_audit.Audit.violations
        in
        let scanned = List.fold_left (fun n r -> n + r.Store.records) 0 reports in
        let damaged = List.concat_map (fun r -> r.Store.damage) reports in
        Alcotest.(check (list int)) (what ^ ": scan, audit and flight counts")
          [ total - 1; total - 1; total - 1 ]
          [ scanned; audit.Pet_audit.Audit.records; flight ];
        if last || not torn then begin
          (* a crash tail, or a clean boundary: every reader goes on *)
          Alcotest.(check int) (what ^ ": recovery count") (total - 1) recovery.Store.records;
          Alcotest.(check (list bool)) (what ^ ": crash tail, everywhere or nowhere")
            [ torn; torn; torn ]
            [
              recovery.Store.truncated <> None;
              List.exists (fun r -> r.Store.tail <> None) reports;
              audit.Pet_audit.Audit.note <> None;
            ];
          Alcotest.(check int) (what ^ ": no damage") 0
            (List.length recovery.Store.damage + List.length damaged + List.length integrity
           + List.length flight_damage)
        end
        else begin
          (* damage: recovery stops there, the others report it and go on *)
          Alcotest.(check int) (what ^ ": recovery stops at the damage") before
            recovery.Store.records;
          let d = match recovery.Store.damage with [ d ] -> d | _ -> Alcotest.fail what in
          Alcotest.(check (list (pair int string))) (what ^ ": one damage, one place, one reason")
            [ (start, d.Store.reason); (start, d.Store.reason); (start, d.Store.reason) ]
            (List.map (fun (d : Segment.damage) -> (d.offset, d.reason)) (damaged @ flight_damage)
            @ List.map
                (fun (v : Pet_audit.Audit.violation) -> (v.offset, v.detail))
                integrity);
          Alcotest.(check bool) (what ^ ": no crash tail") true
            (recovery.Store.truncated = None
            && List.for_all (fun r -> r.Store.tail = None) reports
            && audit.Pet_audit.Audit.note = None)
        end
      done;
      List.iter
        (fun prefix -> write_file (Filename.concat dir (Segment.name prefix k)) bytes)
        [ "wal"; "flight" ])
    [ 1; 0 ]

(* A snapshot is renamed into place whole, so a torn one is damage even
   when it ends the replay chain (right after a compaction, before any
   append): verify and the audit fail it, and recovery stops there
   without cutting the file. *)
let test_torn_snapshot_is_damage () =
  let dir = temp_dir () in
  let store, _ = open_ok dir in
  List.iter (Store.append store)
    [
      Persist.Rules { digest = "a"; text = "form a\nbenefits b\nrule b := a" };
      Persist.Rules { digest = "b"; text = "form b\nbenefits c\nrule c := b" };
    ];
  (match Store.compact_chain store with
  | Ok c -> Alcotest.(check int) "both events kept" 2 c.Store.kept
  | Error m -> Alcotest.fail m);
  Store.close store;
  let snap =
    match Segment.list dir "snap" with
    | [ (_, file) ] -> file
    | _ -> Alcotest.fail "one snapshot"
  in
  Alcotest.(check (list string)) "the snapshot ends the chain" []
    (List.map snd (Segment.list dir "wal"));
  let path = Filename.concat dir snap in
  let bytes = read_file path in
  let cut = String.length bytes - 5 in
  write_file path (String.sub bytes 0 cut);
  let reports = match Store.scan dir with Ok r -> r | Error m -> Alcotest.fail m in
  Alcotest.(check (result unit string)) "verify fails" (Error "1 fault(s) in 1 file(s)")
    (Store.verify Format.str_formatter reports);
  ignore (Format.flush_str_formatter ());
  Alcotest.(check bool) "no torn-tail note" true
    (List.for_all (fun r -> r.Store.tail = None) reports);
  let audit = match Pet_audit.Audit.run dir with Ok r -> r | Error m -> Alcotest.fail m in
  Alcotest.(check bool) "audit fails" false (Pet_audit.Audit.pass audit);
  Alcotest.(check bool) "audit has no note" true (audit.Pet_audit.Audit.note = None);
  let _, recovery = open_ok dir in
  Alcotest.(check int) "recovery keeps the clean prefix" 1 recovery.Store.records;
  Alcotest.(check bool) "recovery reports damage, not a tail" true
    (recovery.Store.truncated = None
    && List.map (fun (d : Segment.damage) -> (d.file, d.offset)) recovery.Store.damage
       = List.map (fun (d : Segment.damage) -> (d.file, d.offset))
           (List.concat_map (fun r -> r.Store.damage) reports));
  Alcotest.(check int) "the snapshot is not cut" cut (String.length (read_file path))

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

(* The views behind pet store inspect/verify/replay/compact, on a
   healthy directory and after a flipped byte. *)
let test_offline_views () =
  let dir, _ = populated_dir () in
  let reports = match Store.scan dir with Ok r -> r | Error m -> Alcotest.fail m in
  let recovery = match Store.read dir with Ok r -> r | Error m -> Alcotest.fail m in
  let events = List.length recovery.Store.events in
  let lines f = String.split_on_char '\n' (Fmt.str "%t" f) |> List.filter (( <> ) "") in
  let inspect = lines (fun ppf -> Store.inspect ppf reports) in
  Alcotest.(check string) "totals"
    (Printf.sprintf "total: 1 file(s), %d bytes, %d record(s)"
       (List.hd reports).Store.bytes events)
    (List.nth inspect 1);
  let count l = int_of_string (List.hd (List.rev (String.split_on_char ' ' l))) in
  Alcotest.(check int) "kinds sum to the records" events
    (List.fold_left (fun acc l -> acc + count l) 0 (List.filteri (fun i _ -> i >= 2) inspect));
  let verified = ref (Error "") in
  Alcotest.(check (list string)) "verify"
    [
      Printf.sprintf
        "ok: %d record(s) in 1 file(s); every checksum holds and no decoded event carries a \
         raw valuation (R2 on disk)"
        events;
    ]
    (lines (fun ppf -> verified := Store.verify ppf reports));
  Alcotest.(check (result unit string)) "verify passes" (Ok ()) !verified;
  let replayed = ref (Error "") in
  Alcotest.(check int) "one JSON line per event" events
    (List.length (lines (fun ppf -> replayed := Store.replay ppf dir)));
  Alcotest.(check (result unit string)) "replay passes" (Ok ()) !replayed;
  (* Damage: verify names it, replay stops at it. *)
  let wal = Filename.concat dir (List.hd reports).Store.file in
  let whole = read_file wal in
  let second =
    match Record.read whole 0 with
    | Record.Record { next; _ } -> next
    | _ -> Alcotest.fail "cannot find second record"
  in
  let corrupted = Bytes.of_string whole in
  let target = second + Record.header_bytes + 2 in
  Bytes.set corrupted target (Char.chr (Char.code whole.[target] lxor 0xFF));
  write_file wal (Bytes.to_string corrupted);
  let reports = match Store.scan dir with Ok r -> r | Error m -> Alcotest.fail m in
  let faults = lines (fun ppf -> verified := Store.verify ppf reports) in
  Alcotest.(check (result unit string)) "verify fails" (Error "1 fault(s) in 1 file(s)") !verified;
  Alcotest.(check bool) "fault line" true
    (String.starts_with
       ~prefix:(Printf.sprintf "damage: %s at byte %d: " (List.hd reports).Store.file second)
       (List.hd faults));
  Alcotest.(check int) "replay prints the clean prefix" 1
    (List.length (lines (fun ppf -> replayed := Store.replay ppf dir)));
  Alcotest.(check bool) "replay names the stop" true
    (match !replayed with
    | Error m ->
      String.starts_with ~prefix:(Printf.sprintf "replay stopped at byte %d of " second) m
    | Ok () -> false);
  (* compact_dir squashes the clean prefix when told about the damage *)
  let warned = ref 0 in
  match Store.compact_dir ~ttl:0. ~on_damage:(fun _ -> incr warned) dir with
  | Error m -> Alcotest.fail m
  | Ok c ->
    Alcotest.(check (list int)) "read, kept, warned" [ 1; 1; 1 ] [ c.Store.read; c.Store.kept; !warned ]

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
          Alcotest.test_case "verify notes a torn tail" `Quick test_verify_torn_tail;
          Alcotest.test_case "every reader agrees at every byte" `Quick test_readers_agree;
          Alcotest.test_case "a torn snapshot is damage" `Quick test_torn_snapshot_is_damage;
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
          Alcotest.test_case "offline views" `Quick test_offline_views;
          Alcotest.test_case "compaction equivalence" `Quick
            test_compaction_equivalence;
          Alcotest.test_case "online compaction" `Quick test_online_compaction;
          Alcotest.test_case "compaction tombstones revoked grants" `Quick
            test_compactor_tombstones;
        ] );
    ]
