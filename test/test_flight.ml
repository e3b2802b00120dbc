(* Tests for the flight-recorder stack: the delta encoder, the on-disk
   segment family (rotation, retention, torn tails, mid-journal
   damage), the SLO window/burn math over accounting cells, reading
   journals and watch frames back, and the metrics registry under
   concurrent multi-domain registration and observation. *)

module Metrics = Pet_obs.Metrics
module Flight = Pet_obs.Flight
module Slo = Pet_obs.Slo
module Accounting = Pet_server.Accounting
module Flight_log = Pet_store.Flight_log
module Segment = Pet_store.Segment

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i =
    i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1))
  in
  go 0

let fresh () =
  Metrics.reset ();
  Metrics.enable ();
  let t = ref 0. in
  Metrics.set_clock (fun () ->
      t := !t +. 1.0;
      !t)

let temp_dir =
  let counter = ref 0 in
  fun () ->
    incr counter;
    let dir =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "pet_test_flight_%d_%d" (Unix.getpid ()) !counter)
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
    Unix.mkdir dir 0o755;
    dir

(* --- Encoder -------------------------------------------------------------------- *)

let test_encoder_deltas () =
  fresh ();
  let c = Metrics.counter "flight_test_total" in
  let g = Metrics.gauge "flight_test_depth" in
  let h = Metrics.histogram "flight_test_seconds" in
  Metrics.add c 5;
  Metrics.set_gauge g 2.;
  Metrics.observe h 0.001;
  Metrics.observe h 0.001;
  let enc = Flight.create () in
  let r1 = Flight.snap enc ~now:1. (Metrics.snapshot ()) in
  Alcotest.(check bool) "first snap is a full dump" true
    (contains r1 {|"flight_test_total":5|});
  Alcotest.(check bool) "first snap carries the gauge" true
    (contains r1 {|"flight_test_depth":2|});
  Alcotest.(check bool) "first snap carries hist n" true
    (contains r1 {|"n":2|});
  Alcotest.(check bool) "seq starts at 1" true (contains r1 {|"seq":1|});
  (* Nothing changed: the next snap carries no instrument sections. *)
  let r2 = Flight.snap enc ~now:2. (Metrics.snapshot ()) in
  Alcotest.(check bool) "quiet snap has no counters" false
    (contains r2 "counters");
  Alcotest.(check bool) "quiet snap has no gauges" false (contains r2 "gauges");
  Alcotest.(check bool) "quiet snap has no hist" false (contains r2 "hist");
  Alcotest.(check bool) "seq is gap-free" true (contains r2 {|"seq":2|});
  (* Only the increments appear, not the cumulative values. *)
  Metrics.add c 3;
  Metrics.observe h 0.001;
  let r3 = Flight.snap enc ~now:3. (Metrics.snapshot ()) in
  Alcotest.(check bool) "counter delta" true
    (contains r3 {|"flight_test_total":3|});
  Alcotest.(check bool) "not the cumulative value" false
    (contains r3 {|"flight_test_total":8|});
  Alcotest.(check bool) "hist delta n" true (contains r3 {|"n":1|});
  Alcotest.(check bool) "unchanged gauge omitted" false
    (contains r3 "flight_test_depth");
  (* The WAL frontier stamp is verbatim. *)
  let r4 =
    Flight.snap enc ~wal:("wal-000007.log", 4242) ~now:4.
      (Metrics.snapshot ())
  in
  Alcotest.(check bool) "wal stamp" true
    (contains r4 {|"wal":{"file":"wal-000007.log","off":4242}|})

let test_encoder_traces_and_meta () =
  fresh ();
  let enc = Flight.create () in
  let tr =
    {
      Pet_obs.Trace.id = "t-1";
      started = 0.;
      duration = 0.25;
      slow = true;
      annotations = [ ("method", Pet_obs.Trace.String "get_report") ];
      spans = [];
    }
  in
  let rs = Flight.slow_traces enc ~now:1. [ tr ] in
  Alcotest.(check int) "one record" 1 (List.length rs);
  Alcotest.(check bool) "trace id" true (contains (List.hd rs) {|"id":"t-1"|});
  let rs' = Flight.slow_traces enc ~now:2. [ tr ] in
  Alcotest.(check int) "each trace journaled once" 0 (List.length rs');
  let m = Flight.meta enc ~now:3. ~event:"exit" [ ("mode", "test") ] in
  Alcotest.(check bool) "meta event" true (contains m {|"event":"exit"|});
  Alcotest.(check bool) "meta fields" true (contains m {|"mode":"test"|})

(* --- Segments ------------------------------------------------------------------- *)

let write_records dir ?segment_bytes ?keep records =
  match Flight_log.open_dir ?segment_bytes ?keep dir with
  | Error m -> Alcotest.failf "open_dir: %s" m
  | Ok fl ->
    List.iter (Flight_log.append fl) records;
    Flight_log.close fl

let read_all dir =
  match
    Flight_log.fold dir ~init:[] (fun acc r ->
        r.Flight_log.payload :: acc)
  with
  | Error m -> Alcotest.failf "fold: %s" m
  | Ok (acc, damage) -> (List.rev acc, damage)

(* Segment sizes clamp at 4 KiB, so rotation tests need fat records. *)
let fat_record i =
  Printf.sprintf "{\"flight\":1,\"seq\":%d,\"pad\":\"%s\"}" i
    (String.make 64 'x')

let test_segment_roundtrip () =
  let dir = temp_dir () in
  let records = List.init 200 fat_record in
  write_records dir ~segment_bytes:4096 ~keep:100 records;
  let got, damage = read_all dir in
  Alcotest.(check (list string)) "all records back in order" records got;
  Alcotest.(check int) "no damage" 0 (List.length damage);
  (* Rotation happened: more than one segment on disk. *)
  let segments =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Segment.parse_name "flight" f <> None)
  in
  Alcotest.(check bool) "rotated" true (List.length segments > 1)

let test_segment_retention () =
  let dir = temp_dir () in
  let records = List.init 400 fat_record in
  write_records dir ~segment_bytes:4096 ~keep:2 records;
  let segments =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Segment.parse_name "flight" f <> None)
  in
  (* keep sealed segments plus the live one. *)
  Alcotest.(check bool) "retention bounds the family"
    true
    (List.length segments <= 3);
  (* The tail of the stream survives pruning. *)
  let got, _ = read_all dir in
  Alcotest.(check bool) "latest records survive" true
    (List.mem (fat_record 399) got)

let test_torn_tail_is_silent () =
  let dir = temp_dir () in
  let records = List.init 5 (Printf.sprintf "{\"flight\":1,\"seq\":%d}") in
  write_records dir records;
  (* Chop bytes off the last (only) segment, mid-record: the kill -9
     signature. Readers must truncate silently. *)
  let file = Filename.concat dir (Segment.name "flight" 0) in
  let size = (Unix.stat file).Unix.st_size in
  let fd = Unix.openfile file [ Unix.O_WRONLY ] 0o644 in
  Unix.ftruncate fd (size - 3);
  Unix.close fd;
  let got, damage = read_all dir in
  Alcotest.(check int) "torn tail reported nowhere" 0 (List.length damage);
  Alcotest.(check (list string))
    "every whole record survives"
    (List.filteri (fun i _ -> i < 4) records)
    got

let test_mid_journal_damage_is_reported () =
  let dir = temp_dir () in
  let records = List.init 200 fat_record in
  write_records dir ~segment_bytes:4096 ~keep:100 records;
  (* Flip a payload byte inside the first (sealed) segment: the CRC
     catches it, the damage is reported, and scanning continues with
     the next segment. *)
  let file = Filename.concat dir (Segment.name "flight" 0) in
  let fd = Unix.openfile file [ Unix.O_WRONLY ] 0o644 in
  ignore (Unix.lseek fd 20 Unix.SEEK_SET);
  ignore (Unix.write_substring fd "~" 0 1);
  Unix.close fd;
  let got, damage = read_all dir in
  Alcotest.(check bool) "damage reported" true (List.length damage >= 1);
  let d = List.hd damage in
  Alcotest.(check string) "damage names the segment" (Segment.name "flight" 0)
    d.Segment.file;
  Alcotest.(check bool) "later segments still read" true
    (List.mem (fat_record 199) got)

(* Telemetry must not take its caller down: when the next segment
   cannot be opened (here a directory holds its name), appends fail with
   [Sys_error], the one error type their callers catch. *)
let test_unopenable_segment_raises_sys_error () =
  let dir = temp_dir () in
  match Flight_log.open_dir ~segment_bytes:4096 dir with
  | Error m -> Alcotest.failf "open_dir: %s" m
  | Ok fl ->
    Unix.mkdir (Filename.concat dir (Segment.name "flight" 1)) 0o755;
    (* 60 fat records seal segment 0 and reach segment 1 *)
    (match Flight_log.append_batch fl (List.init 60 fat_record) with
    | () -> Alcotest.fail "append_batch succeeded"
    | exception Sys_error _ -> ());
    (match Flight_log.append fl (fat_record 60) with
    | () -> Alcotest.fail "append succeeded"
    | exception Sys_error _ -> ());
    Flight_log.close fl

(* --- SLO ------------------------------------------------------------------------- *)

(* SLO windows live in the per-request accounting cells; these tests
   record into one shard's set directly and judge its windows. *)
let meth name =
  Option.get (Array.find_index (String.equal name) Accounting.methods)

(* One key's SLO gauges in the snapshot merged from [sets] at [now]. *)
let slo_gauges sets key ~now =
  let s = Accounting.snapshot sets ~now (Metrics.snapshot ()) in
  fun family ->
    List.assoc_opt (Printf.sprintf "%s{slo=\"%s\"}" family key) s.Metrics.gauges

let test_slo_window_and_burn () =
  fresh ();
  let acct = Accounting.create () in
  (* 100 requests at 1ms, 2 errors: under the 50ms p99 target, over the
     1% error budget. *)
  for i = 1 to 100 do
    Accounting.record acct ~meth:(meth "get_report") ~tenant:None
      ~now:(float_of_int i /. 10.) ~latency:0.001 ~error:(i <= 2)
  done;
  let g = slo_gauges [ acct ] "get_report" ~now:10. in
  let v family = Option.get (g family) in
  Alcotest.(check (float 0.)) "windowed requests" 100. (v "pet_slo_window_requests");
  Alcotest.(check (float 1e-9)) "error ratio" 0.02 (v "pet_slo_error_ratio");
  Alcotest.(check bool) "p99 under target" true (v "pet_slo_p99_seconds" <= 0.05);
  Alcotest.(check (float 1e-9)) "latency burn" 0. (v "pet_slo_latency_burn");
  (* 2% errors against a 1% objective burns at 2x. *)
  Alcotest.(check (float 1e-9)) "error burn" 2. (v "pet_slo_error_burn");
  Alcotest.(check (float 0.)) "breached" 1. (v "pet_slo_breached");
  (* The same series evaluated after the window passed is empty: slices
     age out by alignment alone. *)
  let g' = slo_gauges [ acct ] "get_report" ~now:1000. in
  Alcotest.(check (option (float 0.))) "aged out" (Some 0.) (g' "pet_slo_window_requests");
  Alcotest.(check (option (float 0.))) "no longer breached" (Some 0.) (g' "pet_slo_breached");
  (* Two shards' sets merge into one window. *)
  let other = Accounting.create () in
  Accounting.record other ~meth:(meth "get_report") ~tenant:None ~now:9.
    ~latency:0.001 ~error:true;
  let g2 = slo_gauges [ acct; other ] "get_report" ~now:10. in
  Alcotest.(check (option (float 0.))) "merged requests" (Some 101.)
    (g2 "pet_slo_window_requests");
  Alcotest.(check (option (float 1e-9))) "merged errors" (Some (3. /. 101.))
    (g2 "pet_slo_error_ratio");
  Alcotest.(check (option (float 0.))) "unknown key" None
    (slo_gauges [ acct ] "tenant:nobody" ~now:10. "pet_slo_window_requests")

let test_slo_latency_burn () =
  fresh ();
  let acct = Accounting.create () in
  (* 5 of 100 requests over the 50ms target: 5% consumption against a
     1% budget burns at 5x. *)
  for i = 1 to 100 do
    Accounting.record acct ~meth:(meth "submit_form") ~tenant:(Some "acme")
      ~now:(float_of_int i /. 10.)
      ~latency:(if i mod 20 = 0 then 0.5 else 0.001)
      ~error:false
  done;
  List.iter
    (fun key ->
      let v family = Option.get (slo_gauges [ acct ] key ~now:10. family) in
      Alcotest.(check (float 1e-9)) (key ^ " latency burn") 5. (v "pet_slo_latency_burn");
      Alcotest.(check bool) (key ^ " p99 over target") true (v "pet_slo_p99_seconds" > 0.05);
      Alcotest.(check (float 0.)) (key ^ " breached") 1. (v "pet_slo_breached");
      Alcotest.(check (float 1e-9)) (key ^ " error burn") 0. (v "pet_slo_error_burn"))
    [ "submit_form"; "tenant:acme" ];
  (* Over-target counting is bucket-granular around the target. *)
  let window = { Metrics.count = 100; sum = 0.; max = 0.5; buckets = [ (0.001024, 95); (0.524288, 5) ] } in
  Alcotest.(check int) "over target" 5 (Slo.evaluate "k" ~errors:0 window).Slo.over_target

let test_slo_sync_gauges () =
  fresh ();
  let acct = Accounting.create () in
  Accounting.record acct ~meth:(meth "stats") ~tenant:None ~now:1.
    ~latency:0.001 ~error:false;
  let s = Accounting.snapshot [ acct ] ~now:1. (Metrics.snapshot ()) in
  let gauge name =
    List.assoc (Printf.sprintf "%s{slo=\"stats\"}" name) s.Metrics.gauges
  in
  Alcotest.(check (float 0.)) "window requests gauge" 1.
    (gauge "pet_slo_window_requests");
  Alcotest.(check (float 0.)) "breached gauge" 0. (gauge "pet_slo_breached");
  (* Keys that never recorded a request have no SLO series. *)
  Alcotest.(check bool) "no series for an unused method" false
    (List.mem_assoc "pet_slo_breached{slo=\"audit\"}" s.Metrics.gauges)

let test_method_index () =
  (* The static index agrees with the wire name of every request. *)
  List.iter
    (fun line ->
      match Pet_server.Proto.decode line with
      | Error _ -> Alcotest.failf "does not decode: %s" line
      | Ok { Pet_server.Proto.request; _ } ->
        Alcotest.(check string) line
          (Pet_server.Proto.method_name request)
          Accounting.methods.(Accounting.method_index request))
    [
      {|{"pet":1,"id":1,"method":"publish_rules","params":{"source":"x"}}|};
      {|{"pet":1,"id":1,"method":"update_rules","params":{"tenant":"a","source":"x"}}|};
      {|{"pet":1,"id":1,"method":"tenant"}|};
      {|{"pet":1,"id":1,"method":"new_session","params":{"source":"x"}}|};
      {|{"pet":1,"id":1,"method":"get_report","params":{"session":"s","valuation":"1"}}|};
      {|{"pet":1,"id":1,"method":"choose_option","params":{"session":"s","option":0}}|};
      {|{"pet":1,"id":1,"method":"submit_form","params":{"session":"s"}}|};
      {|{"pet":1,"id":1,"method":"revoke","params":{"session":"s"}}|};
      {|{"pet":1,"id":1,"method":"expire","params":{"session":"s","after":1}}|};
      {|{"pet":1,"id":1,"method":"audit","params":{"source":"x"}}|};
      {|{"pet":1,"id":1,"method":"stats"}|};
      {|{"pet":1,"id":1,"method":"metrics"}|};
      {|{"pet":1,"id":1,"method":"trace","params":{"query":"last"}}|};
      {|{"pet":1,"id":1,"method":"watch","params":{"frames":1}}|};
    ];
  Alcotest.(check string) "invalid" "invalid" Accounting.methods.(Accounting.invalid)

(* --- Reading snapshots back ------------------------------------------------------ *)

module View = Pet_store.Flight_view

let test_view_labels_and_p99 () =
  Alcotest.(check (pair string (list (pair string string))))
    "escaped label values"
    ("fam", [ ("a", "x\"y"); ("b", "z") ])
    (View.metric_labels {|fam{a="x\"y",b="z"}|});
  Alcotest.(check (pair string (list (pair string string))))
    "no labels" ("fam", []) (View.metric_labels "fam");
  Alcotest.(check (float 0.)) "+Inf bound" infinity (View.le_value "+Inf");
  Alcotest.(check (float 0.)) "finite bound" 0.25 (View.le_value "0.25");
  (* 100 observations, the 99th in the 0.5 bucket. *)
  Alcotest.(check (float 0.)) "p99 bucket" 0.5
    (View.p99 [ (0.5, 2); (0.001, 98) ] 100);
  (* Landing in +Inf reads as the largest finite bound present. *)
  Alcotest.(check (float 0.)) "+Inf clamp" 0.5
    (View.p99 [ (0.001, 50); (0.5, 1); (infinity, 49) ] 100);
  Alcotest.(check (float 0.)) "empty" 0. (View.p99 [] 0)

let test_view_journal_and_frames () =
  fresh ();
  let dir = temp_dir () in
  let acct = Accounting.create () in
  let record ~tenant ~latency ~error =
    Accounting.record acct ~meth:(meth "get_report") ~tenant ~now:1. ~latency
      ~error
  in
  let snap enc ~now = Flight.snap enc ~now (Accounting.snapshot [ acct ] ~now:1. (Metrics.snapshot ())) in
  let enc = Flight.create () in
  for _ = 1 to 3 do record ~tenant:(Some "acme") ~latency:0.001 ~error:false done;
  let r1 = snap enc ~now:1. in
  record ~tenant:None ~latency:0.2 ~error:true;
  let r2 = snap enc ~now:2. in
  write_records dir [ Flight.meta enc ~now:0. ~event:"start" []; r1; r2 ];
  (match Result.map View.to_json (View.report dir) with
  | Error m -> Alcotest.fail m
  | Ok j ->
    let get keys = List.fold_left (fun j k -> Option.get (Pet_pet.Json.member k j)) j keys in
    let rows key label =
      match get [ key ] with
      | Pet_pet.Json.List rows ->
        List.map
          (fun r -> Pet_pet.Json.to_string (Pet_pet.Json.Obj [ (label, Option.get (Pet_pet.Json.member label r)); ("requests", Option.get (Pet_pet.Json.member "requests" r)) ]))
          rows
      | _ -> Alcotest.fail key
    in
    Alcotest.(check string) "records" "3" (Pet_pet.Json.to_string (get [ "records" ]));
    Alcotest.(check string) "snaps" "2" (Pet_pet.Json.to_string (get [ "kinds"; "snap" ]));
    Alcotest.(check string) "lifecycle" {|[{"event":"start","t":0}]|}
      (Pet_pet.Json.to_string (get [ "lifecycle" ]));
    (* Deltas sum back to the cumulative distribution. *)
    Alcotest.(check (list string)) "methods" [ {|{"method":"get_report","requests":4}|} ]
      (rows "methods" "method");
    Alcotest.(check (list string)) "tenants" [ {|{"tenant":"acme","requests":3}|} ]
      (rows "tenants" "tenant");
    match get [ "slo" ] with
    | Pet_pet.Json.List slos ->
      let slo =
        List.find (fun r -> Pet_pet.Json.member "key" r = Some (Pet_pet.Json.String "get_report")) slos
      in
      Alcotest.(check string) "window requests, last seen" "4"
        (Pet_pet.Json.to_string (Option.get (Pet_pet.Json.member "window_requests" slo)));
      Alcotest.(check string) "breached" "true"
        (Pet_pet.Json.to_string (Option.get (Pet_pet.Json.member "breached" slo)))
    | _ -> Alcotest.fail "slo");
  (* The text view prints from the same typed report. *)
  let text = Fmt.str "%a" View.pp_report (Result.get_ok (View.report dir)) in
  let lines = String.split_on_char '\n' text in
  Alcotest.(check (list string)) "text head"
    [
      Printf.sprintf "flight journal %s: 3 records (2 snap, 0 log, 0 trace, 1 meta)" dir;
      "  time range t=0..2";
      "  lifecycle start at t=0";
      "per-method latency (reconstructed):";
    ]
    (List.filteri (fun i _ -> i < 4) lines);
  Alcotest.(check bool) "method row" true
    (List.exists (fun l -> String.starts_with ~prefix:"  get_report              4 requests" l) lines);
  Alcotest.(check bool) "breach marked" true
    (List.exists (fun l -> String.ends_with ~suffix:"BREACHED" l) lines);
  (* Watch frames are full snapshots: the second's interval p99 covers
     only the slow request. *)
  let frame ~now =
    Option.get
      (View.frame
         (Printf.sprintf {|{"pet":1,"id":1,"ok":{"watch":%s}}|}
            (Flight.snap (Flight.create ()) ~now
               (Accounting.snapshot [ acct ] ~now:1. (Metrics.snapshot ())))))
  in
  let f1 = frame ~now:1. in
  Alcotest.(check bool) "no hold row before a reply was held" false
    (List.exists
       (String.starts_with ~prefix:"reply hold")
       (String.split_on_char '\n' (Fmt.str "%a" (View.pp_frame ~addr:"A" ~frame_no:1 ?prev:None) f1)));
  record ~tenant:None ~latency:0.4 ~error:false;
  Accounting.record_hold acct 0.002;
  let f2 = frame ~now:2. in
  Alcotest.(check (float 0.)) "errors counter" 1.
    (View.sample f2.View.counters "pet_server_errors_total");
  let row = List.find (fun (m, _, _, _) -> m = "get_report") (View.method_latency ~prev:f1 f2) in
  let _, n, pn, p99 = row in
  Alcotest.(check (list (float 0.))) "count, previous count" [ 5.; 4. ] [ n; pn ];
  Alcotest.(check bool) "interval p99 is the new request's bucket" true
    (p99 >= 0.4 && p99 < 0.9);
  Alcotest.(check bool) "not a watch frame" true (View.frame {|{"ok":{}}|} = None);
  let top = Fmt.str "%a" (View.pp_frame ~addr:"A" ~frame_no:2 ~prev:f1) f2 in
  let lines = String.split_on_char '\n' top in
  Alcotest.(check string) "top title" "pet top A — frame 2, t=2" (List.hd lines);
  (* no new error over the one-second interval (arrivals are not
     recorded here, so the request total stays 0) *)
  Alcotest.(check string) "rates"
    "requests        0      0.0/s   errors        1      0.0/s" (List.nth lines 1);
  Alcotest.(check bool) "per-method row" true
    (List.exists (fun l -> String.starts_with ~prefix:"  get_report              5 req      1.0/s" l) lines);
  Alcotest.(check bool) "reply hold row" true
    (List.exists (String.starts_with ~prefix:"reply hold        1 rep      1.0/s  p99 <= ") lines);
  let first = Fmt.str "%a" (View.pp_frame ~addr:"A" ~frame_no:1 ?prev:None) f1 in
  Alcotest.(check string) "no rate on the first frame"
    "requests        0        --   errors        1        --"
    (List.nth (String.split_on_char '\n' first) 1)

(* --- Concurrency ----------------------------------------------------------------- *)

(* Registration and observation from several domains at once: the
   registry must neither lose instruments nor drop observations. Each
   domain registers the same shared instruments (by name) plus one
   private labeled counter, then hammers them. *)
let test_multi_domain_observation () =
  fresh ();
  let domains = 4 and iters = 5_000 in
  let worker d () =
    let c = Metrics.counter "flight_mt_total" in
    let mine =
      Metrics.counter ~labels:[ ("domain", string_of_int d) ]
        "flight_mt_domain_total"
    in
    let h = Metrics.histogram "flight_mt_seconds" in
    for i = 1 to iters do
      Metrics.incr c;
      Metrics.incr mine;
      Metrics.observe h (float_of_int (i mod 7) /. 1000.)
    done
  in
  let ds = List.init domains (fun d -> Domain.spawn (worker d)) in
  List.iter Domain.join ds;
  let s = Metrics.snapshot () in
  let counter name = List.assoc name s.Metrics.counters in
  Alcotest.(check int) "shared counter conserved" (domains * iters)
    (counter "flight_mt_total");
  for d = 0 to domains - 1 do
    Alcotest.(check int)
      (Printf.sprintf "domain %d counter" d)
      iters
      (counter (Printf.sprintf "flight_mt_domain_total{domain=\"%d\"}" d))
  done;
  let h = List.assoc "flight_mt_seconds" s.Metrics.histograms in
  Alcotest.(check int) "histogram count conserved" (domains * iters)
    h.Metrics.count

(* Snapshots taken while another domain records must stay well-formed
   and monotone: deltas never go negative across a snap sequence. *)
let test_snap_under_concurrent_writes () =
  fresh ();
  let stop = Atomic.make false in
  let writer =
    Domain.spawn (fun () ->
        let c = Metrics.counter "flight_mt_live_total" in
        while not (Atomic.get stop) do
          Metrics.incr c
        done)
  in
  let enc = Flight.create () in
  let records =
    List.init 50 (fun i ->
        Flight.snap enc ~now:(float_of_int i) (Metrics.snapshot ()))
  in
  Atomic.set stop true;
  Domain.join writer;
  List.iter
    (fun r ->
      Alcotest.(check bool) "no negative counter delta" false
        (contains r {|"flight_mt_live_total":-|}))
    records

let () =
  Alcotest.run "flight"
    [
      ( "encoder",
        [
          Alcotest.test_case "delta encoding" `Quick test_encoder_deltas;
          Alcotest.test_case "traces and meta" `Quick
            test_encoder_traces_and_meta;
        ] );
      ( "segments",
        [
          Alcotest.test_case "roundtrip and rotation" `Quick
            test_segment_roundtrip;
          Alcotest.test_case "retention" `Quick test_segment_retention;
          Alcotest.test_case "torn tail truncates silently" `Quick
            test_torn_tail_is_silent;
          Alcotest.test_case "unopenable segment raises Sys_error" `Quick
            test_unopenable_segment_raises_sys_error;
          Alcotest.test_case "mid-journal damage is reported" `Quick
            test_mid_journal_damage_is_reported;
        ] );
      ( "slo",
        [
          Alcotest.test_case "window and error burn" `Quick
            test_slo_window_and_burn;
          Alcotest.test_case "latency burn" `Quick test_slo_latency_burn;
          Alcotest.test_case "sync to gauges" `Quick test_slo_sync_gauges;
          Alcotest.test_case "method index" `Quick test_method_index;
        ] );
      ( "view",
        [
          Alcotest.test_case "labels and p99" `Quick test_view_labels_and_p99;
          Alcotest.test_case "journal and frames" `Quick
            test_view_journal_and_frames;
        ] );
      ( "concurrency",
        [
          Alcotest.test_case "multi-domain observation" `Quick
            test_multi_domain_observation;
          Alcotest.test_case "snapshots under writes" `Quick
            test_snap_under_concurrent_writes;
        ] );
    ]
