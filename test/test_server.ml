(* Tests for the collection-service core: protocol decode/encode,
   registry cache behaviour, session lifecycle and expiry, and the
   request router end to end. *)

module Json = Pet_pet.Json
module Spec = Pet_rules.Spec
module Proto = Pet_server.Proto
module Registry = Pet_server.Registry
module Session = Pet_server.Session
module Service = Pet_server.Service
module Persist = Pet_server.Persist
module Running = Pet_casestudies.Running

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i =
    i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1))
  in
  go 0

(* --- Protocol ------------------------------------------------------------------ *)

let decode_ok line =
  match Proto.decode line with
  | Ok envelope -> envelope
  | Error (_, _, e) ->
    Alcotest.failf "unexpected decode error %s: %s" (Proto.code_name e.code)
      e.message

let decode_err line =
  match Proto.decode line with
  | Ok _ -> Alcotest.fail "expected a decode error"
  | Error (id, _, e) -> (id, e)

let test_proto_decode () =
  (match
     (decode_ok
        {|{"pet":1,"id":7,"method":"publish_rules","params":{"rules":"form a\nbenefits b\nrule b := a"}}|})
       .request
   with
  | Proto.Publish_rules { rules = Proto.Text text; tenant = None; quota = None }
    ->
    Alcotest.(check bool) "rules text" true (contains text "benefits b")
  | _ -> Alcotest.fail "wrong request");
  (match
     (decode_ok {|{"pet":1,"method":"new_session","params":{"digest":"abc"}}|})
       .request
   with
  | Proto.New_session (Proto.Digest "abc") -> ()
  | _ -> Alcotest.fail "wrong request");
  (match
     (decode_ok
        {|{"pet":1,"method":"get_report","params":{"session":"s0","valuation":"011"}}|})
       .request
   with
  | Proto.Get_report { session = "s0"; valuation = "011" } -> ()
  | _ -> Alcotest.fail "wrong request");
  (match
     (decode_ok
        {|{"pet":1,"method":"choose_option","params":{"session":"s0","mas":"_11"}}|})
       .request
   with
  | Proto.Choose_option { choice = Proto.Mas "_11"; _ } -> ()
  | _ -> Alcotest.fail "wrong request");
  (match (decode_ok {|{"pet":1,"method":"stats"}|}).request with
  | Proto.Stats -> ()
  | _ -> Alcotest.fail "wrong request");
  (* The id is carried through for correlation. *)
  let envelope = decode_ok {|{"pet":1,"id":"abc","method":"stats"}|} in
  Alcotest.(check string) "string id" "\"abc\"" (Json.to_string envelope.id)

let test_proto_decode_errors () =
  let code line =
    let _, e = decode_err line in
    Proto.code_name e.Proto.code
  in
  Alcotest.(check string) "malformed json" "parse_error" (code "{oops");
  Alcotest.(check string) "not an object" "invalid_request" (code "[1,2]");
  Alcotest.(check string) "missing version" "invalid_request"
    (code {|{"method":"stats"}|});
  Alcotest.(check string) "wrong version" "invalid_request"
    (code {|{"pet":99,"method":"stats"}|});
  Alcotest.(check string) "missing method" "invalid_request"
    (code {|{"pet":1}|});
  Alcotest.(check string) "unknown method" "unknown_method"
    (code {|{"pet":1,"method":"frobnicate"}|});
  Alcotest.(check string) "missing session" "invalid_params"
    (code {|{"pet":1,"method":"submit_form"}|});
  Alcotest.(check string) "digest not allowed for publish" "invalid_params"
    (code {|{"pet":1,"method":"publish_rules","params":{"digest":"d"}}|});
  Alcotest.(check string) "two rule refs" "invalid_params"
    (code
       {|{"pet":1,"method":"new_session","params":{"rules":"x","source":"y"}}|});
  Alcotest.(check string) "option and mas" "invalid_params"
    (code
       {|{"pet":1,"method":"choose_option","params":{"session":"s0","option":1,"mas":"_1"}}|});
  (* Parse errors report the position. *)
  let _, e = decode_err "{\"pet\":1," in
  Alcotest.(check bool) "position in message" true
    (contains e.Proto.message "column");
  (* The id survives a bad request when it is parseable. *)
  let id, _ = decode_err {|{"pet":1,"id":42,"method":"frobnicate"}|} in
  Alcotest.(check string) "id kept" "42" (Json.to_string id)

let test_proto_encode () =
  Alcotest.(check string) "ok envelope"
    {|{"pet":1,"id":3,"ok":{"x":true}}|}
    (Proto.ok_response ~id:(Json.Int 3) (Json.Obj [ ("x", Json.Bool true) ]));
  let line =
    Proto.error_response ~id:Json.Null
      (Proto.error Proto.Bad_state "wrong state")
  in
  Alcotest.(check string) "error envelope"
    {|{"pet":1,"id":null,"error":{"code":"bad_state","message":"wrong state"}}|}
    line;
  (* Responses are themselves valid protocol JSON. *)
  match Json.parse line with
  | Ok j ->
    Alcotest.(check bool) "error member" true (Json.member "error" j <> None)
  | Error m -> Alcotest.fail m

(* --- Registry ------------------------------------------------------------------- *)

let test_registry_counters () =
  let r = Registry.create ~capacity:4 () in
  Alcotest.(check bool) "miss on empty" true (Registry.find r "a" = None);
  Registry.add r "a" 1;
  Alcotest.(check bool) "hit" true (Registry.find r "a" = Some 1);
  let v, hit = Registry.find_or_add r "b" (fun () -> 2) in
  Alcotest.(check bool) "built" true (v = 2 && not hit);
  let v, hit = Registry.find_or_add r "b" (fun () -> 99) in
  Alcotest.(check bool) "cached" true (v = 2 && hit);
  (* A lookup-or-build told not to count leaves the counters alone. *)
  let v, hit = Registry.find_or_add ~count:false r "c" (fun () -> 3) in
  Alcotest.(check bool) "built, uncounted" true (v = 3 && not hit);
  let v, hit = Registry.find_or_add ~count:false r "c" (fun () -> 99) in
  Alcotest.(check bool) "cached, uncounted" true (v = 3 && hit);
  (* peek does not count. *)
  Alcotest.(check bool) "peek" true (Registry.peek r "a" = Some 1);
  let s = Registry.stats r in
  Alcotest.(check int) "hits" 2 s.Registry.hits;
  Alcotest.(check int) "misses" 2 s.Registry.misses;
  Alcotest.(check int) "size" 3 s.Registry.size

let test_registry_lru () =
  let r = Registry.create ~capacity:2 () in
  Registry.add r "a" 1;
  Registry.add r "b" 2;
  (* Touch "a" so "b" is the least recently used. *)
  ignore (Registry.find r "a");
  Registry.add r "c" 3;
  Alcotest.(check bool) "b evicted" true (Registry.peek r "b" = None);
  Alcotest.(check bool) "a kept" true (Registry.peek r "a" = Some 1);
  Alcotest.(check bool) "c kept" true (Registry.peek r "c" = Some 3);
  let s = Registry.stats r in
  Alcotest.(check int) "one eviction" 1 s.Registry.evictions;
  Alcotest.(check int) "bounded" 2 s.Registry.size;
  (* Re-adding an existing key replaces without evicting. *)
  Registry.add r "c" 30;
  Alcotest.(check bool) "replaced" true (Registry.peek r "c" = Some 30);
  Alcotest.(check int) "still bounded" 2 (Registry.stats r).Registry.size;
  Alcotest.(check int) "no extra eviction" 1 (Registry.stats r).Registry.evictions

let test_registry_digest () =
  let d = Registry.digest "form a\nbenefits b\nrule b := a" in
  Alcotest.(check int) "hex length" 32 (String.length d);
  Alcotest.(check string) "stable" d
    (Registry.digest "form a\nbenefits b\nrule b := a");
  Alcotest.(check bool) "content-sensitive" true
    (d <> Registry.digest "form a\nbenefits b\nrule b := !a")

(* --- Sessions --------------------------------------------------------------------- *)

let test_session_lifecycle () =
  let store = Session.create_store ~ttl:10. () in
  let s0 = Session.create store ~digest:"d" ~now:0. () in
  let s1 = Session.create store ~digest:"d" ~now:0. () in
  Alcotest.(check string) "sequential ids s0" "s0" (Session.id store s0);
  Alcotest.(check string) "sequential ids s1" "s1" (Session.id store s1);
  Alcotest.(check bool) "starts created" true
    (Session.state store s0 = Session.Created);
  (match Session.find store "s0" ~now:5. with
  | Ok s -> Alcotest.(check string) "found" "s0" (Session.id store s)
  | Error _ -> Alcotest.fail "expected to find s0");
  Alcotest.(check bool) "unknown" true
    (Session.find store "zz" ~now:0. = Error `Unknown)

let test_session_expiry () =
  let store = Session.create_store ~ttl:10. () in
  let s0 = Session.create store ~digest:"d" ~now:0. () in
  let _s1 = Session.create store ~digest:"d" ~now:8. () in
  (* Touching resets the idle clock. *)
  Session.touch store s0 ~now:9.;
  Alcotest.(check int) "nothing stale yet" 0 (Session.sweep store ~now:15.);
  Alcotest.(check bool) "s0 alive at 15" true
    (Result.is_ok (Session.find store "s0" ~now:15.));
  (* At t=25 both are idle beyond the ttl. *)
  Alcotest.(check bool) "expired on lookup" true
    (Session.find store "s1" ~now:25. = Error `Expired);
  Alcotest.(check int) "sweep removes the rest" 1 (Session.sweep store ~now:25.);
  let c = Session.counters store in
  Alcotest.(check int) "none active" 0 c.Session.active;
  Alcotest.(check int) "created" 2 c.Session.created;
  Alcotest.(check int) "expired" 2 c.Session.expired;
  (* ttl 0 disables expiry. *)
  let eternal = Session.create_store ~ttl:0. () in
  let _ = Session.create eternal ~digest:"d" ~now:0. () in
  Alcotest.(check bool) "no expiry" true
    (Result.is_ok (Session.find eternal "s0" ~now:1e12))

let test_session_sweep_step () =
  let store = Session.create_store ~ttl:0.01 () in
  for _ = 1 to 100 do
    ignore (Session.create store ~digest:"d" ~now:0. ())
  done;
  (* Each step examines at most [budget] sessions; a bounded number of
     steps reclaims everything even though nothing looks the sessions
     up again. *)
  let steps = ref 0 in
  while (Session.counters store).Session.active > 0 && !steps < 25 do
    incr steps;
    let swept = Session.sweep_step ~budget:10 store ~now:1. in
    Alcotest.(check bool) "bounded work per step" true (swept <= 10)
  done;
  let c = Session.counters store in
  Alcotest.(check int) "all reclaimed" 0 c.Session.active;
  Alcotest.(check int) "counted as expired" 100 c.Session.expired;
  Alcotest.(check bool)
    (Printf.sprintf "needed about 100/budget steps, took %d" !steps)
    true
    (!steps <= 12);
  (* ttl 0 disables the incremental sweep as well. *)
  let eternal = Session.create_store ~ttl:0. () in
  ignore (Session.create eternal ~digest:"d" ~now:0. ());
  Alcotest.(check int) "no sweeping without a ttl" 0
    (Session.sweep_step eternal ~now:1e12);
  Alcotest.(check int) "still active" 1
    (Session.counters eternal).Session.active

(* The id index against a hash table, over random adds, removals and
   lookups of "s<n>" ids (dense and far apart) and of other ids. *)
let test_slots_match_hashtbl () =
  let module Slots = Pet_server.Slots in
  for seed = 0 to 19 do
    let rng = Random.State.make [| seed |] in
    let slots = Slots.create () and model = Hashtbl.create 64 in
    let draw () =
      match Random.State.int rng 4 with
      | 0 -> Printf.sprintf "s%d" (Random.State.int rng 1_000_000_000)
      | 1 -> Printf.sprintf "x%d" (Random.State.int rng 50)
      | _ -> Printf.sprintf "s%d" (Random.State.int rng 300)
    in
    for step = 0 to 2999 do
      let id = draw () in
      let name what = Printf.sprintf "seed %d step %d %s: %s" seed step id what in
      (match (Hashtbl.find_opt model id, Random.State.int rng 3) with
      | None, (0 | 1) -> Hashtbl.replace model id (Slots.add slots id)
      | Some slot, 0 ->
        Slots.remove slots slot;
        Hashtbl.remove model id
      | _ -> ());
      Alcotest.(check int) (name "find")
        (Option.value ~default:(-1) (Hashtbl.find_opt model id))
        (Slots.find slots id);
      Alcotest.(check int) (name "length") (Hashtbl.length model) (Slots.length slots)
    done;
    Hashtbl.iter
      (fun id slot ->
        Alcotest.(check int) ("find " ^ id) slot (Slots.find slots id);
        Alcotest.(check string) "id of slot" id (Slots.id slots slot);
        Alcotest.(check bool) "held" true (Slots.held slots slot))
      model
  done

(* --- Service ----------------------------------------------------------------------- *)

(* A service over a logical clock advancing 1s per read (two reads per
   request), with the running example available as a source. *)
let make_service ?capacity ?ttl () =
  let tick = ref 0 in
  let now () =
    incr tick;
    float_of_int !tick
  in
  let resolve = function
    | "running" -> Some (Spec.to_string (Running.exposure ()))
    | _ -> None
  in
  Service.create ?capacity ?ttl ~resolve ~now ()

let request service ?(id = 1) method_ params =
  let line =
    Json.to_string
      (Json.Obj
         [
           ("pet", Json.Int Proto.version);
           ("id", Json.Int id);
           ("method", Json.String method_);
           ("params", Json.Obj params);
         ])
  in
  match Json.parse (Service.handle_line service line) with
  | Ok response -> response
  | Error m -> Alcotest.failf "response is not JSON: %s" m

let ok_of response =
  match Json.member "ok" response with
  | Some payload -> payload
  | None -> Alcotest.failf "expected ok, got %s" (Json.to_string response)

let error_code response =
  match Json.member "error" response with
  | Some e -> (
    match Option.bind (Json.member "code" e) Json.string_opt with
    | Some c -> c
    | None -> Alcotest.fail "error without code")
  | None -> Alcotest.failf "expected error, got %s" (Json.to_string response)

let str field payload =
  match Option.bind (Json.member field payload) Json.string_opt with
  | Some s -> s
  | None -> Alcotest.failf "missing string field %S" field

let test_service_lifecycle () =
  let service = make_service () in
  let published =
    ok_of (request service "publish_rules" [ ("source", Json.String "running") ])
  in
  let digest = str "digest" published in
  Alcotest.(check bool) "first publish compiles" true
    (Json.member "cached" published = Some (Json.Bool false));
  (* Session against the published digest: a cache hit. *)
  let opened =
    ok_of
      (request service "new_session" [ ("digest", Json.String digest) ])
  in
  Alcotest.(check bool) "new_session hits the cache" true
    (Json.member "cached" opened = Some (Json.Bool true));
  let sid = str "session" opened in
  let report =
    ok_of
      (request service "get_report"
         [ ("session", Json.String sid); ("valuation", Json.String "011") ])
  in
  Alcotest.(check string) "report echoes the valuation" "011"
    (str "valuation" report);
  let chosen =
    ok_of
      (request service "choose_option"
         [ ("session", Json.String sid); ("option", Json.Int 0) ])
  in
  Alcotest.(check string) "minimized form" "_11" (str "mas" chosen);
  (* Once chosen, the raw valuation is gone: re-reporting is refused. *)
  Alcotest.(check string) "valuation erased after choice" "bad_state"
    (error_code
       (request service "get_report"
          [ ("session", Json.String sid); ("valuation", Json.String "011") ]));
  let grant =
    ok_of (request service "submit_form" [ ("session", Json.String sid) ])
  in
  Alcotest.(check string) "archived form is minimized" "_11" (str "form" grant);
  Alcotest.(check string) "double submit" "bad_state"
    (error_code (request service "submit_form" [ ("session", Json.String sid) ]));
  (* The audit sees one clean record. *)
  let audit =
    ok_of (request service "audit" [ ("digest", Json.String digest) ])
  in
  Alcotest.(check bool) "one record" true
    (Json.member "records" audit = Some (Json.Int 1));
  Alcotest.(check bool) "no failures" true
    (Json.member "failures" audit = Some (Json.List []));
  (* Stats reflect all of it. *)
  let stats = ok_of (request service "stats" []) in
  let registry = Option.get (Json.member "registry" stats) in
  (* new_session and audit each resolved the digest from the cache. *)
  Alcotest.(check bool) "stats: two hits" true
    (Json.member "hits" registry = Some (Json.Int 2));
  Alcotest.(check bool) "stats: a miss" true
    (Json.member "misses" registry = Some (Json.Int 1));
  let sessions = Option.get (Json.member "sessions" stats) in
  Alcotest.(check bool) "stats: submitted" true
    (Json.member "submitted" sessions = Some (Json.Int 1))

let test_service_errors () =
  let service = make_service () in
  Alcotest.(check string) "unknown source" "unknown_source"
    (error_code
       (request service "new_session" [ ("source", Json.String "nope") ]));
  Alcotest.(check string) "unknown digest" "unknown_rules"
    (error_code
       (request service "new_session" [ ("digest", Json.String "beef") ]));
  Alcotest.(check string) "bad rules text" "invalid_params"
    (error_code
       (request service "publish_rules" [ ("rules", Json.String "form a\noops") ]));
  Alcotest.(check string) "unknown session" "unknown_session"
    (error_code
       (request service "submit_form" [ ("session", Json.String "s9") ]));
  let opened =
    ok_of (request service "new_session" [ ("source", Json.String "running") ])
  in
  let sid = str "session" opened in
  Alcotest.(check string) "submit before report" "bad_state"
    (error_code (request service "submit_form" [ ("session", Json.String sid) ]));
  Alcotest.(check string) "malformed valuation" "invalid_params"
    (error_code
       (request service "get_report"
          [ ("session", Json.String sid); ("valuation", Json.String "01") ]));
  Alcotest.(check string) "ineligible valuation" "ineligible"
    (error_code
       (request service "get_report"
          [ ("session", Json.String sid); ("valuation", Json.String "000") ]));
  ignore
    (ok_of
       (request service "get_report"
          [ ("session", Json.String sid); ("valuation", Json.String "011") ]));
  Alcotest.(check string) "choice out of range" "invalid_params"
    (error_code
       (request service "choose_option"
          [ ("session", Json.String sid); ("option", Json.Int 5) ]));
  Alcotest.(check string) "choice not offered" "invalid_params"
    (error_code
       (request service "choose_option"
          [ ("session", Json.String sid); ("mas", Json.String "1__") ]))

let test_service_expiry () =
  (* Each request advances the logical clock by 2s; a 5s ttl expires a
     session after two unrelated requests. *)
  let service = make_service ~ttl:5. () in
  let opened =
    ok_of (request service "new_session" [ ("source", Json.String "running") ])
  in
  let sid = str "session" opened in
  for _ = 1 to 2 do
    ignore (request service "stats" [])
  done;
  Alcotest.(check string) "expired" "session_expired"
    (error_code
       (request service "get_report"
          [ ("session", Json.String sid); ("valuation", Json.String "011") ]));
  let stats = ok_of (request service "stats" []) in
  let sessions = Option.get (Json.member "sessions" stats) in
  Alcotest.(check bool) "counted as expired" true
    (Json.member "expired" sessions = Some (Json.Int 1))

(* Regression: abandoned sessions must not accumulate. Every request
   runs an incremental sweep, so a client opening sessions and never
   touching them again keeps [counters.active] bounded — before, an
   abandoned session survived until something looked up its id. *)
let test_service_abandoned_sessions_swept () =
  let service = make_service ~ttl:0.01 () in
  for i = 1 to 200 do
    ignore
      (ok_of
         (request service ~id:i "new_session"
            [ ("source", Json.String "running") ]))
  done;
  let stats = ok_of (request service "stats" []) in
  let sessions = Option.get (Json.member "sessions" stats) in
  let field name =
    match Json.member name sessions with
    | Some (Json.Int n) -> n
    | _ -> Alcotest.failf "missing sessions.%s" name
  in
  Alcotest.(check int) "all were created" 200 (field "created");
  Alcotest.(check bool)
    (Printf.sprintf "active stays bounded (%d)" (field "active"))
    true
    (field "active" <= 2);
  Alcotest.(check int) "every abandoned session is accounted for" 200
    (field "active" + field "expired")

let test_service_eviction () =
  (* A capacity-1 registry: publishing a second rule set evicts the
     first. Its text is retained, so a new session by its digest and a
     session opened before the eviction both recompile it, as
     [pet serve --cache 1] does. *)
  let service = make_service ~capacity:1 () in
  let first =
    ok_of (request service "publish_rules" [ ("source", Json.String "running") ])
  in
  let digest = str "digest" first in
  let opened =
    ok_of (request service "new_session" [ ("digest", Json.String digest) ])
  in
  let sid = str "session" opened in
  ignore
    (ok_of
       (request service "publish_rules"
         [
           ( "rules",
             Json.String "form a b\nbenefits z\nrule z := a & b" );
         ]));
  let reopened =
    ok_of (request service "new_session" [ ("digest", Json.String digest) ])
  in
  Alcotest.(check string) "same digest" digest (str "digest" reopened);
  Alcotest.(check bool) "evicted digest recompiled, not cached" true
    (Json.member "cached" reopened = Some (Json.Bool false));
  (* The recompile above evicted the second rule set; evict the first
     again, so the old session's report also finds its engine gone. *)
  ignore
    (ok_of
       (request service "publish_rules"
          [ ("rules", Json.String "form a b\nbenefits z\nrule z := a & b") ]));
  ignore
    (ok_of
       (request service "get_report"
          [ ("session", Json.String sid); ("valuation", Json.String "011") ]))

let error_message response =
  match Json.member "error" response with
  | Some e -> (
    match Option.bind (Json.member "message" e) Json.string_opt with
    | Some m -> m
    | None -> Alcotest.fail "error without message")
  | None -> Alcotest.failf "expected error, got %s" (Json.to_string response)

let test_service_unknown_rules_names_digest () =
  (* An operator debugging a 404 needs to know *which* digest was
     asked for: a digest that was never published names itself in the
     unknown_rules error. (A live session's engine cannot be lost: its
     text is retained, so an eviction only costs a recompile.) *)
  let service = make_service ~capacity:1 () in
  ignore
    (ok_of
       (request service "publish_rules" [ ("source", Json.String "running") ]));
  let digest = String.make 32 '0' in
  let by_digest =
    request service "new_session" [ ("digest", Json.String digest) ]
  in
  Alcotest.(check string) "code" "unknown_rules" (error_code by_digest);
  Alcotest.(check bool) "digest in new_session error" true
    (contains (error_message by_digest) digest);
  let audited = request service "audit" [ ("digest", Json.String digest) ] in
  Alcotest.(check string) "audit code" "unknown_rules" (error_code audited);
  Alcotest.(check bool) "digest in audit error" true
    (contains (error_message audited) digest)

let test_service_out_of_order () =
  (* Requests in every wrong order get structured bad_state errors and
     leave the session usable for the correct flow afterwards. *)
  let service = make_service () in
  let opened =
    ok_of (request service "new_session" [ ("source", Json.String "running") ])
  in
  let sid = str "session" opened in
  (* choose_option before get_report: there are no options yet. *)
  Alcotest.(check string) "choose before report" "bad_state"
    (error_code
       (request service "choose_option"
          [ ("session", Json.String sid); ("option", Json.Int 0) ]));
  Alcotest.(check string) "submit before report" "bad_state"
    (error_code (request service "submit_form" [ ("session", Json.String sid) ]));
  ignore
    (ok_of
       (request service "get_report"
          [ ("session", Json.String sid); ("valuation", Json.String "011") ]));
  (* Negative option index: a structured error, not an exception. *)
  Alcotest.(check string) "negative option" "invalid_params"
    (error_code
       (request service "choose_option"
          [ ("session", Json.String sid); ("option", Json.Int (-3)) ]));
  ignore
    (ok_of
       (request service "choose_option"
          [ ("session", Json.String sid); ("option", Json.Int 0) ]));
  (* choose_option twice: the options died with the raw valuation. *)
  Alcotest.(check string) "choose twice" "bad_state"
    (error_code
       (request service "choose_option"
          [ ("session", Json.String sid); ("option", Json.Int 0) ]));
  ignore (ok_of (request service "submit_form" [ ("session", Json.String sid) ]))

let test_service_ledger_survives_eviction () =
  (* Consent records are keyed by rule digest, not by the compiled
     engine: evicting and recompiling the engine must not lose them. *)
  let service = make_service ~capacity:1 () in
  let published =
    ok_of (request service "publish_rules" [ ("source", Json.String "running") ])
  in
  let digest = str "digest" published in
  let sid =
    str "session"
      (ok_of (request service "new_session" [ ("digest", Json.String digest) ]))
  in
  ignore
    (ok_of
       (request service "get_report"
          [ ("session", Json.String sid); ("valuation", Json.String "011") ]));
  ignore
    (ok_of
       (request service "choose_option"
          [ ("session", Json.String sid); ("option", Json.Int 0) ]));
  ignore (ok_of (request service "submit_form" [ ("session", Json.String sid) ]));
  (* Evict the running engine from the capacity-1 registry... *)
  ignore
    (ok_of
       (request service "publish_rules"
          [ ("rules", Json.String "form a b\nbenefits z\nrule z := a & b") ]));
  (* ... then audit by its digest: the engine is recompiled from the
     retained text (a cache miss), and the grant recorded before the
     eviction is still audited. *)
  let before = Service.registry_stats service in
  let audit =
    ok_of (request service "audit" [ ("digest", Json.String digest) ])
  in
  let after = Service.registry_stats service in
  Alcotest.(check string) "same digest" digest (str "digest" audit);
  Alcotest.(check bool) "recompiled, not cached: one miss" true
    (after.Registry.hits = before.Registry.hits
    && after.Registry.misses = before.Registry.misses + 1);
  Alcotest.(check bool) "record survived the eviction" true
    (Json.member "records" audit = Some (Json.Int 1));
  Alcotest.(check bool) "still clean" true
    (Json.member "failures" audit = Some (Json.List []))

let test_service_tenant_recompile_counts_one_miss () =
  (* A tenant whose engine the cache evicted recompiles from the tenant
     registry's text on its next resolution, and that compilation counts
     one registry miss, as a recompile by digest does. *)
  let service = make_service ~capacity:1 () in
  let text = Spec.to_string (Running.exposure ()) in
  ignore
    (ok_of
       (request service "publish_rules"
          [ ("rules", Json.String text); ("tenant", Json.String "alpha") ]));
  ignore
    (ok_of
       (request service "tenant"
          [ ("name", Json.String "alpha"); ("wait", Json.Bool true) ]));
  ignore
    (ok_of (request service "new_session" [ ("tenant", Json.String "alpha") ]));
  ignore
    (ok_of
       (request service "publish_rules"
          [ ("rules", Json.String "form a b\nbenefits z\nrule z := a & b") ]));
  let before = Service.registry_stats service in
  ignore
    (ok_of (request service "new_session" [ ("tenant", Json.String "alpha") ]));
  let after = Service.registry_stats service in
  Alcotest.(check (pair int int)) "no hit, one miss" (0, 1)
    ( after.Registry.hits - before.Registry.hits,
      after.Registry.misses - before.Registry.misses )

(* A tenant [publish_rules] line decodes the request, parses the rule
   text, prints it back in canonical form for the digest, and records
   the tenant version; its build is queued, not run (an in-process
   service builds only when something waits). The mean minor words per
   line, over the fleet workload's 200 publish lines, is capped at the
   measured value plus 10%: 6,313 words, 275 of them printing the
   canonical text (7,958 and 1,919 when it was printed through
   [Format]). Minor words do not depend on timing. *)
let publish_minor_words_ceiling = 6_944.

let test_service_publish_minor_words () =
  let service = make_service () in
  let lines =
    Array.mapi
      (fun i (f : Pet_corpus.Corpus.form) ->
        Json.to_string
          (Json.Obj
             [
               ("pet", Json.Int Proto.version);
               ("id", Json.Int (i + 1));
               ("method", Json.String "publish_rules");
               ( "params",
                 Json.Obj
                   [
                     ("rules", Json.String f.text);
                     ("tenant", Json.String f.name);
                   ] );
             ]))
      (Pet_corpus.Corpus.scenario ~seed:0 ~lo:8 ~hi:12 ~count:200 ()).forms
  in
  let before = Gc.minor_words () in
  let replies = Array.map (Service.handle_line service) lines in
  let words =
    (Gc.minor_words () -. before) /. float_of_int (Array.length lines)
  in
  Array.iter (fun r -> ignore (ok_of (Json.parse_exn r))) replies;
  Alcotest.(check bool)
    (Printf.sprintf "%.0f minor words <= %.0f per publish line" words
       publish_minor_words_ceiling)
    true
    (words <= publish_minor_words_ceiling)

let test_registry_randomized_counters () =
  (* Randomized finds/adds against a naive model: contents, hit/miss and
     eviction counters must all agree. *)
  let capacity = 4 in
  let r = Registry.create ~capacity () in
  let rng = Random.State.make [| 0xc0de |] in
  let keys = [| "a"; "b"; "c"; "d"; "e"; "f"; "g" |] in
  (* Model: association list in most-recently-used-first order. *)
  let model = ref [] in
  let hits = ref 0 and misses = ref 0 and evictions = ref 0 in
  let model_find k =
    match List.assoc_opt k !model with
    | Some v ->
      incr hits;
      model := (k, v) :: List.remove_assoc k !model;
      Some v
    | None ->
      incr misses;
      None
  in
  let model_add k v =
    let without = List.remove_assoc k !model in
    if List.mem_assoc k !model then model := (k, v) :: without
    else begin
      if List.length without >= capacity then begin
        incr evictions;
        model :=
          (k, v) :: List.filteri (fun i _ -> i < capacity - 1) without
      end
      else model := (k, v) :: without
    end
  in
  for i = 1 to 500 do
    let k = keys.(Random.State.int rng (Array.length keys)) in
    if Random.State.bool rng then begin
      let got = Registry.find r k in
      Alcotest.(check bool)
        (Printf.sprintf "step %d: find %s agrees" i k)
        true
        (got = model_find k)
    end
    else begin
      Registry.add r k i;
      model_add k i
    end
  done;
  let s = Registry.stats r in
  Alcotest.(check int) "hits" !hits s.Registry.hits;
  Alcotest.(check int) "misses" !misses s.Registry.misses;
  Alcotest.(check int) "evictions" !evictions s.Registry.evictions;
  Alcotest.(check int) "size" (List.length !model) s.Registry.size;
  List.iter
    (fun (k, v) ->
      Alcotest.(check bool)
        (Printf.sprintf "final content %s" k)
        true
        (Registry.peek r k = Some v))
    !model

let test_service_canonical_digest () =
  (* Formatting-only differences in the rule text map to the same digest:
     the second publish is a cache hit. *)
  let service = make_service () in
  let a =
    ok_of
      (request service "publish_rules"
         [ ("rules", Json.String "form a b\nbenefits z\nrule z := a & b") ])
  in
  let b =
    ok_of
      (request service "publish_rules"
         [
           ( "rules",
             Json.String "form  a   b\nbenefits z\n# comment\nrule z := b & a"
           );
         ])
  in
  Alcotest.(check string) "same digest" (str "digest" a) (str "digest" b);
  Alcotest.(check bool) "second is cached" true
    (Json.member "cached" b = Some (Json.Bool true))

let test_service_metrics () =
  (* Requests are counted on arrival, so a metrics response includes the
     very request that asked for it. *)
  let module Obs = Pet_obs.Metrics in
  Obs.reset ();
  Obs.enable ();
  let obs_tick = ref 0 in
  Obs.set_clock (fun () ->
      incr obs_tick;
      float_of_int !obs_tick);
  Fun.protect ~finally:(fun () -> Obs.disable ()) @@ fun () ->
  let service = make_service () in
  let _ =
    ok_of (request service "publish_rules" [ ("source", Json.String "running") ])
  in
  let counter_of payload name =
    match Option.bind (Json.member "counters" payload) (Json.member name) with
    | Some (Json.Int n) -> n
    | _ -> Alcotest.failf "metrics payload lacks counter %s" name
  in
  let m1 = ok_of (request service "metrics" []) in
  Alcotest.(check int) "metrics counts its own request" 2
    (counter_of m1 "pet_server_requests_total");
  (* A second snapshot moves: one more request arrived. *)
  let m2 = ok_of (request service "metrics" []) in
  Alcotest.(check int) "next snapshot includes the next request" 3
    (counter_of m2 "pet_server_requests_total");
  (* The per-method latency histogram saw the earlier metrics call
     (logical obs clock: every request lasts exactly 1s). *)
  (match
     Option.bind
       (Json.member "histograms" m2)
       (Json.member "pet_server_request_seconds{method=\"metrics\"}")
   with
  | Some h ->
    Alcotest.(check bool) "latency histogram counted the metrics call" true
      (Json.member "count" h = Some (Json.Int 1))
  | None -> Alcotest.fail "no latency histogram for the metrics method");
  (* The prometheus rendering carries the same counter. *)
  match ok_of (request service "metrics" [ ("format", Json.String "prometheus") ])
  with
  | Json.String text ->
    Alcotest.(check bool) "prometheus sample present" true
      (let sub = "pet_server_requests_total 4" in
       let rec contains i =
         i + String.length sub <= String.length text
         && (String.sub text i (String.length sub) = sub || contains (i + 1))
       in
       contains 0)
  | other ->
    Alcotest.failf "prometheus format is not a string: %s" (Json.to_string other)

(* --- Tracing through the service --------------------------------------------------- *)

module Trace = Pet_obs.Trace

(* The trace layer is process-global state, like the metrics registry:
   run each test against a clean enabled slate and always disable on the
   way out. *)
let with_tracing f =
  let module Obs = Pet_obs.Metrics in
  Obs.reset ();
  Obs.enable ();
  let obs_tick = ref 0 in
  Obs.set_clock (fun () ->
      incr obs_tick;
      float_of_int !obs_tick);
  Trace.configure ();
  Trace.reset ();
  Trace.set_slow_threshold 0.;
  Trace.enable ();
  Fun.protect
    ~finally:(fun () ->
      Trace.disable ();
      Trace.set_slow_threshold infinity;
      Obs.disable ())
    f

let raw_request service ?(id = 1) ?trace method_ params =
  let line =
    Json.to_string
      (Json.Obj
         (("pet", Json.Int Proto.version) :: ("id", Json.Int id)
         :: (match trace with
            | Some t -> [ ("trace", Json.String t) ]
            | None -> [])
         @ [ ("method", Json.String method_); ("params", Json.Obj params) ]))
  in
  Service.handle_line service line

let trace_of response =
  match Json.parse response with
  | Ok obj -> Option.bind (Json.member "trace" obj) Json.string_opt
  | Error m -> Alcotest.failf "response is not JSON: %s" m

let test_proto_trace_roundtrip () =
  (* The trace field is carried through decode... *)
  let envelope = decode_ok {|{"pet":1,"id":1,"trace":"abc","method":"stats"}|} in
  Alcotest.(check (option string)) "trace decoded" (Some "abc") envelope.trace;
  let envelope = decode_ok {|{"pet":1,"id":1,"method":"stats"}|} in
  Alcotest.(check (option string)) "absent trace" None envelope.trace;
  (* ...survives a failed decode, best-effort like the id... *)
  (match Proto.decode {|{"pet":1,"trace":"abc","method":"frobnicate"}|} with
  | Error (_, trace, _) ->
    Alcotest.(check (option string)) "trace kept on error" (Some "abc") trace
  | Ok _ -> Alcotest.fail "expected a decode error");
  (* ...and is emitted exactly when given. *)
  Alcotest.(check string) "ok with trace"
    {|{"pet":1,"id":3,"trace":"t9","ok":{}}|}
    (Proto.ok_response ~id:(Json.Int 3) ~trace:"t9" (Json.Obj []));
  Alcotest.(check string) "error with trace"
    {|{"pet":1,"id":3,"trace":"t9","error":{"code":"bad_state","message":"m"}}|}
    (Proto.error_response ~id:(Json.Int 3) ~trace:"t9"
       (Proto.error Proto.Bad_state "m"));
  (* The trace method's own parameters decode. *)
  (match
     (decode_ok
        {|{"pet":1,"method":"trace","params":{"which":"get","id":"t4","format":"chrome"}}|})
       .request
   with
  | Proto.Trace_req { query = Proto.Tget "t4"; format = Proto.Tchrome } -> ()
  | _ -> Alcotest.fail "wrong trace request");
  match (decode_ok {|{"pet":1,"method":"trace"}|}).request with
  | Proto.Trace_req { query = Proto.Tlast; format = Proto.Ttree } -> ()
  | _ -> Alcotest.fail "wrong trace defaults"

let test_service_trace_echo () =
  with_tracing @@ fun () ->
  let service = make_service () in
  (* Generated ids are sequential and echoed on ok responses... *)
  Alcotest.(check (option string)) "generated id echoed" (Some "t0")
    (trace_of (raw_request service "stats" []));
  (* ...and on error responses, including undecodable requests. *)
  Alcotest.(check (option string)) "echoed on error" (Some "t1")
    (trace_of (raw_request service "frobnicate" []));
  Alcotest.(check (option string)) "client id echoed" (Some "cli-1")
    (trace_of (raw_request service ~trace:"cli-1" "stats" []));
  Alcotest.(check (option string)) "client id echoed on error" (Some "cli-2")
    (trace_of
       (raw_request service ~trace:"cli-2" "submit_form"
          [ ("session", Json.String "s9") ]));
  (* The capture exists under the echoed id and names the method. *)
  (match Trace.find "cli-1" with
  | Some tr ->
    Alcotest.(check bool) "method annotated" true
      (List.mem ("method", Trace.String "stats") tr.Trace.annotations)
  | None -> Alcotest.fail "no capture for cli-1");
  (* With tracing off no id is generated, but a client id still echoes. *)
  Trace.disable ();
  Alcotest.(check (option string)) "no generated id when off" None
    (trace_of (raw_request service "stats" []));
  Alcotest.(check (option string)) "client id still echoed when off"
    (Some "cli-3")
    (trace_of (raw_request service ~trace:"cli-3" "stats" []))

let test_service_trace_method () =
  with_tracing @@ fun () ->
  let service = make_service () in
  let _ =
    ok_of (request service "publish_rules" [ ("source", Json.String "running") ])
  in
  (* "last" returns the most recently *completed* capture — the publish,
     not the trace call itself — with the span tree rendered. *)
  let last = ok_of (request service "trace" []) in
  Alcotest.(check string) "last is the publish" "t0" (str "id" last);
  let tree = str "tree" last in
  Alcotest.(check bool) "tree shows the compile" true
    (contains tree "provider.create");
  let anns = Option.get (Json.member "annotations" last) in
  Alcotest.(check bool) "method annotation" true
    (Json.member "method" anns = Some (Json.String "publish_rules"));
  Alcotest.(check bool) "backend annotation" true
    (Json.member "backend" anns = Some (Json.String "compiled"));
  (* "get" by the echoed id; "slow" lists both (threshold 0). *)
  let got =
    ok_of (request service "trace" [ ("id", Json.String "t0") ])
  in
  Alcotest.(check string) "get by id" "t0" (str "id" got);
  let slow = ok_of (request service "trace" [ ("which", Json.String "slow") ]) in
  (match Json.member "slow" slow with
  | Some (Json.List (_ :: _)) -> ()
  | _ -> Alcotest.fail "slow listing empty");
  Alcotest.(check bool) "evictions reported" true
    (Json.member "evictions" slow <> None);
  (* Chrome format is valid JSON shipped as one string. *)
  (match
     ok_of
       (request service "trace"
          [ ("id", Json.String "t0"); ("format", Json.String "chrome") ])
   with
  | payload -> (
    match Json.member "chrome" payload with
    | Some (Json.String chrome) -> (
      match Json.parse chrome with
      | Ok _ -> ()
      | Error m -> Alcotest.failf "chrome payload not JSON: %s" m)
    | _ -> Alcotest.fail "no chrome string"));
  Alcotest.(check string) "unknown id" "invalid_params"
    (error_code (request service "trace" [ ("id", Json.String "t999") ]));
  (* Disabled tracing refuses cleanly. *)
  Trace.disable ();
  let refused = request service "trace" [] in
  Alcotest.(check string) "disabled" "bad_state" (error_code refused);
  Alcotest.(check (option string)) "disabled message"
    (Some "tracing is off in this process")
    (Option.bind (Json.member "error" refused) (fun e ->
         Option.bind (Json.member "message" e) Json.string_opt))

let test_trace_privacy () =
  (* R2 for observability: run the full workflow — the raw valuation
     crosses get_report — then grep every capture in both rings, in both
     export formats, for the bit-vector. It must never appear: span
     names are static and annotations are identifiers only. *)
  with_tracing @@ fun () ->
  let service = make_service () in
  let published =
    ok_of (request service "publish_rules" [ ("source", Json.String "running") ])
  in
  let digest = str "digest" published in
  let opened =
    ok_of (request service "new_session" [ ("digest", Json.String digest) ])
  in
  let sid = str "session" opened in
  let valuation = "011" in
  let _ =
    ok_of
      (request service "get_report"
         [ ("session", Json.String sid); ("valuation", Json.String valuation) ])
  in
  let _ =
    ok_of
      (request service "choose_option"
         [ ("session", Json.String sid); ("option", Json.Int 0) ])
  in
  let _ =
    ok_of (request service "submit_form" [ ("session", Json.String sid) ])
  in
  let captures = Trace.recent () @ Trace.slow () in
  Alcotest.(check bool) "captures exist" true (captures <> []);
  List.iter
    (fun tr ->
      let rendered = Trace.render tr and chrome = Trace.chrome tr in
      Alcotest.(check bool)
        ("no raw valuation in tree of " ^ tr.Trace.id)
        false
        (contains rendered valuation);
      Alcotest.(check bool)
        ("no raw valuation in chrome of " ^ tr.Trace.id)
        false (contains chrome valuation);
      (* The session id, by contrast, is expected — identifiers are the
         point of a capture. *)
      List.iter
        (fun (_, v) ->
          match v with
          | Trace.String s ->
            Alcotest.(check bool) "no valuation annotation" false
              (s = valuation)
          | _ -> ())
        tr.Trace.annotations)
    captures


(* --- Consent lifecycle ------------------------------------------------------------- *)

(* Run the running example to a submitted grant and return its id. *)
let submitted_session service =
  let opened =
    ok_of (request service "new_session" [ ("source", Json.String "running") ])
  in
  let sid = str "session" opened in
  ignore
    (ok_of
       (request service "get_report"
          [ ("session", Json.String sid); ("valuation", Json.String "011") ]));
  ignore
    (ok_of
       (request service "choose_option"
          [ ("session", Json.String sid); ("option", Json.Int 0) ]));
  ignore (ok_of (request service "submit_form" [ ("session", Json.String sid) ]));
  sid

let int_field field payload =
  match Json.member field payload with
  | Some (Json.Int i) -> i
  | _ -> Alcotest.failf "missing int field %S" field

let test_consent_revoke () =
  let service = make_service () in
  let digest =
    str "digest"
      (ok_of (request service "publish_rules" [ ("source", Json.String "running") ]))
  in
  let sid = submitted_session service in
  let revoked =
    ok_of (request service "revoke" [ ("session", Json.String sid) ])
  in
  Alcotest.(check int) "tombstoned grant" 0 (int_field "grant" revoked);
  (* The session died with the consent; the archive keeps only the id slot. *)
  Alcotest.(check string) "session purged" "unknown_session"
    (error_code
       (request service "get_report"
          [ ("session", Json.String sid); ("valuation", Json.String "011") ]));
  let audit =
    ok_of (request service "audit" [ ("digest", Json.String digest) ])
  in
  Alcotest.(check int) "id slot kept" 1 (int_field "records" audit);
  Alcotest.(check int) "values erased" 0 (int_field "stored_values" audit);
  Alcotest.(check int) "tombstone counted" 1 (int_field "revoked" audit);
  (* Idempotence: consent cannot be withdrawn twice. *)
  Alcotest.(check string) "double revoke" "bad_state"
    (error_code (request service "revoke" [ ("session", Json.String sid) ]));
  let stats = ok_of (request service "stats" []) in
  let consent = Option.get (Json.member "consent" stats) in
  Alcotest.(check int) "stats: revoked" 1 (int_field "revoked" consent)

let test_consent_revoke_after_sweep () =
  (* The consent entry outlives the session TTL: revocation reaches the
     archived grant long after the session itself was swept. *)
  let service = make_service ~ttl:5. () in
  let sid = submitted_session service in
  for _ = 1 to 4 do
    ignore (request service "stats" [])
  done;
  Alcotest.(check string) "session long gone" "unknown_session"
    (error_code
       (request service "submit_form" [ ("session", Json.String sid) ]));
  let revoked =
    ok_of (request service "revoke" [ ("session", Json.String sid) ])
  in
  Alcotest.(check int) "grant still reachable" 0 (int_field "grant" revoked)

let test_consent_expire () =
  let service = make_service () in
  let sid = submitted_session service in
  ignore
    (ok_of
       (request service "expire"
          [ ("session", Json.String sid); ("after", Json.Int 4) ]));
  (* Each request advances the clock 2s; two sweeps later the horizon
     has passed and the grant is tombstoned. *)
  for _ = 1 to 3 do
    ignore (request service "stats" [])
  done;
  Alcotest.(check string) "revoke after expiry" "bad_state"
    (error_code (request service "revoke" [ ("session", Json.String sid) ]));
  let stats = ok_of (request service "stats" []) in
  let consent = Option.get (Json.member "consent" stats) in
  Alcotest.(check int) "stats: expired" 1 (int_field "expired" consent);
  Alcotest.(check int) "stats: nothing pending" 0 (int_field "pending" consent)

let test_consent_horizon_guard () =
  (* A passed horizon is applied on the session's own next request, not
     only at the sweep: nothing may establish data past the horizon. *)
  let service = make_service () in
  let opened =
    ok_of (request service "new_session" [ ("source", Json.String "running") ])
  in
  let sid = str "session" opened in
  ignore
    (ok_of
       (request service "get_report"
          [ ("session", Json.String sid); ("valuation", Json.String "011") ]));
  ignore
    (ok_of
       (request service "expire"
          [ ("session", Json.String sid); ("after", Json.Int 1) ]));
  Alcotest.(check string) "choose refused past the horizon" "session_expired"
    (error_code
       (request service "choose_option"
          [ ("session", Json.String sid); ("option", Json.Int 0) ]))

let test_consent_sweep_budget () =
  (* Many horizons passing at once drain incrementally — every tombstone
     lands within [entries / budget] sweeps, none is skipped, and the
     active-session counter never double-frees. *)
  let service = make_service () in
  let sids =
    List.init 10 (fun _ -> submitted_session service)
  in
  List.iter
    (fun sid ->
      ignore
        (ok_of
           (request service "expire"
              [ ("session", Json.String sid); ("after", Json.Int 1) ])))
    sids;
  let applied = ref 0 in
  for _ = 1 to 5 do
    ignore (Service.sweep_tick ~budget:3 service)
  done;
  let stats = ok_of (request service "stats" []) in
  let consent = Option.get (Json.member "consent" stats) in
  applied := int_field "expired" consent;
  Alcotest.(check int) "every horizon applied" 10 !applied;
  Alcotest.(check int) "none pending" 0 (int_field "pending" consent);
  let sessions = Option.get (Json.member "sessions" stats) in
  Alcotest.(check int) "no active sessions leak" 0 (int_field "active" sessions)

(* Durable: rule sets are announced to the sink, so the log replays. *)
let make_durable_service () =
  let tick = ref 0 in
  let now () =
    incr tick;
    float_of_int !tick
  in
  let resolve = function
    | "running" -> Some (Spec.to_string (Running.exposure ()))
    | _ -> None
  in
  Service.create ~durable:true ~resolve ~now ()

let test_consent_snapshot_replay () =
  (* Tombstones and armed horizons survive a snapshot (the log squashed
     by the store's compactor) and its replay: recovery never
     resurrects revoked consent. *)
  let service = make_durable_service () in
  let logged = ref [] in
  Service.set_sink service
    { Persist.emit = (fun event -> logged := event :: !logged) };
  let digest =
    str "digest"
      (ok_of (request service "publish_rules" [ ("source", Json.String "running") ]))
  in
  let s1 = submitted_session service in
  let s2 = submitted_session service in
  ignore (ok_of (request service "revoke" [ ("session", Json.String s1) ]));
  ignore
    (ok_of
       (request service "expire"
          [ ("session", Json.String s2); ("after", Json.Int 10_000) ]));
  let compactor = Pet_store.Store.Compactor.create () in
  List.iter (Pet_store.Store.Compactor.add compactor) (List.rev !logged);
  let events = Pet_store.Store.Compactor.events ~ttl:0. compactor in
  let recovered = make_durable_service () in
  List.iter
    (fun event ->
      match Service.apply_event recovered event with
      | Ok () -> ()
      | Error m -> Alcotest.failf "replay error: %s" m)
    events;
  Alcotest.(check string) "tombstone not resurrected" "bad_state"
    (error_code (request recovered "revoke" [ ("session", Json.String s1) ]));
  let audit =
    ok_of (request recovered "audit" [ ("digest", Json.String digest) ])
  in
  Alcotest.(check int) "both id slots kept" 2 (int_field "records" audit);
  Alcotest.(check int) "one tombstone" 1 (int_field "revoked" audit);
  (* The re-armed horizon still fires in the recovered service. *)
  ignore (Service.apply_horizons recovered);
  ignore
    (ok_of (request recovered "revoke" [ ("session", Json.String s2) ]));
  Alcotest.(check string) "horizon re-armed, then withdrawn once" "bad_state"
    (error_code (request recovered "revoke" [ ("session", Json.String s2) ]))

let test_revoked_horizon_after_compaction () =
  (* A revoked session whose expiry horizon has passed answers
     [session_expired] live; after a compacting restart it must answer
     the same, not [unknown_session]: compaction keeps a revoked
     session's horizon. *)
  let tick = ref 0 in
  let now () =
    incr tick;
    float_of_int !tick
  in
  let resolve = function
    | "running" -> Some (Spec.to_string (Running.exposure ()))
    | _ -> None
  in
  let live = Service.create ~durable:true ~resolve ~now () in
  let logged = ref [] in
  Service.set_sink live { Persist.emit = (fun e -> logged := e :: !logged) };
  let sid =
    str "session"
      (ok_of (request live "new_session" [ ("source", Json.String "running") ]))
  in
  let session = ("session", Json.String sid) in
  ignore
    (ok_of (request live "get_report" [ session; ("valuation", Json.String "011") ]));
  ignore (ok_of (request live "expire" [ session; ("after", Json.Int 3) ]));
  ignore (ok_of (request live "revoke" [ session ]));
  let answers service =
    [
      error_code
        (request service "choose_option" [ session; ("option", Json.Int 0) ]);
      error_code (request service "submit_form" [ session ]);
    ]
  in
  Alcotest.(check (list string)) "live, past the horizon"
    [ "session_expired"; "session_expired" ] (answers live);
  let compactor = Pet_store.Store.Compactor.create () in
  List.iter (Pet_store.Store.Compactor.add compactor) (List.rev !logged);
  let restarted = Service.create ~durable:true ~resolve ~now () in
  let outcome =
    Pet_net.Recovery.replay [| restarted |]
      (Pet_store.Store.Compactor.events ~ttl:0. compactor)
  in
  Alcotest.(check (list string)) "no replay errors" [] outcome.Pet_net.Recovery.errors;
  ignore (Service.apply_horizons restarted);
  Alcotest.(check (list string)) "after a compacting restart"
    [ "session_expired"; "session_expired" ] (answers restarted)

let test_ledger_tenant_namespacing () =
  (* Two tenants publishing byte-identical rules must not share a grant
     archive: ids restart per tenant and each audit sees only its own
     records. Before ledgers were keyed by (tenant, digest), the second
     tenant's first grant got id 1 and both audits saw both records. *)
  Alcotest.(check string) "bare key" "d1" (Service.ledger_key ~digest:"d1" ~tenant:None);
  Alcotest.(check string) "namespaced key" "d1@alpha"
    (Service.ledger_key ~digest:"d1" ~tenant:(Some "alpha"));
  let service = make_service () in
  let text = Spec.to_string (Running.exposure ()) in
  let submit_for tenant =
    ignore
      (ok_of
         (request service "publish_rules"
            [ ("rules", Json.String text); ("tenant", Json.String tenant) ]));
    let sid =
      str "session"
        (ok_of (request service "new_session" [ ("tenant", Json.String tenant) ]))
    in
    ignore
      (ok_of
         (request service "get_report"
            [ ("session", Json.String sid); ("valuation", Json.String "011") ]));
    ignore
      (ok_of
         (request service "choose_option"
            [ ("session", Json.String sid); ("option", Json.Int 0) ]));
    int_field "grant"
      (ok_of (request service "submit_form" [ ("session", Json.String sid) ]))
  in
  Alcotest.(check int) "alpha's first grant" 0 (submit_for "alpha");
  Alcotest.(check int) "beta's ids are its own" 0 (submit_for "beta");
  let records tenant =
    int_field "records"
      (ok_of (request service "audit" [ ("tenant", Json.String tenant) ]))
  in
  Alcotest.(check int) "alpha sees one record" 1 (records "alpha");
  Alcotest.(check int) "beta sees one record" 1 (records "beta")

let test_replay_keeps_tenant_submitted () =
  (* A tenant's submission count is durable: replaying the log restores
     it, so [tenant] answers the same before and after a restart. *)
  let service = make_durable_service () in
  let logged = ref [] in
  Service.set_sink service
    { Persist.emit = (fun event -> logged := event :: !logged) };
  let text = Spec.to_string (Running.exposure ()) in
  ignore
    (ok_of
       (request service "publish_rules"
          [ ("rules", Json.String text); ("tenant", Json.String "alpha") ]));
  let sid =
    str "session"
      (ok_of (request service "new_session" [ ("tenant", Json.String "alpha") ]))
  in
  ignore
    (ok_of
       (request service "get_report"
          [ ("session", Json.String sid); ("valuation", Json.String "011") ]));
  ignore
    (ok_of
       (request service "choose_option"
          [ ("session", Json.String sid); ("option", Json.Int 0) ]));
  ignore (ok_of (request service "submit_form" [ ("session", Json.String sid) ]));
  let submitted service =
    int_field "submitted"
      (Option.get
         (Json.member "sessions"
            (ok_of (request service "tenant" [ ("name", Json.String "alpha") ]))))
  in
  Alcotest.(check int) "live" 1 (submitted service);
  let recovered = make_durable_service () in
  List.iter
    (fun event ->
      match Service.apply_event recovered event with
      | Ok () -> ()
      | Error m -> Alcotest.failf "replay error: %s" m)
    (List.rev !logged);
  Alcotest.(check int) "replayed" 1 (submitted recovered)

(* --- Live state equals replayed state -------------------------------------------- *)

module Shared = Pet_server.Shared
module Consent = Pet_server.Consent
module Tenant = Pet_tenant.Tenant
module Ledger = Pet_pet.Ledger
module Partial = Pet_valuation.Partial

(* Three-predicate forms, so every session takes the same valuation
   width whatever rule set it was opened under. *)
let replay_forms =
  [
    Spec.to_string (Running.exposure ());
    "form a b c\nbenefits x\nrule x := a & b";
    "form a b c\nbenefits x y\nrule x := a | c\nrule y := b & c";
  ]

(* The durable state, one sorted line per fact: per session its id,
   digest, tenant, state (a [Reported] session holds a valuation no
   event carries, so it counts as [Created]), chosen form and grant;
   every ledger's entries and next id; every consent entry's fields;
   per tenant its versions, quota, and session and submission counters.
   [compacted] leaves out what a snapshot does not keep: the counters. *)
let durable_projection ?(compacted = false) ~shared ~tenants service =
  let opt = Option.value ~default:"-" in
  let time = function None -> "-" | Some t -> Printf.sprintf "%g" t in
  let store = Service.session_store service in
  let sessions =
    Session.to_list store
    |> List.map (fun s ->
           let state =
             match Session.state store s with
             | Session.Reported -> Session.Created
             | state -> state
           in
           Printf.sprintf "session %s digest=%s tenant=%s state=%s chosen=%s grant=%s"
             (Session.id store s) (Session.digest store s)
             (opt (Session.tenant store s))
             (Session.state_name state)
             (match Session.chosen store s with
             | None -> "-"
             | Some (mas, benefits) ->
               Partial.to_string mas ^ "/" ^ String.concat "," benefits)
             (opt (Option.map string_of_int (Session.grant_id store s))))
  in
  let ledgers =
    Shared.fold_ledgers shared
      (fun key ledger acc ->
        (Printf.sprintf "ledger %s next=%d" key (Ledger.size ledger)
        :: List.map
             (fun (e : Ledger.entry) ->
               Printf.sprintf "ledger %s #%d %s" key e.Ledger.id
                 (match e.Ledger.grant with
                 | None -> "tombstone"
                 | Some g ->
                   Partial.to_string g.Pet_pet.Workflow.form
                   ^ "/"
                   ^ String.concat "," g.Pet_pet.Workflow.benefits))
             (Ledger.entries ledger))
        @ acc)
      []
  in
  let consents =
    List.map
      (fun (e : Consent.entry) ->
        Printf.sprintf
          "consent %s key=%s grant=%s revoked=%s horizon=%s expired=%b"
          e.Consent.session e.Consent.key
          (opt (Option.map string_of_int e.Consent.grant_id))
          (time e.Consent.revoked_at)
          (match e.Consent.horizon with
          | None -> "-"
          | Some (h, at) -> Printf.sprintf "%g@%g" h at)
          e.Consent.expired)
      (Consent.entries (Shared.consents shared))
  in
  let tenants =
    List.map
      (fun (i : Tenant.info) ->
        Printf.sprintf "tenant %s versions=%d active=%d digest=%s quota=%d%s"
          i.Tenant.info_name i.Tenant.versions i.Tenant.active i.Tenant.digest
          i.Tenant.quota
          (if not compacted then
             Printf.sprintf " sessions=%d/%d submitted=%d"
               i.Tenant.sessions_active i.Tenant.sessions_created
               i.Tenant.submitted
           else ""))
      (Tenant.infos tenants)
  in
  List.sort compare (sessions @ ledgers @ consents @ tenants)

(* One seeded request sequence through a live durable service, its
   events captured by the sink. Sessions are picked mostly the newest,
   else among the last few opened, so journeys reach choose and submit
   often. *)
let drive_random ~seed ~steps service =
  let rng = Random.State.make [| seed |] in
  let pick l = List.nth l (Random.State.int rng (List.length l)) in
  let sessions = ref [] in
  let tenants = [ "alpha"; "beta" ] in
  let call method_ params =
    let response = request service method_ params in
    (match (method_, Json.member "ok" response) with
    | "new_session", Some ok -> sessions := str "session" ok :: !sessions
    | _ -> ());
    response
  in
  let session () =
    match !sessions with
    | [] -> Json.String "s0"
    | l ->
      Json.String
        (match Random.State.int rng 5 with
        | 0 -> pick l
        | 1 -> pick (List.filteri (fun i _ -> i < 4) l)
        | _ -> List.hd l)
  in
  let valuation () =
    String.init 3 (fun _ -> if Random.State.int rng 4 = 0 then '0' else '1')
  in
  for _ = 1 to steps do
    ignore
      (match Random.State.int rng 21 with
      | 0 -> call "publish_rules" [ ("rules", Json.String (pick replay_forms)) ]
      | 1 | 2 ->
        let name = pick tenants in
        let quota =
          match Random.State.int rng 3 with
          | 0 -> []
          | q -> [ ("quota", Json.Int q) ]
        in
        let method_ = if Random.State.bool rng then "publish_rules" else "update_rules" in
        ignore
          (call method_
             ([ ("rules", Json.String (pick replay_forms)); ("tenant", Json.String name) ]
             @ quota));
        call "tenant" [ ("name", Json.String name); ("wait", Json.Bool true) ]
      | 3 | 4 ->
        call "new_session"
          [
            (match Random.State.int rng 3 with
            | 0 -> ("source", Json.String "running")
            | 1 -> ("rules", Json.String (pick replay_forms))
            | _ -> ("tenant", Json.String (pick tenants)));
          ]
      | 5 | 6 | 7 ->
        call "get_report"
          [ ("session", session ()); ("valuation", Json.String (valuation ())) ]
      | 8 | 9 | 10 ->
        call "choose_option"
          [ ("session", session ()); ("option", Json.Int (max 0 (Random.State.int rng 4 - 2))) ]
      | 11 | 12 | 13 -> call "submit_form" [ ("session", session ()) ]
      | 14 | 15 -> call "revoke" [ ("session", session ()) ]
      | 16 | 17 ->
        call "expire"
          [ ("session", session ()); ("after", Json.Int (Random.State.int rng 12)) ]
      | 18 ->
        (* a whole journey on one session *)
        let sid = session () in
        ignore
          (call "get_report"
             [ ("session", sid); ("valuation", Json.String (valuation ())) ]);
        ignore (call "choose_option" [ ("session", sid); ("option", Json.Int 0) ]);
        call "submit_form" [ ("session", sid) ]
      | _ -> call "stats" [])
  done

let test_live_equals_replay () =
  let resolve = function
    | "running" -> Some (Spec.to_string (Running.exposure ()))
    | _ -> None
  in
  (* One clock for all three services; it stops once the traffic ends,
     so every side applies its horizons at the same instant, at or past
     the log's last timestamp. *)
  let tick = ref 0 and running = ref true in
  let now () =
    if !running then incr tick;
    float_of_int !tick
  in
  let fresh () =
    let shared = Shared.create () and tenants = Tenant.create () in
    ( shared,
      tenants,
      Service.create ~durable:true ~shared ~tenants ~resolve ~now () )
  in
  let replay events =
    let shared, tenants, service = fresh () in
    let outcome = Pet_net.Recovery.replay [| service |] events in
    Alcotest.(check (list string))
      "no replay errors" [] outcome.Pet_net.Recovery.errors;
    (shared, tenants, service)
  in
  for seed = 1 to 60 do
    tick := 0;
    running := true;
    let shared, tenants, live = fresh () in
    let logged = ref [] in
    Service.set_sink live { Persist.emit = (fun e -> logged := e :: !logged) };
    drive_random ~seed ~steps:120 live;
    running := false;
    ignore (Service.apply_horizons live);
    let events = List.rev !logged in
    let shared', tenants', replayed = replay events in
    let compactor = Pet_store.Store.Compactor.create () in
    List.iter (Pet_store.Store.Compactor.add compactor) events;
    let shared'', tenants'', compacted =
      replay (Pet_store.Store.Compactor.events ~ttl:0. compactor)
    in
    let label = Printf.sprintf "seed %d: %s" seed in
    Alcotest.(check (list string)) (label "replay")
      (durable_projection ~shared ~tenants live)
      (durable_projection ~shared:shared' ~tenants:tenants' replayed);
    Alcotest.(check (list string)) (label "compacted replay")
      (durable_projection ~compacted:true ~shared ~tenants live)
      (durable_projection ~compacted:true ~shared:shared'' ~tenants:tenants''
         compacted)
  done

(* --- Report memo ------------------------------------------------------------------- *)

(* The memo's reference is the plain pipeline: for every valuation
   [pick] draws from the form's atlas, a first session's [get_report]
   (computed, then memoized) and a second session's (replayed from the
   memo) must both answer exactly the bytes of [Proto.ok_response] over
   [Report.to_json (Workflow.report_for …)], and a valuation that is no
   player the same [ineligible] error both times. *)
let check_report_memo exposure pick =
  let service = make_service () in
  let text = Spec.to_string exposure in
  ignore (request service "publish_rules" [ ("rules", Json.String text) ]);
  let digest = Registry.digest text in
  let provider =
    Pet_pet.Workflow.provider ~backend:Pet_rules.Engine.Compiled exposure
  in
  List.iter
    (fun v ->
      let bits = Pet_valuation.Total.to_string v in
      let expected =
        match Pet_pet.Workflow.report_for provider v with
        | Ok report -> Ok (Pet_pet.Report.to_json report)
        | Error m -> Error (Proto.error Proto.Ineligible m)
      in
      for pass = 1 to 2 do
        let session =
          str "session"
            (ok_of
               (request service "new_session"
                  [ ("digest", Json.String digest) ]))
        in
        let response =
          Service.handle_line service
            (Json.to_string
               (Json.Obj
                  [
                    ("pet", Json.Int Proto.version);
                    ("id", Json.Int 1);
                    ("method", Json.String "get_report");
                    ( "params",
                      Json.Obj
                        [
                          ("session", Json.String session);
                          ("valuation", Json.String bits);
                        ] );
                  ]))
        in
        (* Tracing is process-wide state another test may have turned
           on: expect whatever trace id the response carries. *)
        let trace =
          match Json.parse response with
          | Ok json -> Option.bind (Json.member "trace" json) Json.string_opt
          | Error m -> Alcotest.failf "response is not JSON: %s" m
        in
        let expected =
          match expected with
          | Ok report -> Proto.ok_response ~id:(Json.Int 1) ?trace report
          | Error e -> Proto.error_response ~id:(Json.Int 1) ?trace e
        in
        Alcotest.(check string) (Printf.sprintf "%s, session %d" bits pass)
          expected response
      done)
    (pick (Pet_pet.Workflow.atlas provider))

let test_report_memo_matches_engine () =
  let module Atlas = Pet_minimize.Atlas in
  let module Total = Pet_valuation.Total in
  (* H-cov: every player, plus one realistic valuation that is no
     player and one that breaks a consistency constraint — the two
     refusals [Workflow.report_for] words differently. *)
  let hcov = Pet_casestudies.Hcov.exposure () in
  check_report_memo hcov (fun atlas ->
      let xp = Pet_rules.Exposure.xp hcov in
      let universe =
        List.init (1 lsl Pet_valuation.Universe.size xp) (Total.of_bits xp)
      in
      let refused ~realistic =
        List.find
          (fun v ->
            Atlas.find_player atlas v = None
            && Pet_rules.Exposure.satisfies_constraints hcov v = realistic)
          universe
      in
      List.init (Atlas.player_count atlas) (Atlas.player atlas)
      @ [ refused ~realistic:true; refused ~realistic:false ]);
  (* RSA (17 predicates, above the engine's tabulation threshold): the
     first 200 players. *)
  check_report_memo (Pet_casestudies.Rsa.exposure ()) (fun atlas ->
      List.init 200 (Atlas.player atlas));
  (* A seed-0 corpus form of 20 predicates: 20 players spread evenly
     over its several hundred thousand (each report there costs
     milliseconds). *)
  let form = Pet_corpus.Corpus.form ~seed:0 ~size:20 5 in
  check_report_memo (Spec.parse_exn form.Pet_corpus.Corpus.text) (fun atlas ->
      let n = Atlas.player_count atlas in
      List.init 20 (fun i -> Atlas.player atlas (i * (n / 20))))

(* A ledger's stored values and the consent store's pending count are
   kept as records and entries change, not folded over them when read.
   Over seeded sequences of records, replays (live and tombstoned, at
   fresh and taken ids), revocations, horizons and expiries, each equals
   its fold after every step. *)
let test_counters_equal_folds () =
  let provider = Pet_pet.Workflow.provider (Running.exposure ()) in
  let u3 = Pet_valuation.Universe.of_names [ "p1"; "p2"; "p3" ] in
  let grants =
    List.filter_map
      (fun w ->
        Result.to_option (Pet_pet.Workflow.submit provider (Partial.of_string u3 w)))
      [ "_11"; "1_0"; "111"; "11_" ]
  in
  let grants = Array.of_list grants in
  Alcotest.(check bool) "grants to draw from" true (Array.length grants >= 2);
  for seed = 0 to 49 do
    let rng = Random.State.make [| seed |] in
    let ledger = Ledger.create () and consents = Consent.create () in
    let pick n = Random.State.int rng n in
    let sessions = Array.init 8 (Printf.sprintf "s%d") in
    for step = 0 to 199 do
      let grant () = grants.(pick (Array.length grants)) in
      (match pick 8 with
      | 0 -> ignore (Ledger.record ledger (grant ()))
      | 1 ->
        ignore
          (Ledger.restore ledger
             (pick (Ledger.size ledger + 3))
             (if pick 3 = 0 then None else Some (grant ())))
      | 2 -> ignore (Ledger.revoke ledger (pick (Ledger.size ledger + 1)))
      | 3 -> ignore (Consent.register consents ~session:sessions.(pick 8))
      | 4 ->
        Consent.set_horizon consents
          (Consent.register consents ~session:sessions.(pick 8))
          ~horizon:(float_of_int (pick 100))
          ~at:(float_of_int step)
      | 5 ->
        Consent.revoke consents
          (Consent.register consents ~session:sessions.(pick 8))
          ~at:(float_of_int step)
      | 6 ->
        List.iter (Consent.note_expired consents)
          (Consent.due ~budget:(1 + pick 4) consents
             ~now:(float_of_int (pick 100)))
      | _ ->
        Consent.note_expired consents
          (Consent.register consents ~session:sessions.(pick 8)));
      let stored =
        List.fold_left
          (fun acc (e : Ledger.entry) ->
            match e.Ledger.grant with
            | Some g -> acc + Partial.domain_size g.Pet_pet.Workflow.form
            | None -> acc)
          0 (Ledger.entries ledger)
      and pending =
        List.length
          (List.filter
             (fun (e : Consent.entry) ->
               (not e.expired) && e.revoked_at = None && e.horizon <> None)
             (Consent.entries consents))
      in
      let name what = Printf.sprintf "seed %d step %d: %s" seed step what in
      Alcotest.(check int) (name "stored values") stored
        (Ledger.stored_values ledger);
      Alcotest.(check int) (name "pending") pending
        (Consent.counters consents).Consent.pending
    done
  done

(* Grant links read back as they were noted, for "s<n>" ids and other
   ids, grant ids that pack into one word and ones that do not, and a
   link noted again. *)
let test_grant_links () =
  let consents = Consent.create () in
  let cases =
    List.init 1000 (fun i ->
        (Printf.sprintf "s%d" (i * 7), Printf.sprintf "k%d" (i mod 13), i))
    @ [
        ("replayed-id", "k1", 5);
        ("s3", "k2", 1 lsl 40);
        ("s5", "k3", -1);
        ("s14", "k4", 1 lsl 33);
      ]
  in
  List.iter
    (fun (session, key, id) -> Consent.note_granted consents ~session ~key id)
    cases;
  (* A link noted again replaces the earlier one, packed or not. *)
  Consent.note_granted consents ~session:"s14" ~key:"k5" 9;
  let expected = Hashtbl.create 1024 in
  List.iter (fun (session, key, id) -> Hashtbl.replace expected session (key, id)) cases;
  Hashtbl.replace expected "s14" ("k5", 9);
  Hashtbl.iter
    (fun session link ->
      Alcotest.(check (option (pair string int)))
        ("link of " ^ session) (Some link)
        (Consent.link consents session))
    expected;
  Alcotest.(check (option (pair string int))) "no link" None
    (Consent.link consents "s1");
  Alcotest.(check bool) "tracked" true (Consent.tracked consents "replayed-id");
  Alcotest.(check int) "one entry per linked session" (Hashtbl.length expected)
    (List.length (Consent.entries consents))

(* --- Resident words per respondent ------------------------------------------ *)

(* The words a service keeps per respondent flow: H-cov published by
   text on a clock that never reaches the TTL, [warm] flows to fill the
   report memo, then the growth of [Obj.reachable_words] over [flows]
   more, divided by [flows]. [flow rng line] runs one flow's requests
   through [line], which returns the response's "ok" payload. *)
let resident_words ~warm ~flows flow =
  let hcov = Spec.to_string (Pet_casestudies.Hcov.exposure ()) in
  let service = Service.create ~resolve:(fun _ -> None) ~now:(fun () -> 0.) () in
  let line method_ params =
    let text =
      Json.to_string
        (Json.Obj
           [
             ("pet", Json.Int Proto.version);
             ("id", Json.Int 1);
             ("method", Json.String method_);
             ("params", Json.Obj params);
           ])
    in
    match Json.parse (Service.handle_line service text) with
    | Ok response -> Json.member "ok" response
    | Error m -> Alcotest.failf "response is not JSON: %s" m
  in
  let digest =
    match line "publish_rules" [ ("rules", Json.String hcov) ] with
    | Some ok -> str "digest" ok
    | None -> Alcotest.fail "publish failed"
  in
  let run from upto =
    for i = from to upto - 1 do
      flow (Random.State.make [| 1; i |]) ~digest line
    done
  in
  run 0 warm;
  Gc.full_major ();
  let before = Obj.reachable_words (Obj.repr service) in
  run warm (warm + flows);
  Gc.full_major ();
  let after = Obj.reachable_words (Obj.repr service) in
  float_of_int (after - before) /. float_of_int flows

let hcov_eligible =
  lazy
    (Array.of_list
       (List.map Pet_valuation.Total.to_string
          (Pet_rules.Exposure.eligible (Pet_casestudies.Hcov.exposure ()))))

(* One respondent: open by digest, [reports] reports, then (when
   [submit]) choose the first option and submit; returns the session. *)
let respondent ~digest line ~reports ~submit =
  let session =
    match line "new_session" [ ("digest", Json.String digest) ] with
    | Some ok -> str "session" ok
    | None -> Alcotest.fail "new_session failed"
  in
  let on method_ extra =
    ignore (line method_ (("session", Json.String session) :: extra))
  in
  List.iter (fun v -> on "get_report" [ ("valuation", Json.String v) ]) reports;
  if submit then begin
    on "choose_option" [ ("option", Json.Int 0) ];
    on "submit_form" []
  end;
  (session, on)

(* The load benchmark's journey: one report, choose, submit; then 10%
   revoke and 5% arm an expiry an hour out. Browse: eight reports from
   a pool of 32 valuations, and 20% choose and submit. *)
let test_resident_words () =
  let eligible = Lazy.force hcov_eligible in
  let pick rng = eligible.(Random.State.int rng (Array.length eligible)) in
  let journey rng ~digest line =
    let _, on = respondent ~digest line ~reports:[ pick rng ] ~submit:true in
    let u = Random.State.float rng 1. in
    if u < 0.10 then on "revoke" []
    else if u < 0.15 then on "expire" [ ("after", Json.Float 3600.) ]
  in
  let pool =
    let rng = Random.State.make [| 2 |] in
    Array.init 32 (fun _ -> pick rng)
  in
  let browse rng ~digest line =
    let reports =
      List.init 8 (fun _ -> pool.(Random.State.int rng (Array.length pool)))
    in
    ignore
      (respondent ~digest line ~reports ~submit:(Random.State.float rng 1. < 0.20))
  in
  List.iter
    (fun (name, flow, cap) ->
      let words = resident_words ~warm:1600 ~flows:6000 flow in
      Alcotest.(check bool)
        (Printf.sprintf "%s keeps %.1f words per flow (cap %d)" name words cap)
        true
        (words <= float_of_int cap))
    [ ("journey", journey, 26); ("browse", browse, 16) ]

(* A tenant's accounting cell allocates a slice's bucket counts only
   once the slice records: a tenant that recorded requests in one SLO
   slice adds at most 240 words to its shard's set (its cell, the map
   node and the name), where 40 counts per tally would take 654. *)
let test_accounting_cell_words () =
  let module Accounting = Pet_server.Accounting in
  let acct = Accounting.create () in
  let words () = Obj.reachable_words (Obj.repr acct) in
  let record tenant =
    Accounting.record acct ~meth:3 ~tenant:(Some tenant) ~now:1. ~latency:0.001
      ~error:false
  in
  record "warm";
  let before = words () in
  for _ = 1 to 10 do
    record "alpha"
  done;
  let cell = words () - before in
  Alcotest.(check bool)
    (Printf.sprintf "one-slice cell: %d words" cell)
    true (cell <= 240);
  (* The merged views read never-used tallies as empty. *)
  let snapshot =
    Accounting.snapshot [ acct ] ~now:1.
      { Pet_obs.Metrics.counters = []; gauges = []; histograms = [] }
  in
  Alcotest.(check (option int)) "alpha's requests" (Some 10)
    (List.assoc_opt {|pet_tenant_requests_total{tenant="alpha"}|}
       snapshot.Pet_obs.Metrics.counters)

(* Mean minor words per request, by method, over 400 H-cov journeys
   after 200 that fill the report memo; each ceiling is the measured
   mean plus 10%. A session opened by source reuses the digest its
   source compiled to, so it costs about what one opened by digest does
   (784 against 761 words), not a parse, print and digest of the text
   (5,608 words without the memo). *)
let test_minor_words_per_method () =
  let hcov = Spec.to_string (Pet_casestudies.Hcov.exposure ()) in
  let resolve = function "hcov" -> Some hcov | _ -> None in
  let service = Service.create ~resolve ~now:(fun () -> 0.) () in
  let line method_ params =
    Service.handle_line service
      (Json.to_string
         (Json.Obj
            [
              ("pet", Json.Int Proto.version);
              ("id", Json.Int 1);
              ("method", Json.String method_);
              ("params", Json.Obj params);
            ]))
  in
  let digest =
    match Json.parse (line "publish_rules" [ ("source", Json.String "hcov") ]) with
    | Ok r -> str "digest" (ok_of r)
    | Error m -> Alcotest.fail m
  in
  let eligible = Lazy.force hcov_eligible in
  let totals = Hashtbl.create 8 in
  let measure name method_ params =
    (* The request line is built before the count starts. *)
    let text =
      Json.to_string
        (Json.Obj
           [
             ("pet", Json.Int Proto.version);
             ("id", Json.Int 1);
             ("method", Json.String method_);
             ("params", Json.Obj params);
           ])
    in
    let before = Gc.minor_words () in
    let response = Service.handle_line service text in
    let words = Gc.minor_words () -. before in
    let total = Option.value ~default:0. (Hashtbl.find_opt totals name) in
    Hashtbl.replace totals name (total +. words);
    response
  in
  let journey i ~count =
    let measure = if count then measure else fun _ -> line in
    let opener =
      if i mod 2 = 0 then ("new_session by source", [ ("source", Json.String "hcov") ])
      else ("new_session by digest", [ ("digest", Json.String digest) ])
    in
    let session =
      match Json.parse (measure (fst opener) "new_session" (snd opener)) with
      | Ok r -> str "session" (ok_of r)
      | Error m -> Alcotest.fail m
    in
    let on name extra =
      ignore (measure name name (("session", Json.String session) :: extra))
    in
    on "get_report"
      [ ("valuation", Json.String eligible.(i * 7919 mod Array.length eligible)) ];
    on "choose_option" [ ("option", Json.Int 0) ];
    on "submit_form" []
  in
  for i = 0 to 199 do
    journey i ~count:false
  done;
  let n = 400 in
  for i = 0 to n - 1 do
    journey i ~count:true
  done;
  let mean name =
    let per = if String.starts_with ~prefix:"new_session" name then n / 2 else n in
    Hashtbl.find totals name /. float_of_int per
  in
  List.iter
    (fun (name, ceiling) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s: %.0f minor words (ceiling %d)" name (mean name) ceiling)
        true
        (mean name <= float_of_int ceiling))
    [
      ("new_session by digest", 840);
      ("new_session by source", 870);
      ("get_report", 1670);
      ("choose_option", 910);
      ("submit_form", 1120);
    ];
  let by_source = mean "new_session by source"
  and by_digest = mean "new_session by digest" in
  Alcotest.(check bool)
    (Printf.sprintf "by source %.0f within 2x of by digest %.0f" by_source by_digest)
    true
    (by_source <= 2. *. by_digest)

let () =
  Alcotest.run "pet_server"
    [
      ( "proto",
        [
          Alcotest.test_case "decode" `Quick test_proto_decode;
          Alcotest.test_case "decode errors" `Quick test_proto_decode_errors;
          Alcotest.test_case "encode" `Quick test_proto_encode;
        ] );
      ( "registry",
        [
          Alcotest.test_case "counters" `Quick test_registry_counters;
          Alcotest.test_case "lru" `Quick test_registry_lru;
          Alcotest.test_case "randomized counters" `Quick
            test_registry_randomized_counters;
          Alcotest.test_case "digest" `Quick test_registry_digest;
        ] );
      ( "session",
        [
          Alcotest.test_case "lifecycle" `Quick test_session_lifecycle;
          Alcotest.test_case "expiry" `Quick test_session_expiry;
          Alcotest.test_case "incremental sweep" `Quick test_session_sweep_step;
          Alcotest.test_case "slots match a hash table" `Quick
            test_slots_match_hashtbl;
        ] );
      ( "service",
        [
          Alcotest.test_case "lifecycle" `Quick test_service_lifecycle;
          Alcotest.test_case "errors" `Quick test_service_errors;
          Alcotest.test_case "expiry" `Quick test_service_expiry;
          Alcotest.test_case "abandoned sessions swept" `Quick
            test_service_abandoned_sessions_swept;
          Alcotest.test_case "out of order" `Quick test_service_out_of_order;
          Alcotest.test_case "eviction" `Quick test_service_eviction;
          Alcotest.test_case "unknown_rules names the digest" `Quick
            test_service_unknown_rules_names_digest;
          Alcotest.test_case "ledger survives eviction" `Quick
            test_service_ledger_survives_eviction;
          Alcotest.test_case "tenant recompile counts one miss" `Quick
            test_service_tenant_recompile_counts_one_miss;
          Alcotest.test_case "publish line minor words" `Quick
            test_service_publish_minor_words;
          Alcotest.test_case "canonical digest" `Quick
            test_service_canonical_digest;
          Alcotest.test_case "metrics endpoint" `Quick test_service_metrics;
          Alcotest.test_case "get_report memo matches the engine path" `Quick
            test_report_memo_matches_engine;
        ] );
      ( "consent",
        [
          Alcotest.test_case "revoke tombstones the grant" `Quick
            test_consent_revoke;
          Alcotest.test_case "revoke outlives the TTL sweep" `Quick
            test_consent_revoke_after_sweep;
          Alcotest.test_case "expiry horizon" `Quick test_consent_expire;
          Alcotest.test_case "horizon guard on the request path" `Quick
            test_consent_horizon_guard;
          Alcotest.test_case "budgeted sweep applies every horizon" `Quick
            test_consent_sweep_budget;
          Alcotest.test_case "snapshot and replay keep tombstones" `Quick
            test_consent_snapshot_replay;
          Alcotest.test_case "ledgers are namespaced per tenant" `Quick
            test_ledger_tenant_namespacing;
          Alcotest.test_case "replay keeps a tenant's submissions" `Quick
            test_replay_keeps_tenant_submitted;
          Alcotest.test_case "a revoked horizon survives compaction" `Quick
            test_revoked_horizon_after_compaction;
          Alcotest.test_case "live state equals replayed state" `Quick
            test_live_equals_replay;
          Alcotest.test_case "running counters equal their folds" `Quick
            test_counters_equal_folds;
          Alcotest.test_case "grant links read back" `Quick test_grant_links;
        ] );
      ( "trace",
        [
          Alcotest.test_case "envelope round-trip" `Quick
            test_proto_trace_roundtrip;
          Alcotest.test_case "id echo" `Quick test_service_trace_echo;
          Alcotest.test_case "trace method" `Quick test_service_trace_method;
          Alcotest.test_case "captures are valuation-free" `Quick
            test_trace_privacy;
        ] );
      ( "memory",
        [
          Alcotest.test_case "resident words per respondent flow" `Quick
            test_resident_words;
          Alcotest.test_case "an accounting cell that recorded once" `Quick
            test_accounting_cell_words;
          Alcotest.test_case "minor words per method" `Quick
            test_minor_words_per_method;
        ] );
    ]
