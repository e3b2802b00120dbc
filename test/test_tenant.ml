(* Tests for the multi-tenant layer: the generated form corpus, the
   versioned tenant registry, and the service-level hot-swap guarantee
   that a version swap never evicts an open session's engine. *)

module Json = Pet_pet.Json
module Spec = Pet_rules.Spec
module Registry = Pet_server.Registry
module Service = Pet_server.Service
module Tenant = Pet_tenant.Tenant
module Corpus = Pet_corpus.Corpus

(* --- Corpus --------------------------------------------------------------------- *)

let test_corpus_forms_parse () =
  (* Every corpus form is valid rule-DSL across seeds, sizes and
     revisions, and the triple (seed, index, revision) is
     deterministic. *)
  List.iter
    (fun seed ->
      List.iter
        (fun index ->
          let f = Corpus.form ~seed index in
          Alcotest.(check bool)
            (Printf.sprintf "size in band (seed %d, index %d)" seed index)
            true
            (f.Corpus.size >= Corpus.min_size && f.Corpus.size <= Corpus.max_size);
          (match Spec.parse f.Corpus.text with
          | Ok exposure ->
            Alcotest.(check int)
              (Printf.sprintf "predicate count (seed %d, index %d)" seed index)
              f.Corpus.size
              (Pet_valuation.Universe.size (Pet_rules.Exposure.xp exposure))
          | Error m ->
            Alcotest.failf "seed %d index %d does not parse: %s\n%s" seed index
              m f.Corpus.text);
          let again = Corpus.form ~seed index in
          Alcotest.(check string) "deterministic" f.Corpus.text again.Corpus.text)
        [ 0; 3; 7; 19 ])
    [ 0; 1; 42 ]

let test_corpus_update_changes_digest () =
  (* A revision keeps the collected predicates (the form the respondent
     sees) but re-rolls the rules, so the canonical digest changes —
     the property hot migration relies on. *)
  let f = Corpus.form ~seed:5 ~size:10 2 in
  let g = Corpus.update ~seed:5 f in
  Alcotest.(check (list string))
    "same predicates" f.Corpus.predicates g.Corpus.predicates;
  Alcotest.(check (list string)) "same benefits" f.Corpus.benefits g.Corpus.benefits;
  Alcotest.(check int) "revision bumped" (f.Corpus.revision + 1) g.Corpus.revision;
  let digest (x : Corpus.form) =
    match Spec.parse x.Corpus.text with
    | Ok e -> Registry.digest (Spec.to_string e)
    | Error m -> Alcotest.fail m
  in
  Alcotest.(check bool) "digest changed" false (digest f = digest g)

let test_corpus_valuations () =
  (* Respondent valuations have one bit per predicate and never set two
     predicates of the same exclusion bracket. *)
  let f = Corpus.form ~seed:9 ~size:20 1 in
  let index_of p =
    let rec go i = function
      | [] -> Alcotest.failf "unknown predicate %s" p
      | q :: _ when q = p -> i
      | _ :: rest -> go (i + 1) rest
    in
    go 0 f.Corpus.predicates
  in
  for respondent = 0 to 49 do
    let v = Corpus.valuation ~seed:9 f respondent in
    Alcotest.(check int) "one bit per predicate" f.Corpus.size (String.length v);
    String.iter
      (fun c ->
        if c <> '0' && c <> '1' then Alcotest.failf "bad bit %c in %s" c v)
      v;
    List.iter
      (fun bracket ->
        let set =
          List.length (List.filter (fun p -> v.[index_of p] = '1') bracket)
        in
        Alcotest.(check bool)
          (Printf.sprintf "bracket respected by %s" v)
          true (set <= 1))
      f.Corpus.brackets
  done

(* --- Tenant registry ------------------------------------------------------------ *)

(* The text build a resolver passes, for a registry whose every version
   was built by its queued job. *)
let no_build text = Alcotest.failf "unexpected build of %S" text

(* [resolve]'s artifact, which must be ready. *)
let artifact_of t ~build name =
  match Tenant.resolve t ~build name with
  | `Ready r -> r.Tenant.res_artifact
  | `Failed (_, m) -> Alcotest.failf "%s failed: %s" name m
  | `Unknown -> Alcotest.failf "%s unknown" name

let test_resolvers_share_artifact () =
  (* Every resolver, on any domain, gets the very artifact the build
     produced — not a copy, and not [None] after the first. *)
  let t : int ref Tenant.t = Tenant.create () in
  ignore
    (Tenant.publish t ~name:"acme" ~digest:"d1" ~text:"one" ~now:0.
       ~build:(fun () -> Ok (ref 1))
       ());
  Tenant.await t "acme";
  let first = artifact_of t ~build:no_build "acme" in
  let others =
    List.init 2 (fun _ ->
        Domain.spawn (fun () ->
            List.init 50 (fun _ -> artifact_of t ~build:no_build "acme")))
    |> List.concat_map Domain.join
  in
  Alcotest.(check int) "the built value" 1 !first;
  Alcotest.(check bool) "every resolver gets the same artifact" true
    (List.for_all
       (fun a -> a == first)
       (artifact_of t ~build:no_build "acme" :: others));
  Alcotest.(check bool) "so does a digest lookup" true
    (match Tenant.artifact_of_digest t ~build:no_build "d1" with
    | Some a -> a == first
    | None -> false)

let test_superseded_drops_artifact () =
  (* Once a newer version is active the old one holds no artifact: the
     registry keeps one per tenant, and the old version is served from
     its text. *)
  let t : int ref Tenant.t = Tenant.create () in
  ignore
    (Tenant.publish t ~name:"acme" ~digest:"d1" ~text:"one" ~now:0.
       ~build:(fun () -> Ok (ref 1))
       ());
  Tenant.await t "acme";
  let v1 = artifact_of t ~build:no_build "acme" in
  ignore
    (Tenant.update t ~name:"acme" ~digest:"d2" ~text:"two" ~now:1.
       ~build:(fun () -> Ok (ref 2))
       ());
  (* Until version 2 lands, version 1 keeps serving with its artifact. *)
  Alcotest.(check bool) "active version keeps it while the next builds" true
    (match Tenant.artifact_of_digest t ~build:no_build "d1" with
    | Some a -> a == v1
    | None -> false);
  Tenant.await t "acme";
  let v2 = artifact_of t ~build:no_build "acme" in
  Alcotest.(check int) "version 2 serves" 2 !v2;
  Alcotest.(check bool) "the superseded version dropped its artifact" true
    (Tenant.artifact_of_digest t ~build:no_build "d1" = None);
  Alcotest.(check (option string)) "its text stays" (Some "one")
    (Tenant.text_of_digest t "d1");
  Alcotest.(check bool) "the active version holds its own" true
    (match Tenant.artifact_of_digest t ~build:no_build "d2" with
    | Some a -> a == v2
    | None -> false);
  Alcotest.(check bool) "unknown digest" true
    (Tenant.artifact_of_digest t ~build:no_build "d9" = None)

let test_restored_built_once () =
  (* A restored version has no artifact. Its first resolver builds it
     from the text and stores it; every later resolver, and a digest
     lookup, takes that one. Two domains racing at first touch may both
     build, but the first store wins and both get it. A superseded
     restored version is never built. *)
  let builds = Atomic.make 0 in
  let build text =
    Atomic.incr builds;
    Unix.sleepf 0.01;
    Ok (ref (String.length text))
  in
  let t : int ref Tenant.t = Tenant.create () in
  Tenant.restore t ~name:"old" ~version:1 ~digest:"o1" ~text:"x" ~now:0. ();
  Tenant.restore t ~name:"old" ~version:2 ~digest:"o2" ~text:"xy" ~now:0. ();
  Tenant.restore t ~name:"race" ~version:1 ~digest:"r1" ~text:"xyz" ~now:0. ();
  let first = artifact_of t ~build "old" in
  Alcotest.(check int) "built from the active version's text" 2 !first;
  Alcotest.(check int) "one build" 1 (Atomic.get builds);
  Alcotest.(check bool) "then shared" true (artifact_of t ~build "old" == first);
  Alcotest.(check bool) "by digest too" true
    (match Tenant.artifact_of_digest t ~build "o2" with
    | Some a -> a == first
    | None -> false);
  Alcotest.(check bool) "a superseded restored version is not built" true
    (Tenant.artifact_of_digest t ~build "o1" = None);
  Alcotest.(check int) "still one build" 1 (Atomic.get builds);
  let racers =
    List.init 2 (fun _ -> Domain.spawn (fun () -> artifact_of t ~build "race"))
    |> List.map Domain.join
  in
  let winner = artifact_of t ~build "race" in
  Alcotest.(check bool) "racers get the first stored" true
    (List.for_all (fun a -> a == winner) racers);
  let built = Atomic.get builds in
  Alcotest.(check bool) "at most one build per racer" true (built = 2 || built = 3);
  ignore (artifact_of t ~build "race");
  Alcotest.(check int) "no build after the store" built (Atomic.get builds)

let test_tenant_versions () =
  let t : int Tenant.t = Tenant.create () in
  (match
     Tenant.publish t ~name:"acme" ~digest:"d1" ~text:"one" ~now:0.
       ~build:(fun () -> Ok 1)
       ()
   with
  | `Created -> ()
  | `Existing _ | `Conflict _ -> Alcotest.fail "expected `Created");
  Tenant.await t "acme";
  (match Tenant.resolve t ~build:no_build "acme" with
  | `Ready r ->
    Alcotest.(check int) "version 1" 1 r.Tenant.res_version;
    Alcotest.(check string) "digest" "d1" r.Tenant.res_digest;
    Alcotest.(check int) "the built artifact" 1 r.Tenant.res_artifact
  | `Failed _ | `Unknown -> Alcotest.fail "expected `Ready");
  (* Idempotent republish vs conflicting republish. *)
  (match
     Tenant.publish t ~name:"acme" ~digest:"d1" ~text:"one" ~now:1.
       ~build:(fun () -> Ok 1)
       ()
   with
  | `Existing (1, Tenant.Ready, false) -> ()
  | _ -> Alcotest.fail "expected `Existing (1, Ready)");
  (match
     Tenant.publish t ~name:"acme" ~digest:"d9" ~text:"nine" ~now:1.
       ~build:(fun () -> Ok 9)
       ()
   with
  | `Conflict 1 -> ()
  | _ -> Alcotest.fail "expected `Conflict 1");
  (* Updates append versions and swap the active one when built. *)
  (match
     Tenant.update t ~name:"acme" ~digest:"d2" ~text:"two" ~now:2.
       ~build:(fun () -> Ok 2)
       ()
   with
  | `Queued 2 -> ()
  | _ -> Alcotest.fail "expected `Queued 2");
  Tenant.await t "acme";
  (match Tenant.resolve t ~build:no_build "acme" with
  | `Ready r -> Alcotest.(check int) "active swapped" 2 r.Tenant.res_version
  | _ -> Alcotest.fail "expected version 2");
  (match
     Tenant.update t ~name:"acme" ~digest:"d2" ~text:"two" ~now:3.
       ~build:(fun () -> Ok 2)
       ()
   with
  | `Unchanged (2, Tenant.Ready, false) -> ()
  | _ -> Alcotest.fail "expected `Unchanged");
  (match
     Tenant.update t ~name:"ghost" ~digest:"d" ~text:"x" ~now:3.
       ~build:(fun () -> Ok 0)
       ()
   with
  | `Unknown -> ()
  | _ -> Alcotest.fail "expected `Unknown");
  (* Old versions stay recompilable by digest. *)
  Alcotest.(check (option string)) "old text by digest" (Some "one")
    (Tenant.text_of_digest t "d1");
  (* A failing build surfaces as `Failed, and is counted. *)
  (match
     Tenant.publish t ~name:"bad" ~digest:"db" ~text:"b" ~now:4.
       ~build:(fun () -> Error "boom")
       ()
   with
  | `Created -> ()
  | _ -> Alcotest.fail "expected `Created");
  Tenant.await t "bad";
  (match Tenant.resolve t ~build:no_build "bad" with
  | `Failed (1, m) -> Alcotest.(check string) "failure message" "boom" m
  | _ -> Alcotest.fail "expected `Failed");
  let totals = Tenant.totals t in
  Alcotest.(check int) "tenants" 2 totals.Tenant.tenants;
  Alcotest.(check int) "builds" 2 totals.Tenant.builds;
  Alcotest.(check int) "build failures" 1 totals.Tenant.build_failures;
  Alcotest.(check int) "none in flight" 0 totals.Tenant.building

let test_await_covers_earlier_builds () =
  (* Two helper threads take builds from one queue, so a later build can
     land first: "fast" becomes ready while "slow" still builds. The
     barrier on "fast" still waits for "slow", queued before it, so what
     a script sees after it does not depend on which domain ran what. *)
  let t : int Tenant.t = Tenant.create () in
  let gate = Atomic.make false and started = Atomic.make false in
  let state name =
    match Tenant.info t name with
    | Some info -> info.Tenant.state
    | None -> Alcotest.failf "unknown tenant %s" name
  in
  ignore
    (Tenant.publish t ~name:"slow" ~digest:"ds" ~text:"s" ~now:0.
       ~build:(fun () ->
         Atomic.set started true;
         while not (Atomic.get gate) do
           Unix.sleepf 0.001
         done;
         Ok 1)
       ());
  ignore
    (Tenant.publish t ~name:"fast" ~digest:"df" ~text:"f" ~now:0.
       ~build:(fun () -> Ok 2)
       ());
  let helper () = ignore (Tenant.run_one t) in
  let slow_runner = Thread.create helper () in
  while not (Atomic.get started) do
    Thread.delay 0.001
  done;
  let fast_runner = Thread.create helper () in
  let returned = Atomic.make false in
  let waiter =
    Thread.create
      (fun () ->
        Tenant.await t "fast";
        Atomic.set returned true)
      ()
  in
  let deadline = Unix.gettimeofday () +. 10. in
  while state "fast" = Tenant.Building && Unix.gettimeofday () < deadline do
    Thread.delay 0.001
  done;
  Alcotest.(check string) "fast built beside slow" "ready"
    (Tenant.state_name (state "fast"));
  Thread.delay 0.05;
  Alcotest.(check bool) "the barrier waits for the earlier build" false
    (Atomic.get returned);
  Atomic.set gate true;
  List.iter Thread.join [ waiter; slow_runner; fast_runner ];
  Alcotest.(check string) "slow settled" "ready" (Tenant.state_name (state "slow"))

let test_waiter_runs_builds () =
  (* Nothing else runs this registry's builds: the waiters must. *)
  let t : int Tenant.t = Tenant.create () in
  ignore
    (Tenant.publish t ~name:"a" ~digest:"da" ~text:"a" ~now:0.
       ~build:(fun () -> Ok 1)
       ());
  ignore
    (Tenant.publish t ~name:"b" ~digest:"db" ~text:"b" ~now:0.
       ~build:(fun () -> Ok 2)
       ());
  ignore
    (Tenant.publish t ~name:"bad" ~digest:"dx" ~text:"x" ~now:0.
       ~build:(fun () -> failwith "boom")
       ());
  Alcotest.(check bool) "builds queued" true (Tenant.queued t);
  Tenant.await t "a";
  Alcotest.(check string) "await built a" "ready"
    (Tenant.state_name (Option.get (Tenant.info t "a")).Tenant.state);
  (match Tenant.resolve t ~build:no_build "b" with
  | `Ready r -> Alcotest.(check int) "resolve built b" 2 r.Tenant.res_artifact
  | `Failed _ | `Unknown -> Alcotest.fail "expected `Ready");
  (match Tenant.resolve t ~build:no_build "bad" with
  | `Failed (1, m) ->
    Alcotest.(check string) "the exception is the message" {|Failure("boom")|} m
  | _ -> Alcotest.fail "expected `Failed (1, _)");
  Alcotest.(check bool) "queue drained" false (Tenant.queued t);
  Alcotest.(check bool) "nothing left to run" false (Tenant.run_one t);
  let totals = Tenant.totals t in
  Alcotest.(check int) "builds" 2 totals.Tenant.builds;
  Alcotest.(check int) "build failures" 1 totals.Tenant.build_failures;
  Alcotest.(check int) "none in flight" 0 totals.Tenant.building

let test_tenant_quota () =
  let t : unit Tenant.t = Tenant.create () in
  ignore
    (Tenant.publish t ~name:"q" ~digest:"d" ~text:"x" ~quota:2 ~now:0.
       ~build:(fun () -> Ok ())
       ());
  Tenant.await t "q";
  (match Tenant.try_admit t "q" with
  | `Ok -> ()
  | `Over _ -> Alcotest.fail "first admit");
  (match Tenant.try_admit t "q" with
  | `Ok -> ()
  | `Over _ -> Alcotest.fail "second admit");
  (match Tenant.try_admit t "q" with
  | `Over 2 -> ()
  | _ -> Alcotest.fail "expected `Over 2");
  (* Expiry or submission frees the slot. *)
  Tenant.release t "q";
  (match Tenant.try_admit t "q" with
  | `Ok -> ()
  | `Over _ -> Alcotest.fail "admit after release");
  let info = Option.get (Tenant.info t "q") in
  Alcotest.(check int) "active sessions" 2 info.Tenant.sessions_active;
  Alcotest.(check int) "created sessions" 3 info.Tenant.sessions_created

(* --- Service: hot swap never evicts a pinned session's engine ------------------- *)

let request_line ?(id = 1) method_ params =
  Json.to_string
    (Json.Obj
       [
         ("pet", Json.Int Pet_server.Proto.version);
         ("id", Json.Int id);
         ("method", Json.String method_);
         ("params", Json.Obj params);
       ])

let parse_ok response =
  match Json.parse response with
  | Ok o -> (
    match Json.member "ok" o with
    | Some payload -> payload
    | None -> Alcotest.failf "expected ok, got %s" response)
  | Error m -> Alcotest.failf "response is not JSON: %s" m

let str field payload =
  match Option.bind (Json.member field payload) Json.string_opt with
  | Some s -> s
  | None -> Alcotest.failf "missing string field %S" field

let test_swap_keeps_pinned_engine () =
  (* A capacity-1 engine cache and six hot migrations: every new
     version's artifact lands in the cache and evicts the pinned
     session's engine, yet the pinned session keeps answering — the
     tenant registry retains every version's canonical text, so the
     engine recompiles instead of erroring. The responses must be
     byte-identical: in-flight respondents never observe a swap. *)
  let tick = ref 0. in
  let service =
    Service.create ~capacity:1 ~ttl:0.
      ~now:(fun () ->
        tick := !tick +. 1.;
        !tick)
      ()
  in
  let form = ref (Corpus.form ~seed:3 ~size:8 0) in
  let send line = Service.handle_line service line in
  ignore
    (parse_ok
       (send
          (request_line "publish_rules"
             [
               ("rules", Json.String !form.Corpus.text);
               ("tenant", Json.String !form.Corpus.name);
             ])));
  ignore
    (parse_ok
       (send
          (request_line "tenant"
             [ ("name", Json.String !form.Corpus.name); ("wait", Json.Bool true) ])));
  let opened =
    parse_ok
      (send
         (request_line "new_session" [ ("tenant", Json.String !form.Corpus.name) ]))
  in
  let sid = str "session" opened in
  let pinned_digest = str "digest" opened in
  let report_line =
    request_line ~id:99 "get_report"
      [
        ("session", Json.String sid);
        ("valuation", Json.String (Corpus.valuation ~seed:3 !form 0));
      ]
  in
  let baseline = send report_line in
  ignore (parse_ok baseline);
  for swap = 1 to 6 do
    form := Corpus.update ~seed:3 !form;
    ignore
      (parse_ok
         (send
            (request_line "update_rules"
               [
                 ("tenant", Json.String !form.Corpus.name);
                 ("rules", Json.String !form.Corpus.text);
               ])));
    ignore
      (parse_ok
         (send
            (request_line "tenant"
               [
                 ("name", Json.String !form.Corpus.name); ("wait", Json.Bool true);
               ])));
    (* A fresh session resolves the new version and installs its
       artifact — evicting the pinned engine from the capacity-1
       cache. *)
    let fresh =
      parse_ok
        (send
           (request_line "new_session"
              [ ("tenant", Json.String !form.Corpus.name) ]))
    in
    Alcotest.(check bool)
      (Printf.sprintf "swap %d serves a new digest" swap)
      false
      (str "digest" fresh = pinned_digest);
    Alcotest.(check string)
      (Printf.sprintf "pinned response unchanged after swap %d" swap)
      baseline (send report_line)
  done

let test_recovered_tenant_built_on_first_use () =
  (* A tenant's log replays without a provider build: a replayed choice
     or grant needs only the form universe. The first session after the
     replay builds the tenant once, and a second shard sharing the
     registry serves that same build. *)
  let counter = Pet_obs.Metrics.counter "pet_provider_builds_total" in
  let was_on = Pet_obs.Metrics.enabled () in
  Pet_obs.Metrics.enable ();
  Fun.protect ~finally:(fun () -> if not was_on then Pet_obs.Metrics.disable ())
  @@ fun () ->
  let now =
    let tick = ref 0. in
    fun () ->
      tick := !tick +. 1.;
      !tick
  in
  let live = Service.create ~now () in
  let logged = ref [] in
  Service.set_sink live
    { Pet_server.Persist.emit = (fun e -> logged := e :: !logged) };
  let call method_ params = Service.handle_line live (request_line method_ params) in
  let form = Corpus.form ~seed:3 ~size:8 0 in
  let name = Json.String form.Corpus.name in
  ignore
    (parse_ok
       (call "publish_rules"
          [ ("rules", Json.String form.Corpus.text); ("tenant", name) ]));
  ignore (parse_ok (call "tenant" [ ("name", name); ("wait", Json.Bool true) ]));
  let submitted = ref 0 in
  for respondent = 0 to 7 do
    let sid = str "session" (parse_ok (call "new_session" [ ("tenant", name) ])) in
    let session = ("session", Json.String sid) in
    let valuation = Corpus.valuation ~seed:3 form respondent in
    match
      Json.parse
        (call "get_report" [ session; ("valuation", Json.String valuation) ])
    with
    | Ok o when Json.member "ok" o <> None ->
      ignore (parse_ok (call "choose_option" [ session; ("option", Json.Int 0) ]));
      ignore (parse_ok (call "submit_form" [ session ]));
      incr submitted
    | _ -> ()
  done;
  Alcotest.(check bool) "some respondents submitted" true (!submitted > 0);
  let shared = Pet_server.Shared.create () and tenants = Tenant.create () in
  let shards = Array.init 2 (fun _ -> Service.create ~shared ~tenants ~now ()) in
  let before = Pet_obs.Metrics.counter_value counter in
  List.iter
    (fun event ->
      match Service.apply_event shards.(0) event with
      | Ok () -> ()
      | Error m -> Alcotest.failf "replay: %s" m)
    (List.rev !logged);
  Alcotest.(check int) "replay builds nothing" 0
    (Pet_obs.Metrics.counter_value counter - before);
  Array.iter
    (fun shard ->
      ignore
        (parse_ok
           (Service.handle_line shard
              (request_line "new_session" [ ("tenant", name) ]))))
    shards;
  Alcotest.(check int) "one build for both shards" 1
    (Pet_obs.Metrics.counter_value counter - before)

let () =
  Alcotest.run "pet_tenant"
    [
      ( "corpus",
        [
          Alcotest.test_case "forms parse" `Quick test_corpus_forms_parse;
          Alcotest.test_case "update changes digest" `Quick
            test_corpus_update_changes_digest;
          Alcotest.test_case "valuations respect brackets" `Quick
            test_corpus_valuations;
        ] );
      ( "registry",
        [
          Alcotest.test_case "versions" `Quick test_tenant_versions;
          Alcotest.test_case "every resolver gets the same artifact" `Quick
            test_resolvers_share_artifact;
          Alcotest.test_case "a superseded version drops its artifact" `Quick
            test_superseded_drops_artifact;
          Alcotest.test_case "a restored version is built once and then shared"
            `Quick test_restored_built_once;
          Alcotest.test_case "quota" `Quick test_tenant_quota;
          Alcotest.test_case "the barrier covers earlier builds" `Quick
            test_await_covers_earlier_builds;
          Alcotest.test_case "a waiter runs queued builds" `Quick
            test_waiter_runs_builds;
        ] );
      ( "service",
        [
          Alcotest.test_case "hot swap keeps pinned engines" `Quick
            test_swap_keeps_pinned_engine;
          Alcotest.test_case "a recovered tenant is built on first use" `Quick
            test_recovered_tenant_built_on_first_use;
        ] );
    ]
