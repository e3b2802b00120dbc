(* Tests for the correctness harness itself: fixed-seed differential
   runs (including the paper's case studies), metamorphic and oracle
   passes on known-good problems, oracles rejecting injected faults, the
   shrinker reducing a failing problem to a tiny DSL reproducer, and a
   protocol fuzz smoke run. *)

module Partial = Pet_valuation.Partial
module Exposure = Pet_rules.Exposure
module Engine = Pet_rules.Engine
module Rule = Pet_rules.Rule
module Spec = Pet_rules.Spec
module Generate = Pet_rules.Generate
module A1 = Pet_minimize.Algorithm1
module Finding = Pet_check.Finding
module Diff = Pet_check.Diff
module Metamorphic = Pet_check.Metamorphic
module Oracle = Pet_check.Oracle
module Shrink = Pet_check.Shrink
module Harness = Pet_check.Harness
module Fuzz = Pet_check.Fuzz

let check_ok label (r : Finding.report) =
  Alcotest.(check bool) "ran some checks" true (r.checks > 0);
  if not (Finding.ok r) then
    Alcotest.failf "%s: %d findings, first: %s" label (List.length r.findings)
      (Fmt.to_to_string Finding.pp (List.hd r.findings))

(* --- Findings -------------------------------------------------------------- *)

let test_finding_reports () =
  let t = Finding.tally () in
  Finding.check t ~stage:"a" true (fun () -> "unused");
  Finding.check t ~stage:"b" false (fun () -> "broken");
  Finding.check t ~stage:"b" false (fun () -> "broken again");
  Finding.fail t ~stage:"c" "also broken";
  let r = Finding.report t in
  Alcotest.(check int) "checks" 4 r.Finding.checks;
  Alcotest.(check bool) "not ok" false (Finding.ok r);
  Alcotest.(check (list string)) "stages, distinct and sorted" [ "b"; "c" ]
    (Finding.stages r);
  let merged = Finding.merge_all [ Finding.empty; r; r ] in
  Alcotest.(check int) "merged checks" 8 merged.Finding.checks;
  Alcotest.(check (list string)) "merged stages" [ "b"; "c" ]
    (Finding.stages merged)

(* --- Fixed-seed differential & harness runs -------------------------------- *)

let test_harness_seeds () =
  List.iter
    (fun (seed, (r : Finding.report)) ->
      check_ok (Printf.sprintf "seed %d" seed) r)
    (Harness.run [ 1; 2; 3; 4; 5 ])

let test_diff_hcov () =
  check_ok "hcov" (Diff.check (Pet_casestudies.Hcov.exposure ()))

let test_diff_rsa () =
  check_ok "rsa" (Diff.check (Pet_casestudies.Rsa.exposure ()))

let test_metamorphic_casestudies () =
  check_ok "running" (Metamorphic.check (Pet_casestudies.Running.exposure ()));
  check_ok "loan" (Metamorphic.check (Pet_casestudies.Loan.exposure ()))

let test_oracle_casestudies () =
  check_ok "running" (Oracle.check (Pet_casestudies.Running.exposure ()));
  check_ok "loan" (Oracle.check (Pet_casestudies.Loan.exposure ()))

let test_oracle_hcov () =
  check_ok "hcov" (Oracle.check (Pet_casestudies.Hcov.exposure ()))

(* --- Oracles reject injected faults ---------------------------------------- *)

(* Bloat a published MAS with one extra binding taken from a player: the
   minimality oracle must notice, on every seed tried. *)
let test_minimality_rejects_bloat () =
  let tried = ref 0 in
  List.iter
    (fun seed ->
      let e = Generate.exposure ~seed () in
      let brute = Engine.create ~backend:Engine.Brute e in
      List.iter
        (fun v ->
          match A1.mas_of brute v with
          | [] -> ()
          | c :: _ ->
            let extra =
              List.filter
                (fun p -> not (List.mem p (Partial.domain c.A1.mas)))
                (Pet_valuation.Universe.names (Exposure.xp e))
            in
            (match extra with
            | [] -> ()
            | p :: _ ->
              incr tried;
              let bloated =
                Partial.set c.A1.mas p
                  (Option.get (Partial.value (Partial.of_total v) p))
              in
              Alcotest.(check bool) "published MAS is minimal" true
                (A1.is_minimal brute c.A1.mas ~benefits:c.A1.benefits);
              Alcotest.(check bool) "bloated MAS is flagged" false
                (A1.is_minimal brute bloated ~benefits:c.A1.benefits)))
        (Exposure.eligible e))
    [ 1; 2; 3 ];
  Alcotest.(check bool) "exercised some bloated MAS" true (!tried > 10)

let test_reproduce_healthy () =
  Alcotest.(check bool) "healthy problem has no reproducer" true
    (Harness.reproduce (Pet_casestudies.Running.exposure ()) = None)

(* --- Shrinking ------------------------------------------------------------- *)

(* An injected fault: pretend any problem where some player has at least
   two MAS choices trips a bug. The shrinker must cut the seed-42 problem
   (8 predicates, rules of 3 conjunctions) down to a <= 5 rule DSL
   reproducer that still exhibits the property. *)
let test_shrink_injected_fault () =
  let has_choice_ambiguity e =
    let engine = Engine.create ~backend:Engine.Bdd e in
    List.exists
      (fun v -> List.length (A1.mas_of engine v) >= 2)
      (Exposure.eligible e)
  in
  let e = Generate.exposure ~seed:42 () in
  Alcotest.(check bool) "fault fires on the original" true
    (has_choice_ambiguity e);
  let shrunk = Shrink.shrink ~still_fails:has_choice_ambiguity e in
  let dsl = Shrink.to_dsl shrunk in
  Alcotest.(check bool) "reproducer has at most 5 rules" true
    (List.length (Exposure.rules shrunk) <= 5);
  Alcotest.(check bool) "reproducer is smaller" true
    (String.length dsl < String.length (Shrink.to_dsl e));
  (* The DSL text is a faithful reproducer: parsing it back yields a
     problem that still exhibits the fault. *)
  match Spec.parse dsl with
  | Error m -> Alcotest.failf "reproducer does not parse: %s" m
  | Ok e' ->
    Alcotest.(check bool) "parsed reproducer still fails" true
      (has_choice_ambiguity e');
    (* 1-minimality: no single further reduction still fails. *)
    Alcotest.(check bool) "reproducer is 1-minimal" true
      (not (List.exists has_choice_ambiguity (Shrink.candidates shrunk)))

let test_seeds_of_string () =
  let ok spec expected =
    match Harness.seeds_of_string spec with
    | Ok seeds -> Alcotest.(check (list int)) spec expected seeds
    | Error m -> Alcotest.failf "%s: unexpected error %s" spec m
  in
  ok "7" [ 7 ];
  ok "1-4" [ 1; 2; 3; 4 ];
  ok "3,7,20-22" [ 3; 7; 20; 21; 22 ];
  List.iter
    (fun spec ->
      match Harness.seeds_of_string spec with
      | Ok _ -> Alcotest.failf "%s: expected an error" spec
      | Error _ -> ())
    [ ""; "x"; "5-2"; "1,,3" ]

(* --- Protocol fuzz smoke --------------------------------------------------- *)

let test_fuzz_smoke () =
  let s = Fuzz.run ~seed:7 ~count:2000 () in
  Alcotest.(check int) "all requests answered" 2000 s.Fuzz.requests;
  Alcotest.(check (list (pair string string))) "no crashes" [] s.Fuzz.crashes;
  Alcotest.(check int) "no malformed responses" 0 s.Fuzz.invalid_responses;
  Alcotest.(check bool) "some requests succeed" true (s.Fuzz.ok > 0);
  Alcotest.(check bool) "some structured errors" true (s.Fuzz.errors > 1000);
  Alcotest.(check bool) "several error codes seen" true
    (List.length s.Fuzz.by_code >= 3);
  (* Determinism: the same seed replays the same run. *)
  let s' = Fuzz.run ~seed:7 ~count:2000 () in
  Alcotest.(check int) "deterministic" s.Fuzz.ok s'.Fuzz.ok

(* --- Fuzz verdicts ----------------------------------------------------------- *)

(* Each verdict starts from a clean summary and must flip on every
   failure condition [pet check] gates on, one at a time. *)
let check_verdict name passed clean failing =
  Alcotest.(check bool) (name ^ ": clean passes") true (passed clean);
  List.iter
    (fun (why, s) ->
      Alcotest.(check bool) (name ^ ": " ^ why) false (passed s))
    failing

let test_fuzz_verdicts () =
  let bad = [ ("line", "why") ] in
  let s =
    {
      Fuzz.requests = 10;
      ok = 4;
      errors = 6;
      invalid_responses = 0;
      crashes = [];
      by_code = [];
      cursor_checked = 10;
      cursor_fast = 2;
      cursor_mismatches = [];
      boundary_checks = 3;
      boundary_failures = [];
    }
  in
  check_verdict "fuzz" Fuzz.passed s
    [
      ("crash", { s with Fuzz.crashes = bad });
      ("invalid response", { s with Fuzz.invalid_responses = 1 });
      ("cursor mismatch", { s with Fuzz.cursor_mismatches = bad });
      ("boundary failure", { s with Fuzz.boundary_failures = bad });
    ];
  let c =
    {
      Fuzz.corpus_requests = 10;
      corpus_ok = 4;
      corpus_errors = 6;
      corpus_invalid = 0;
      corpus_crashes = [];
      corpus_tenants = 3;
      corpus_build_failures = 1;
      corpus_updates = 2;
      swap_checks = 2;
      swap_mismatches = [];
    }
  in
  check_verdict "corpus" Fuzz.passed_corpus c
    [
      ("crash", { c with Fuzz.corpus_crashes = bad });
      ("invalid response", { c with Fuzz.corpus_invalid = 1 });
      ("swap mismatch", { c with Fuzz.swap_mismatches = bad });
      ("oversized build never failed", { c with Fuzz.corpus_build_failures = 0 });
    ];
  let st =
    {
      Fuzz.logs = 2;
      mutations = [ ("bitflip", 2) ];
      recovered_events = 5;
      damage_reports = 1;
      torn_tails = 1;
      replay_errors = 0;
      store_violations = [];
    }
  in
  check_verdict "store" Fuzz.passed_store st
    [ ("violation", { st with Fuzz.store_violations = bad }) ];
  let co =
    {
      Fuzz.rounds = 2;
      consent_requests = 20;
      revokes = 1;
      expiries = 1;
      crash_recoveries = 2;
      audits_passed = 4;
      injections_caught = 1;
      consent_violations = [];
    }
  in
  check_verdict "consent" Fuzz.passed_consent co
    [
      ("violation", { co with Fuzz.consent_violations = bad });
      ("no audit passed", { co with Fuzz.audits_passed = 0 });
    ];
  Alcotest.(check bool) "consent: no rounds, no audits needed" true
    (Fuzz.passed_consent { co with Fuzz.rounds = 0; audits_passed = 0 })

let () =
  Alcotest.run "pet_check"
    [
      ( "finding",
        [ Alcotest.test_case "reports" `Quick test_finding_reports ] );
      ( "harness",
        [
          Alcotest.test_case "seeds 1-5" `Quick test_harness_seeds;
          Alcotest.test_case "seed specs" `Quick test_seeds_of_string;
          Alcotest.test_case "healthy problems need no reproducer" `Quick
            test_reproduce_healthy;
        ] );
      ( "differential",
        [
          Alcotest.test_case "hcov" `Slow test_diff_hcov;
          Alcotest.test_case "rsa" `Slow test_diff_rsa;
        ] );
      ( "metamorphic",
        [
          Alcotest.test_case "case studies" `Quick test_metamorphic_casestudies;
        ] );
      ( "oracle",
        [
          Alcotest.test_case "case studies" `Quick test_oracle_casestudies;
          Alcotest.test_case "hcov" `Slow test_oracle_hcov;
          Alcotest.test_case "rejects bloated MAS" `Quick
            test_minimality_rejects_bloat;
        ] );
      ( "shrink",
        [
          Alcotest.test_case "injected fault to <= 5 rules" `Quick
            test_shrink_injected_fault;
        ] );
      ( "fuzz",
        [
          Alcotest.test_case "smoke" `Quick test_fuzz_smoke;
          Alcotest.test_case "verdicts" `Quick test_fuzz_verdicts;
        ] );
    ]
