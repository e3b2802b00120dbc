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
  Alcotest.(check int) "no crashes" 0 (Fuzz.count Crash s);
  Alcotest.(check int) "no malformed responses" 0 (Fuzz.count Invalid_response s);
  Alcotest.(check bool) "some requests succeed" true (s.Fuzz.ok > 0);
  Alcotest.(check bool) "some structured errors" true (s.Fuzz.errors > 1000);
  Alcotest.(check bool) "several error codes seen" true
    (List.length s.Fuzz.by_code >= 3);
  (* Determinism: the same seed replays the same run. *)
  let s' = Fuzz.run ~seed:7 ~count:2000 () in
  Alcotest.(check int) "deterministic" s.Fuzz.ok s'.Fuzz.ok

(* Every corpus request, pinned-session replays included, is classified
   exactly once by the feed: the summary adds up. *)
let test_fuzz_corpus_adds_up () =
  let s = Fuzz.run_corpus ~seed:3 ~count:500 () in
  Alcotest.(check bool) "passed" true (Fuzz.passed s);
  Alcotest.(check bool) "swap checks ran" true (Fuzz.tally "swap checks" s > 0);
  Alcotest.(check int) "ok + errors + invalid = requests" s.Fuzz.requests
    (s.Fuzz.ok + s.Fuzz.errors + Fuzz.count Invalid_response s)

(* --- Fuzz verdicts ----------------------------------------------------------- *)

(* Each mode starts from a clean summary, and the one verdict must flip
   on every failure condition [pet check] gates on, one at a time. *)
let check_verdict name clean failing =
  Alcotest.(check bool) (name ^ ": clean passes") true (Fuzz.passed clean);
  List.iter
    (fun (why, s) ->
      Alcotest.(check bool) (name ^ ": " ^ why) false (Fuzz.passed s))
    failing

let test_fuzz_verdicts () =
  let summary mode tallies =
    {
      Fuzz.mode;
      requests = 10;
      ok = 4;
      errors = 6;
      by_code = [];
      tallies;
      violations = [];
    }
  in
  let found kind s =
    { s with Fuzz.violations = [ { Fuzz.kind; what = "why"; detail = "line" } ] }
  in
  let s = summary Protocol [ ("boundary checks", 3); ("cursor checked", 10) ] in
  check_verdict "fuzz" s
    [
      ("crash", found Crash s);
      ("invalid response", found Invalid_response s);
      ("cursor mismatch", found Cursor_mismatch s);
      ("boundary failure", found Boundary_failure s);
    ];
  (* A tally that never moved is absent, as after a real run. *)
  let c = summary Corpus [ ("build failures", 1); ("swap checks", 2) ] in
  check_verdict "corpus" c
    [
      ("crash", found Crash c);
      ("invalid response", found Invalid_response c);
      ("swap mismatch", found Swap_mismatch c);
      ("oversized build never failed", summary Corpus [ ("swap checks", 2) ]);
    ];
  let st = summary Store [ ("bitflip", 2); ("mutated logs", 2) ] in
  check_verdict "store" st [ ("violation", found Violation st) ];
  let co = summary Consent [ ("audits passed", 4); ("rounds", 2) ] in
  check_verdict "consent" co
    [
      ("violation", found Violation co);
      ("crash", found Crash co);
      ("no audit passed", summary Consent [ ("rounds", 2) ]);
    ];
  Alcotest.(check bool) "consent: no rounds, no audits needed" true
    (Fuzz.passed (summary Consent []))

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
          Alcotest.test_case "corpus summary adds up" `Quick
            test_fuzz_corpus_adds_up;
          Alcotest.test_case "verdicts" `Quick test_fuzz_verdicts;
        ] );
    ]
