(* Tests for rules, exposure problems, the proof relation (all three
   backends) and the rule-file parser. *)

module F = Pet_logic.Formula
module Parse = Pet_logic.Parse
module Dnf = Pet_logic.Dnf
module Universe = Pet_valuation.Universe
module Total = Pet_valuation.Total
module Partial = Pet_valuation.Partial
module Rule = Pet_rules.Rule
module Exposure = Pet_rules.Exposure
module Engine = Pet_rules.Engine
module Spec = Pet_rules.Spec
module Running = Pet_casestudies.Running
module Hcov = Pet_casestudies.Hcov

let xp3 () = Universe.of_names [ "p1"; "p2"; "p3" ]

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i =
    i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1))
  in
  go 0

(* --- Rule --------------------------------------------------------------- *)

let test_rule_of_formula () =
  let r = Rule.of_formula ~benefit:"b" (Parse.formula "!(!p1 & !(p2 & p3))") in
  Alcotest.(check bool) "dnf equivalent" true
    (F.equivalent (Dnf.to_formula r.dnf) (Parse.formula "p1 | (p2 & p3)"));
  Alcotest.(check bool) "triggered" true
    (Rule.triggered_by (fun v -> v = "p1") r);
  Alcotest.(check bool) "not triggered" false
    (Rule.triggered_by (fun v -> v = "p2") r)

(* --- Exposure validation -------------------------------------------------- *)

let test_exposure_validation () =
  let xp = xp3 () and xb = Universe.of_names [ "b1"; "b2" ] in
  let rule b f = Rule.of_formula ~benefit:b (Parse.formula f) in
  let fails mk =
    match mk () with exception Invalid_argument _ -> true | _ -> false
  in
  Alcotest.(check bool) "missing rule" true
    (fails (fun () -> Exposure.create ~xp ~xb ~rules:[ rule "b1" "p1" ] ()));
  Alcotest.(check bool) "duplicate rule" true
    (fails (fun () ->
         Exposure.create ~xp ~xb
           ~rules:[ rule "b1" "p1"; rule "b1" "p2"; rule "b2" "p3" ]
           ()));
  Alcotest.(check bool) "unknown benefit" true
    (fails (fun () ->
         Exposure.create ~xp ~xb
           ~rules:[ rule "b1" "p1"; rule "b2" "p2"; rule "zz" "p3" ]
           ()));
  Alcotest.(check bool) "rule uses unknown var" true
    (fails (fun () ->
         Exposure.create ~xp ~xb ~rules:[ rule "b1" "q9"; rule "b2" "p2" ] ()));
  Alcotest.(check bool) "constraint uses benefit" true
    (fails (fun () ->
         Exposure.create ~xp ~xb
           ~rules:[ rule "b1" "p1"; rule "b2" "p2" ]
           ~constraints:[ Parse.formula "b1 -> p2" ]
           ()));
  Alcotest.(check bool) "name collision" true
    (fails (fun () ->
         Exposure.create ~xp
           ~xb:(Universe.of_names [ "p1"; "b2" ])
           ~rules:[ rule "p1" "p2"; rule "b2" "p3" ]
           ()))

let test_exposure_accessors () =
  let e = Running.exposure () in
  Alcotest.(check int) "3 rules" 3 (List.length (Exposure.rules e));
  Alcotest.(check string) "rule_for b2" "b2" (Exposure.rule_for e "b2").benefit;
  Alcotest.(check bool) "rule_for unknown" true
    (match Exposure.rule_for e "zz" with
    | exception Not_found -> true
    | _ -> false);
  (* The full formula has the right models: count processed valuations. *)
  let f = Exposure.to_formula e in
  let models =
    List.filter
      (fun rho -> F.eval rho f)
      (F.all_assignments (F.vars f))
  in
  (* One model per p-valuation: benefits are functions of predicates. *)
  Alcotest.(check int) "8 models" 8 (List.length models)

let test_benefits_of_assignment () =
  let e = Running.exposure () in
  let benefits s =
    let v = Total.of_string (Exposure.xp e) s in
    Exposure.benefits_of_assignment e (Total.rho v)
  in
  Alcotest.(check (list string)) "011" [ "b1" ] (benefits "011");
  Alcotest.(check (list string)) "111" [ "b1" ] (benefits "111");
  Alcotest.(check (list string)) "110" [ "b1"; "b3" ] (benefits "110");
  Alcotest.(check (list string)) "101" [ "b1"; "b2" ] (benefits "101");
  Alcotest.(check (list string)) "100" [ "b1"; "b2"; "b3" ] (benefits "100");
  Alcotest.(check (list string)) "000" [] (benefits "000")

let test_realistic_eligible () =
  let e = Running.exposure () in
  Alcotest.(check int) "no constraints: all realistic" 8
    (List.length (Exposure.realistic e));
  Alcotest.(check int) "5 eligible" 5 (List.length (Exposure.eligible e));
  let h = Hcov.exposure () in
  Alcotest.(check bool) "hcov constraints filter" true
    (List.length (Exposure.realistic h) < 4096)

let test_implications () =
  let h = Hcov.exposure () in
  let imps = Exposure.implications h in
  Alcotest.(check int) "5 implications" 5 (List.length imps);
  let p12_imp =
    List.find
      (fun (premises, _) ->
        match premises with
        | [ (l : Pet_logic.Literal.t) ] -> l.var = "p12" && l.sign
        | _ -> false)
      imps
  in
  Alcotest.(check bool) "p12 -> !p1" true
    (snd p12_imp = [ Pet_logic.Literal.neg "p1" ])

(* --- Engine: the proof relation ------------------------------------------- *)

let backends = [ Engine.Brute; Engine.Sat; Engine.Bdd ]

(* Section 3.1 of the paper: w1 = _11 proves b1; w2 = _1_ does not. *)
let test_proof_relation_paper_facts () =
  let e = Running.exposure () in
  List.iter
    (fun backend ->
      let t = Engine.create ~backend e in
      let name = Fmt.str "%a" Engine.pp_backend backend in
      let w s = Partial.of_string (Exposure.xp e) s in
      Alcotest.(check bool) (name ^ ": w1 proves b1") true
        (Engine.entails_benefit t (w "_11") "b1");
      Alcotest.(check bool) (name ^ ": w1 does not prove b2") false
        (Engine.entails_benefit t (w "_11") "b2");
      Alcotest.(check bool) (name ^ ": w2 does not prove b1") false
        (Engine.entails_benefit t (w "_1_") "b1");
      Alcotest.(check (list string)) (name ^ ": benefits of _11") [ "b1" ]
        (Engine.benefits t (w "_11"));
      Alcotest.(check (list string))
        (name ^ ": benefits of 1_0")
        [ "b1"; "b3" ]
        (Engine.benefits t (w "1_0"));
      Alcotest.(check bool) (name ^ ": consistent") true
        (Engine.consistent t (w "___")))
    backends

(* All three backends agree on every partial valuation of the running
   example (3^3 = 27 of them) for every query type. *)
let test_backends_agree_exhaustively () =
  let e = Running.exposure () in
  let brute = Engine.create ~backend:Engine.Brute e in
  let sat = Engine.create ~backend:Engine.Sat e in
  let bdd = Engine.create ~backend:Engine.Bdd e in
  let xp = Exposure.xp e in
  let chars = [ '0'; '1'; '_' ] in
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          List.iter
            (fun c ->
              let w =
                Partial.of_string xp (Printf.sprintf "%c%c%c" a b c)
              in
              let reference = Engine.benefits brute w in
              Alcotest.(check (list string))
                (Fmt.str "sat benefits %a" Partial.pp w)
                reference (Engine.benefits sat w);
              Alcotest.(check (list string))
                (Fmt.str "bdd benefits %a" Partial.pp w)
                reference (Engine.benefits bdd w);
              let ded = Engine.deduced_literals brute w in
              Alcotest.(check bool)
                (Fmt.str "sat deduced %a" Partial.pp w)
                true
                (Engine.deduced_literals sat w = ded);
              Alcotest.(check bool)
                (Fmt.str "bdd deduced %a" Partial.pp w)
                true
                (Engine.deduced_literals bdd w = ded))
            chars)
        chars)
    chars

(* Deduction through the consistency rules (H-cov): publishing p12 = 1
   forces p1 = 0. *)
let test_deduced_literals_hcov () =
  let e = Hcov.exposure () in
  List.iter
    (fun backend ->
      let t = Engine.create ~backend e in
      let w = Partial.of_assoc (Exposure.xp e) [ ("p12", true) ] in
      let name = Fmt.str "%a" Engine.pp_backend backend in
      Alcotest.(check bool) (name ^ ": p1 deduced false") true
        (List.mem ("p1", false) (Engine.deduced_literals t w));
      Alcotest.(check bool) (name ^ ": p1 forced") true
        (Engine.entails_literal t w "p1" false))
    [ Engine.Sat; Engine.Bdd ]

let test_inconsistent_is_vacuous () =
  let e = Hcov.exposure () in
  let t = Engine.create ~backend:Engine.Sat e in
  (* p1 and p5 cannot both hold. *)
  let w = Partial.of_assoc (Exposure.xp e) [ ("p1", true); ("p5", true) ] in
  Alcotest.(check bool) "inconsistent" false (Engine.consistent t w);
  Alcotest.(check bool) "vacuously proves" true
    (Engine.entails_benefit t w "b1")

(* Every partial valuation of small generated problems with constraints:
   each backend's [benefit_mask] equals brute force's, is the full mask
   exactly where the partial is inconsistent (vacuous entailment), and
   [benefits] names its bits. *)
let test_benefit_mask_agrees () =
  let exposures =
    Hcov.exposure ()
    :: List.map
         (fun seed ->
           Pet_rules.Generate.exposure
             ~config:
               {
                 Pet_rules.Generate.predicates = 5;
                 benefits = 3;
                 conjunctions = 3;
                 width = 2;
                 implications = 3;
               }
             ~seed ())
         [ 1; 2; 3; 4; 5; 6 ]
  in
  let vacuous = ref 0 in
  List.iter
    (fun e ->
      let xp = Exposure.xp e in
      let n = Universe.size xp and nb = Universe.size (Exposure.xb e) in
      let engines = List.map (fun backend -> Engine.create ~backend e) Engine.all_backends in
      let brute = List.hd engines in
      let partials =
        if n > 5 then
          (* H-cov: p1 and p5 cannot both hold. *)
          [ Partial.of_assoc xp [ ("p1", true); ("p5", true) ];
            Partial.of_assoc xp [ ("p12", true) ]; Partial.empty xp ]
        else
          List.concat_map
            (fun dom ->
              List.filter_map
                (fun bits ->
                  if bits land lnot dom = 0 then
                    Some (Partial.of_masks xp ~dom ~bits)
                  else None)
                (List.init (1 lsl n) Fun.id))
            (List.init (1 lsl n) Fun.id)
      in
      List.iter
        (fun w ->
          let mask t =
            Engine.benefit_mask t ~dom:(Partial.domain_mask w)
              ~bits:(Partial.bits w)
          in
          let expected = mask brute in
          if not (Engine.consistent brute w) then begin
            incr vacuous;
            Alcotest.(check int)
              (Fmt.str "%a vacuous" Partial.pp w)
              ((1 lsl nb) - 1) expected
          end;
          List.iter
            (fun t ->
              let name = Fmt.str "%a on %a" Engine.pp_backend (Engine.backend t) Partial.pp w in
              Alcotest.(check int) (name ^ ": mask") expected (mask t);
              Alcotest.(check (list string)) (name ^ ": names")
                (List.filteri
                   (fun i _ -> expected land (1 lsl i) <> 0)
                   (Universe.names (Exposure.xb e)))
                (Engine.benefits t w))
            engines)
        partials)
    exposures;
  Alcotest.(check bool) (Printf.sprintf "%d inconsistent partials" !vacuous)
    true (!vacuous > 10);
  let t = Engine.create (Running.exposure ()) in
  Alcotest.(check bool) "words outside the universe" true
    (match Engine.benefit_mask t ~dom:0b1000 ~bits:0 with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_engine_universe_mismatch () =
  let t = Engine.create (Running.exposure ()) in
  let other = Universe.of_names [ "q1" ] in
  Alcotest.(check bool) "universe checked" true
    (match Engine.consistent t (Partial.empty other) with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* Property: SAT and BDD backends agree with brute force on random rule
   sets. *)
let gen_exposure_and_partial =
  QCheck2.Gen.(
    let gen_lit =
      let* v = int_range 1 4 in
      let* sign = bool in
      return
        (if sign then F.var (Printf.sprintf "p%d" v)
         else F.neg (F.var (Printf.sprintf "p%d" v)))
    in
    let gen_conj =
      let* lits = list_size (int_range 1 3) gen_lit in
      return (F.conj lits)
    in
    let gen_dnf =
      let* conjs = list_size (int_range 1 3) gen_conj in
      return (F.disj conjs)
    in
    let* f1 = gen_dnf in
    let* f2 = gen_dnf in
    let* constraint_opt = option gen_conj in
    let* dom = int_range 0 15 in
    let* bits = int_range 0 15 in
    return ((f1, f2, constraint_opt), (dom, bits land dom)))

let prop_backends_agree_random =
  QCheck2.Test.make ~count:200 ~name:"backends agree on random rule sets"
    ~print:(fun ((f1, f2, c), (dom, bits)) ->
      Fmt.str "b1:=%a b2:=%a c:%a dom=%d bits=%d" F.pp f1 F.pp f2
        (Fmt.option F.pp) c dom bits)
    gen_exposure_and_partial
    (fun ((f1, f2, constraint_opt), (dom, bits)) ->
      let xp = Universe.of_names [ "p1"; "p2"; "p3"; "p4" ] in
      let xb = Universe.of_names [ "b1"; "b2" ] in
      let constraints = Option.to_list constraint_opt in
      let e =
        Exposure.create ~xp ~xb
          ~rules:
            [
              Rule.of_formula ~benefit:"b1" f1;
              Rule.of_formula ~benefit:"b2" f2;
            ]
          ~constraints ()
      in
      let w = Partial.of_masks xp ~dom ~bits in
      let brute = Engine.create ~backend:Engine.Brute e in
      let sat = Engine.create ~backend:Engine.Sat e in
      let bdd = Engine.create ~backend:Engine.Bdd e in
      let reference = Engine.benefits brute w in
      Engine.benefits sat w = reference
      && Engine.benefits bdd w = reference
      && Engine.consistent sat w = Engine.consistent brute w
      && Engine.consistent bdd w = Engine.consistent brute w
      && Engine.deduced_literals sat w = Engine.deduced_literals brute w
      && Engine.deduced_literals bdd w = Engine.deduced_literals brute w)

(* The BDD backend's queries as they were before they became one walk:
   cofactor [R] by each bound position with [Bdd.restrict], then ask
   whether the cofactor by the refuting literal is empty. Kept here as
   the reference the walk must reproduce. Its [entails_literal] was
   only ever asked about unbound predicates (by [deduced_literals]): on
   a bound one it answered the cube's consistency instead. *)
module Restrict_chain = struct
  module Bdd = Pet_bdd.Bdd

  type t = { man : Bdd.man; r : Bdd.node; np : int; e : Exposure.t }

  let create e =
    let man = Bdd.man () in
    let xp = Exposure.xp e and xb = Exposure.xb e in
    let np = Universe.size xp in
    let index x =
      match Universe.index_opt xp x with
      | Some i -> i
      | None -> np + Universe.index xb x
    in
    let rec compile = function
      | F.True -> Bdd.one
      | F.False -> Bdd.zero
      | F.Var x -> Bdd.var man (index x)
      | F.Not f -> Bdd.neg man (compile f)
      | F.And (a, b) -> Bdd.conj man (compile a) (compile b)
      | F.Or (a, b) -> Bdd.disj man (compile a) (compile b)
      | F.Implies (a, b) -> Bdd.imp man (compile a) (compile b)
      | F.Iff (a, b) -> Bdd.iff man (compile a) (compile b)
    in
    { man; r = compile (Exposure.to_formula e); np; e }

  let restrict t w =
    let dom = Partial.domain_mask w and bits = Partial.bits w in
    let rec from r i =
      if dom lsr i = 0 then r
      else if dom land (1 lsl i) = 0 then from r (i + 1)
      else from (Bdd.restrict t.man r i (bits land (1 lsl i) <> 0)) (i + 1)
    in
    from t.r 0

  let refutes t w var value =
    Bdd.is_unsat (Bdd.restrict t.man (restrict t w) var value)

  let consistent t w = not (Bdd.is_unsat (restrict t w))
  let benefit_index t b = t.np + Universe.index (Exposure.xb t.e) b
  let entails_benefit t w b = refutes t w (benefit_index t b) false

  let benefit_mask t w =
    List.fold_left
      (fun acc b ->
        if entails_benefit t w b then
          acc lor (1 lsl Universe.index (Exposure.xb t.e) b)
        else acc)
      0
      (Universe.names (Exposure.xb t.e))

  let entails_literal t w p value =
    refutes t w (Universe.index (Exposure.xp t.e) p) (not value)

  let deduced_literals t w =
    List.filter_map
      (fun p ->
        if Partial.defines w p then None
        else if entails_literal t w p true then Some (p, true)
        else if entails_literal t w p false then Some (p, false)
        else None)
      (Universe.names (Exposure.xp t.e))
end

(* Property: the BDD backend's five queries, each one walk, equal the
   brute backend's and the restrict chain's. *)
let prop_bdd_walk_queries =
  QCheck2.Test.make ~count:300
    ~name:"BDD walk queries equal brute force and the restrict chain"
    ~print:(fun ((f1, f2, c), (dom, bits)) ->
      Fmt.str "b1:=%a b2:=%a c:%a dom=%d bits=%d" F.pp f1 F.pp f2
        (Fmt.option F.pp) c dom bits)
    gen_exposure_and_partial
    (fun ((f1, f2, constraint_opt), (dom, bits)) ->
      let xp = Universe.of_names [ "p1"; "p2"; "p3"; "p4" ] in
      let xb = Universe.of_names [ "b1"; "b2" ] in
      let e =
        Exposure.create ~xp ~xb
          ~rules:
            [
              Rule.of_formula ~benefit:"b1" f1;
              Rule.of_formula ~benefit:"b2" f2;
            ]
          ~constraints:(Option.to_list constraint_opt) ()
      in
      let w = Partial.of_masks xp ~dom ~bits in
      let brute = Engine.create ~backend:Engine.Brute e in
      let bdd = Engine.create ~backend:Engine.Bdd e in
      let chain = Restrict_chain.create e in
      let same3 a b c = a = b && b = c in
      same3 (Engine.consistent bdd w) (Engine.consistent brute w)
        (Restrict_chain.consistent chain w)
      && same3
           (Engine.benefit_mask bdd ~dom ~bits)
           (Engine.benefit_mask brute ~dom ~bits)
           (Restrict_chain.benefit_mask chain w)
      && List.for_all
           (fun b ->
             same3
               (Engine.entails_benefit bdd w b)
               (Engine.entails_benefit brute w b)
               (Restrict_chain.entails_benefit chain w b))
           [ "b1"; "b2" ]
      && List.for_all
           (fun p ->
             List.for_all
               (fun value ->
                 let answer = Engine.entails_literal bdd w p value in
                 answer = Engine.entails_literal brute w p value
                 && (Partial.defines w p
                    || answer = Restrict_chain.entails_literal chain w p value))
               [ true; false ])
           (Universe.names xp)
      && same3
           (Engine.deduced_literals bdd w)
           (Engine.deduced_literals brute w)
           (Restrict_chain.deduced_literals chain w))

(* --- Spec parser -------------------------------------------------------------- *)

let test_spec_roundtrip () =
  List.iter
    (fun e ->
      let printed = Spec.to_string e in
      let e' = Spec.parse_exn printed in
      Alcotest.(check bool) "same universes" true
        (Universe.equal (Exposure.xp e) (Exposure.xp e')
        && Universe.equal (Exposure.xb e) (Exposure.xb e'));
      Alcotest.(check bool) "equivalent formulas" true
        (F.equivalent (Exposure.to_formula e) (Exposure.to_formula e')))
    [ Running.exposure (); Hcov.exposure (); Pet_casestudies.Rsa.exposure () ]

let test_spec_errors () =
  let err s = match Spec.parse s with Error m -> Some m | Ok _ -> None in
  let check_err name input =
    Alcotest.(check bool) name true (err input <> None)
  in
  check_err "missing form" "benefits b1\nrule b1 := p1\n";
  check_err "missing benefits" "form p1\nrule b1 := p1\n";
  check_err "missing rule" "form p1\nbenefits b1\n";
  check_err "unknown declaration" "form p1\nbenefits b1\nbogus x\n";
  check_err "bad rule syntax" "form p1\nbenefits b1\nrule b1 = p1\n";
  check_err "empty rule body" "form p1\nbenefits b1\nrule b1 := \n";
  check_err "bad formula" "form p1\nbenefits b1\nrule b1 := p1 &\n";
  check_err "duplicate form" "form p1\nform p2\nbenefits b1\nrule b1 := p1\n";
  check_err "rule for unknown benefit"
    "form p1\nbenefits b1\nrule b1 := p1\nrule b9 := p1\n";
  check_err "constraint on benefit"
    "form p1\nbenefits b1\nrule b1 := p1\nconstraint b1 -> p1\n";
  check_err "duplicate predicate" "form p1 p1\nbenefits b1\nrule b1 := p1\n";
  (* Line numbers are reported. *)
  match err "form p1\nbenefits b1\nrule b1 := p1 &\n" with
  | Some m ->
    Alcotest.(check bool) "mentions line 3" true (contains m "line 3")
  | None -> Alcotest.fail "expected error"

and test_spec_comments () =
  let e =
    Spec.parse_exn
      "# header\nform p1 # trailing\nbenefits b1\nrule b1 := p1 # why not\n"
  in
  Alcotest.(check int) "one predicate" 1 (Universe.size (Exposure.xp e))

(* A tenant's artifact serves every shard, so one BDD-backed engine (a
   [Compiled] engine above the tabulation threshold) is queried from two
   domains at once. Each domain asks every question of 10,000 seeded
   partial valuations of a 20-predicate corpus form, one domain in
   reverse order, and must get the answers one domain alone gets. *)
let test_bdd_engine_shared_by_domains () =
  let form = Pet_corpus.Corpus.form ~seed:11 ~size:20 0 in
  let e = Spec.parse_exn form.Pet_corpus.Corpus.text in
  let xp = Exposure.xp e in
  let np = Universe.size xp in
  let engine = Engine.create ~backend:Engine.Compiled e in
  let rng = Random.State.make [| 20 |] in
  let queries =
    Array.init 10_000 (fun _ ->
        let dom = Random.State.bits rng land ((1 lsl np) - 1) in
        (dom, Random.State.bits rng land dom))
  in
  let answer (dom, bits) =
    let w = Partial.of_masks xp ~dom ~bits in
    ( Engine.consistent engine w,
      Engine.benefits engine w,
      Engine.benefit_mask engine ~dom ~bits )
  in
  let alone = Array.map answer queries in
  let n = Array.length queries in
  let shared =
    List.map
      (fun reverse ->
        Domain.spawn (fun () ->
            Array.init n (fun k -> answer queries.(if reverse then n - 1 - k else k))))
      [ false; true ]
    |> List.map Domain.join
  in
  let mismatches answers ~reverse =
    let wrong = ref 0 in
    Array.iteri
      (fun k a -> if a <> alone.(if reverse then n - 1 - k else k) then incr wrong)
      answers;
    !wrong
  in
  match shared with
  | [ forward; backward ] ->
    Alcotest.(check int) "forward domain's wrong answers" 0
      (mismatches forward ~reverse:false);
    Alcotest.(check int) "reverse domain's wrong answers" 0
      (mismatches backward ~reverse:true)
  | _ -> assert false

let () =
  let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests) in
  Alcotest.run "pet_rules"
    [
      ("rule", [ Alcotest.test_case "of_formula" `Quick test_rule_of_formula ]);
      ( "exposure",
        [
          Alcotest.test_case "validation" `Quick test_exposure_validation;
          Alcotest.test_case "accessors" `Quick test_exposure_accessors;
          Alcotest.test_case "benefits of assignment" `Quick
            test_benefits_of_assignment;
          Alcotest.test_case "realistic/eligible" `Quick
            test_realistic_eligible;
          Alcotest.test_case "implications" `Quick test_implications;
        ] );
      ( "engine",
        [
          Alcotest.test_case "paper proof facts" `Quick
            test_proof_relation_paper_facts;
          Alcotest.test_case "backends agree exhaustively" `Slow
            test_backends_agree_exhaustively;
          Alcotest.test_case "hcov deduction" `Quick test_deduced_literals_hcov;
          Alcotest.test_case "vacuous entailment" `Quick
            test_inconsistent_is_vacuous;
          Alcotest.test_case "benefit_mask across backends" `Quick
            test_benefit_mask_agrees;
          Alcotest.test_case "universe mismatch" `Quick
            test_engine_universe_mismatch;
          Alcotest.test_case "one BDD engine, two domains" `Quick
            test_bdd_engine_shared_by_domains;
        ] );
      ( "spec",
        [
          Alcotest.test_case "roundtrip" `Quick test_spec_roundtrip;
          Alcotest.test_case "errors" `Quick test_spec_errors;
          Alcotest.test_case "comments" `Quick test_spec_comments;
        ] );
      qsuite "engine-properties"
        [ prop_backends_agree_random; prop_bdd_walk_queries ];
    ]
