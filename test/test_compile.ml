(* Tests for the compiled fast path (lib/compile): bitmask rule
   compilation checked against Pet_logic evaluation, Algorithm 1 on the
   Compiled engine checked against the brute-force engine, the Compiled
   engine backend checked against brute force on both sides of the
   tabulation threshold, and the zero-allocation JSON cursor checked
   against the full parser. *)

module F = Pet_logic.Formula
module Dnf = Pet_logic.Dnf
module Universe = Pet_valuation.Universe
module Total = Pet_valuation.Total
module Partial = Pet_valuation.Partial
module Rule = Pet_rules.Rule
module Exposure = Pet_rules.Exposure
module Engine = Pet_rules.Engine
module Generate = Pet_rules.Generate
module A1 = Pet_minimize.Algorithm1
module Code = Pet_compile.Code
module Json = Pet_pet.Json
module Proto = Pet_server.Proto
module Running = Pet_casestudies.Running

let code_of e =
  Code.create ~xp:(Exposure.xp e)
    ~benefits:(Universe.names (Exposure.xb e))
    ~rule:(fun b -> (Exposure.rule_for e b).Rule.dnf)
    ~constraints:(Exposure.constraints e)

(* Evaluate a formula on a valuation word without going through the
   engines — the independent reference for the compiled tables. *)
let eval_word xp f v =
  F.eval (fun name -> (v lsr Universe.index xp name) land 1 = 1) f

let generated n seed =
  Generate.exposure
    ~config:
      {
        Generate.predicates = n;
        benefits = 3;
        conjunctions = 3;
        width = 3;
        implications = 2;
      }
    ~seed ()

let small_exposures () =
  Running.exposure () :: List.map (fun s -> generated (3 + (s mod 4)) s) [ 1; 2; 3; 4; 5; 6; 7; 8 ]

(* --- Code: compiled words vs Pet_logic ---------------------------------- *)

let test_tables_vs_formula () =
  List.iter
    (fun e ->
      let code = code_of e in
      let xp = Exposure.xp e in
      let n = Code.predicates code in
      Alcotest.(check int) "size" (Universe.size xp) n;
      let constraints = F.conj (Exposure.constraints e) in
      for v = 0 to (1 lsl n) - 1 do
        Alcotest.(check bool) "consistent_bits" (eval_word xp constraints v)
          (Code.consistent_bits code v);
        for i = 0 to Code.benefit_count code - 1 do
          let rule = Exposure.rule_for e (Code.benefit_name code i) in
          Alcotest.(check bool)
            (Printf.sprintf "benefit_bits %d of %d" i v)
            (eval_word xp (Dnf.to_formula rule.Rule.dnf) v)
            ((Code.benefit_bits code v lsr i) land 1 = 1)
        done
      done)
    (small_exposures ())

let test_conj_holds_vs_literals () =
  List.iter
    (fun e ->
      let code = code_of e in
      let xp = Exposure.xp e in
      let n = Code.predicates code in
      for i = 0 to Code.benefit_count code - 1 do
        let conjs = Rule.conjunctions (Exposure.rule_for e (Code.benefit_name code i)) in
        List.iter
          (fun lits ->
            let compiled = Code.compile_conjunction xp lits in
            for v = 0 to (1 lsl n) - 1 do
              let expected =
                List.for_all
                  (fun (l : Pet_logic.Literal.t) ->
                    ((v lsr Universe.index xp l.var) land 1 = 1) = l.sign)
                  lits
              in
              Alcotest.(check bool) "conj_holds" expected
                (Code.conj_holds compiled v)
            done)
          conjs
      done)
    (small_exposures ())

let test_scan_vs_enumeration () =
  List.iter
    (fun e ->
      let code = code_of e in
      let n = Code.predicates code in
      let full = (1 lsl n) - 1 in
      for dom = 0 to full do
        (* Every bits pattern inside dom, via submask descent. *)
        let bits = ref dom in
        let continue = ref true in
        while !continue do
          let completions = ref [] in
          for v = 0 to full do
            if v land dom = !bits && Code.consistent_bits code v then
              completions := v :: !completions
          done;
          let expect_any = !completions <> [] in
          Alcotest.(check bool) "consistent" expect_any
            (Code.consistent code ~dom ~bits:!bits);
          let expected_and =
            List.fold_left ( land ) full !completions
          and expected_or = List.fold_left ( lor ) 0 !completions
          and expected_benefit_and =
            List.fold_left
              (fun acc v -> acc land Code.benefit_bits code v)
              (Code.full_benefit_mask code)
              !completions
          in
          Alcotest.(check int) "benefit_mask" expected_benefit_and
            (Code.benefit_mask code ~dom ~bits:!bits);
          for i = 0 to Code.benefit_count code - 1 do
            Alcotest.(check bool) "entails_benefit"
              ((expected_benefit_and lsr i) land 1 = 1)
              (Code.entails_benefit code ~dom ~bits:!bits i)
          done;
          for i = 0 to n - 1 do
            Alcotest.(check bool) "entails_literal true"
              ((expected_and lsr i) land 1 = 1)
              (Code.entails_literal code ~dom ~bits:!bits i true);
            Alcotest.(check bool) "entails_literal false"
              ((expected_or lsr i) land 1 = 0)
              (Code.entails_literal code ~dom ~bits:!bits i false)
          done;
          if !bits = 0 then continue := false else bits := (!bits - 1) land dom
        done
      done)
    [ Running.exposure (); generated 4 11; generated 5 12 ]

(* The table against the brute-force engine, at every partial valuation
   (dom, bits) of each form. A partial is indexed by its ternary digits,
   one per predicate: 0 unset, 1 false, 2 true. A total valuation's
   consistency and benefit bitset come from the brute-force engine; a
   partial's from its two extensions on its lowest unset predicate,
   which have higher indices, so a descending pass meets them first. Per
   partial: whether some completion is consistent, the AND of the
   consistent completions' benefit bitsets (every benefit when there is
   none), and the OR of their words and of their complements. Over the
   case studies the table serves, seeded corpus forms of 8 to 12
   predicates, and generated forms of 7 benefits, whose entries are one
   byte like the case studies', and of 8, 9, 20 and 40, whose entries
   are eight bytes. *)
let test_table_vs_brute () =
  let corpus =
    List.init 5 (fun i ->
        ( Printf.sprintf "corpus size %d" (8 + i),
          Pet_rules.Spec.parse_exn
            (Pet_corpus.Corpus.form ~seed:3 ~size:(8 + i) i).text ))
  in
  let wide benefits seed =
    ( Printf.sprintf "%d benefits" benefits,
      Generate.exposure
        ~config:
          {
            Generate.predicates = 6;
            benefits;
            conjunctions = 2;
            width = 2;
            implications = 2;
          }
        ~seed () )
  in
  List.iter
    (fun (name, e) ->
      let xp = Exposure.xp e in
      let n = Universe.size xp in
      let full = (1 lsl n) - 1 in
      let code = code_of e in
      let brute = Engine.create ~backend:Engine.Brute e in
      let pow3 = Array.make (n + 1) 1 in
      for i = 1 to n do
        pow3.(i) <- 3 * pow3.(i - 1)
      done;
      let size = pow3.(n) in
      let any = Array.make size false and mask = Array.make size 0 in
      let ones = Array.make size 0 and zeros = Array.make size 0 in
      let wrong = ref 0 in
      for t = size - 1 downto 0 do
        let dom = ref 0 and bits = ref 0 and free = ref (-1) and r = ref t in
        for i = 0 to n - 1 do
          (match !r mod 3 with
          | 0 -> if !free < 0 then free := i
          | 1 -> dom := !dom lor (1 lsl i)
          | _ ->
            dom := !dom lor (1 lsl i);
            bits := !bits lor (1 lsl i));
          r := !r / 3
        done;
        let dom = !dom and bits = !bits in
        if !free < 0 then begin
          any.(t) <- Engine.consistent brute (Partial.of_masks xp ~dom ~bits);
          mask.(t) <-
            (if any.(t) then Engine.benefit_mask brute ~dom ~bits
             else Code.full_benefit_mask code);
          if any.(t) then begin
            ones.(t) <- bits;
            zeros.(t) <- full land lnot bits
          end
        end
        else begin
          let a = t + pow3.(!free) and b = t + (2 * pow3.(!free)) in
          any.(t) <- any.(a) || any.(b);
          mask.(t) <- mask.(a) land mask.(b);
          ones.(t) <- ones.(a) lor ones.(b);
          zeros.(t) <- zeros.(a) lor zeros.(b)
        end;
        let expect what ok =
          if not ok then begin
            if !wrong = 0 then
              Printf.printf "%s: %s differs at dom %d bits %d\n" name what dom
                bits;
            incr wrong
          end
        in
        expect "consistent" (Code.consistent code ~dom ~bits = any.(t));
        expect "benefit_mask" (Code.benefit_mask code ~dom ~bits = mask.(t));
        for i = 0 to Code.benefit_count code - 1 do
          expect "entails_benefit"
            (Code.entails_benefit code ~dom ~bits i
            = ((mask.(t) lsr i) land 1 = 1))
        done;
        for i = 0 to n - 1 do
          expect "entails_literal true"
            (Code.entails_literal code ~dom ~bits i true
            = ((zeros.(t) lsr i) land 1 = 0));
          expect "entails_literal false"
            (Code.entails_literal code ~dom ~bits i false
            = ((ones.(t) lsr i) land 1 = 0))
        done
      done;
      Alcotest.(check int) (name ^ ": answers that differ") 0 !wrong)
    ([
       ("running", Running.exposure ());
       ("hcov", Pet_casestudies.Hcov.exposure ());
       ("loan", Pet_casestudies.Loan.exposure ());
       wide 7 4;
       wide 8 5;
       wide 9 1;
       wide 20 2;
       wide 40 3;
     ]
    @ corpus)

let test_create_refuses () =
  let xp = Universe.of_names (List.init 17 (fun i -> Printf.sprintf "p%d" i)) in
  Alcotest.check_raises "too many predicates"
    (Invalid_argument
       "Pet_compile.Code.create: 17 predicates exceed the tabulation \
        threshold (16)")
    (fun () ->
      ignore
        (Code.create ~xp ~benefits:[ "b1" ]
           ~rule:(fun _ -> Dnf.of_formula (F.var "p0"))
           ~constraints:[]));
  let xp = Universe.of_names [ "p1" ] in
  Alcotest.(check bool) "unknown variable refused" true
    (match
       Code.create ~xp ~benefits:[ "b1" ]
         ~rule:(fun _ -> Dnf.of_formula (F.var "q9"))
         ~constraints:[]
     with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* --- Algorithm 1 on the Compiled engine ------------------------------------ *)

(* [mas_of] staged once on the Compiled engine, applied to every
   valuation word: [None] where the valuation violates the constraints
   (Algorithm 1 refuses it). *)
let compiled_mas e =
  let mas_of = A1.mas_of (Engine.create ~backend:Engine.Compiled e) in
  let xp = Exposure.xp e in
  fun v ->
    match mas_of (Total.of_bits xp v) with
    | choices -> Some choices
    | exception Invalid_argument _ -> None

let test_answers_vs_algorithm1 () =
  List.iter
    (fun e ->
      let code = code_of e in
      let mas_of = compiled_mas e in
      let brute = Engine.create ~backend:Engine.Brute e in
      for v = 0 to (1 lsl Code.predicates code) - 1 do
        match mas_of v with
        | None ->
          Alcotest.(check bool)
            (Printf.sprintf "refused %d is inconsistent" v)
            false (Code.consistent_bits code v)
        | Some choices ->
          let total = Total.of_bits (Exposure.xp e) v in
          let lines cs =
            List.map
              (fun (c : A1.choice) ->
                Partial.to_string c.A1.mas ^ " " ^ String.concat "," c.benefits)
              cs
          in
          Alcotest.(check (list string))
            (Printf.sprintf "MAS of %s" (Total.to_string total))
            (lines (A1.mas_of brute total))
            (lines choices)
      done)
    (small_exposures ())

let test_answers_are_minimal () =
  List.iter
    (fun e ->
      let code = code_of e in
      let mas_of = compiled_mas e in
      let engine = Engine.create ~backend:Engine.Bdd e in
      for v = 0 to (1 lsl Code.predicates code) - 1 do
        List.iter
          (fun (c : A1.choice) ->
            Alcotest.(check bool)
              (Printf.sprintf "MAS %s of %d minimal" (Partial.to_string c.mas) v)
              true
              (A1.is_minimal engine c.mas ~benefits:c.benefits))
          (Option.value ~default:[] (mas_of v))
      done)
    (small_exposures ())

let test_answers_running_example () =
  let mas_of = compiled_mas (Running.exposure ()) in
  let xp = Exposure.xp (Running.exposure ()) in
  let mas s =
    List.map
      (fun (c : A1.choice) -> Partial.to_string c.mas)
      (Option.get (mas_of (Total.bits (Total.of_string xp s))))
  in
  (* Figure 1 of the paper, as in test_minimize. *)
  Alcotest.(check (list string)) "111" [ "_11"; "1__" ] (mas "111");
  Alcotest.(check (list string)) "011" [ "_11" ] (mas "011");
  Alcotest.(check (list string)) "110" [ "1_0" ] (mas "110");
  Alcotest.(check (list string)) "100" [ "100" ] (mas "100");
  Alcotest.(check (list string)) "000" [ "___" ] (mas "000")

(* --- The Compiled engine backend ----------------------------------------- *)

let all_partials n =
  List.concat
    (List.init (1 lsl n) (fun dom ->
         let rec submasks s acc =
           let acc = s :: acc in
           if s = 0 then acc else submasks ((s - 1) land dom) acc
         in
         List.map (fun bits -> (dom, bits)) (submasks dom [])))

let test_compiled_engine_small () =
  List.iter
    (fun e ->
      let xp = Exposure.xp e in
      let n = Universe.size xp in
      let compiled = Engine.create ~backend:Engine.Compiled e in
      let brute = Engine.create ~backend:Engine.Brute e in
      Alcotest.(check string) "backend name" "compiled"
        (Engine.backend_name (Engine.backend compiled));
      List.iter
        (fun (dom, bits) ->
          let w = Partial.of_masks xp ~dom ~bits in
          Alcotest.(check bool) "consistent" (Engine.consistent brute w)
            (Engine.consistent compiled w);
          Alcotest.(check (list string)) "benefits" (Engine.benefits brute w)
            (Engine.benefits compiled w);
          Alcotest.(check (list (pair string bool))) "deduced"
            (Engine.deduced_literals brute w)
            (Engine.deduced_literals compiled w))
        (all_partials n))
    (small_exposures ())

(* Above the tabulation threshold the Compiled backend silently falls
   back to its symbolic implementation; it must keep its name and keep
   agreeing with an independent backend. *)
let test_compiled_engine_fallback () =
  let e = generated 21 42 in
  let xp = Exposure.xp e in
  let compiled = Engine.create ~backend:Engine.Compiled e in
  let sat = Engine.create ~backend:Engine.Sat e in
  Alcotest.(check string) "fallback keeps the name" "compiled"
    (Engine.backend_name (Engine.backend compiled));
  let rng = Random.State.make [| 2024 |] in
  for _ = 0 to 63 do
    let dom = Random.State.int rng (1 lsl 21) in
    let bits = Random.State.int rng (1 lsl 21) land dom in
    let w = Partial.of_masks xp ~dom ~bits in
    Alcotest.(check bool) "consistent" (Engine.consistent sat w)
      (Engine.consistent compiled w);
    Alcotest.(check (list string)) "benefits" (Engine.benefits sat w)
      (Engine.benefits compiled w);
    Alcotest.(check (list (pair string bool))) "deduced"
      (Engine.deduced_literals sat w)
      (Engine.deduced_literals compiled w)
  done

(* --- The JSON cursor vs the full parser ---------------------------------- *)

let test_cursor_primitives () =
  let open Json.Cursor in
  let c = of_string "  \t\r\n \"abc\" 12" in
  skip_ws c;
  Alcotest.(check (option string)) "simple string" (Some "abc") (simple_string c);
  skip_ws c;
  Alcotest.(check (option int)) "int" (Some 12) (int c);
  Alcotest.(check bool) "at end" true (at_end c);
  Alcotest.(check char) "peek past end" '\000' (peek c);
  let c = of_string "-42," in
  Alcotest.(check (option int)) "negative" (Some (-42)) (int c);
  Alcotest.(check bool) "accept" true (accept c ',');
  List.iter
    (fun input ->
      Alcotest.(check (option int)) ("reject " ^ input) None
        (int (of_string input)))
    [ "1.5"; "2e3"; "1234567890123456789"; "-"; "x" ];
  List.iter
    (fun input ->
      Alcotest.(check (option string)) ("reject " ^ input) None
        (simple_string (of_string input)))
    [ {|"a\nb"|}; "\"a\tb\""; {|"unterminated|}; "plain" ]

let canonical_lines =
  [
    {|{"pet":1,"id":7,"method":"new_session","params":{"digest":"abc"}}|};
    {|{"pet":1,"id":7,"method":"new_session","params":{"rules":"form p1"}}|};
    {|{"pet":1,"id":"x","method":"new_session","params":{"source":"running"}}|};
    {|{"pet":1,"id":1,"method":"get_report","params":{"session":"s1","valuation":"101"}}|};
    {|{"pet":1,"id":2,"method":"choose_option","params":{"session":"s1","option":0}}|};
    {|{"pet":1,"id":2,"method":"choose_option","params":{"session":"s1","mas":"1_0"}}|};
    {|{"pet":1,"id":3,"method":"submit_form","params":{"session":"s1"}}|};
    {|{"pet":1,"id":3,"trace":"t1","method":"submit_form","params":{"session":"s1"}}|};
    {| { "pet" : 1 , "id" : 9 , "method" : "submit_form" , "params" : { "session" : "s" } } |};
  ]

let test_decode_fast_accepts_canonical () =
  List.iter
    (fun line ->
      match (Proto.decode_fast line, Proto.decode line) with
      | Some fast, Ok full ->
        Alcotest.(check bool) ("identical decode of " ^ line) true (fast = full)
      | Some _, Error _ ->
        Alcotest.fail ("fast decode accepted a rejected line: " ^ line)
      | None, _ -> Alcotest.fail ("fast decode bailed on: " ^ line))
    canonical_lines

(* Lines the scanner must hand to the full decoder (None), because the
   one-pass grammar cannot represent them faithfully. *)
let test_decode_fast_bails () =
  List.iter
    (fun line ->
      Alcotest.(check bool) ("bails on " ^ line) true
        (Proto.decode_fast line = None))
    [
      (* escapes, floats, duplicates, nesting, cold methods *)
      {|{"pet":1,"id":1,"method":"get_report","params":{"session":"s\n1","valuation":"1"}}|};
      {|{"pet":1,"id":1.5,"method":"submit_form","params":{"session":"s"}}|};
      {|{"pet":1,"id":1,"id":2,"method":"submit_form","params":{"session":"s"}}|};
      {|{"pet":1,"id":1,"method":"stats","params":{}}|};
      {|{"pet":1,"id":1,"method":"submit_form","params":{"session":["s"]}}|};
      {|{"pet":1,"id":1,"method":"submit_form","params":{"session":"s","extra":1}}|};
      {|{"pet":2,"id":1,"method":"submit_form","params":{"session":"s"}}|};
      "not json at all";
      "";
    ]

(* Soundness on every prefix of every canonical line, and on oversized
   input: whenever the scanner accepts, the full decoder agrees. *)
let test_decode_fast_truncations () =
  List.iter
    (fun line ->
      for len = 0 to String.length line - 1 do
        let prefix = String.sub line 0 len in
        match Proto.decode_fast prefix with
        | None -> ()
        | Some fast -> (
          match Proto.decode prefix with
          | Ok full ->
            Alcotest.(check bool) "sound on prefix" true (fast = full)
          | Error _ ->
            Alcotest.fail ("fast decode accepted a broken prefix: " ^ prefix))
      done)
    canonical_lines

let test_decode_fast_oversized () =
  let padding = String.make (Proto.max_line_bytes + 8) ' ' in
  let line =
    {|{"pet":1,"id":3,"method":"submit_form","params":{"session":"s"}}|}
    ^ padding
  in
  Alcotest.(check bool) "oversized handed to the slow path" true
    (Proto.decode_fast line = None);
  Alcotest.(check bool) "full decoder rejects it" true
    (match Proto.decode line with Error _ -> true | Ok _ -> false)
(* The atlas's benefit-table kernel and the compiled engine's table
   against their per-valuation definition: bit [i] of valuation [v] is
   set iff some conjunction of benefit [i]'s rule holds on [v]. Over the
   fleet workload's 200 corpus forms and the four case studies (RSA's 17
   predicates are above the engine's tabulation threshold). *)
let test_benefit_table_vs_definition () =
  let fleet =
    Array.to_list
      (Pet_corpus.Corpus.scenario ~seed:0 ~lo:8 ~hi:12 ~count:200 ())
        .Pet_corpus.Corpus.forms
    |> List.map (fun (f : Pet_corpus.Corpus.form) ->
           Pet_rules.Spec.parse_exn f.Pet_corpus.Corpus.text)
  in
  List.iter
    (fun e ->
      let n = Universe.size (Exposure.xp e) in
      let rules = Exposure.conjunction_words e in
      let tab = Array.make (1 lsl n) 0 in
      Code.fill_benefit_table ~n rules tab;
      let code =
        if n <= Code.max_tabulated_predicates then Some (code_of e) else None
      in
      let wrong = ref 0 in
      for v = 0 to (1 lsl n) - 1 do
        let expected = ref 0 in
        Array.iteri
          (fun i conjs ->
            if Array.exists (fun c -> Code.conj_holds c v) conjs then
              expected := !expected lor (1 lsl i))
          rules;
        if tab.(v) <> !expected then incr wrong;
        match code with
        | Some code when Code.benefit_bits code v <> !expected -> incr wrong
        | _ -> ()
      done;
      Alcotest.(check int) "valuations whose bitset differs" 0 !wrong)
    ([
       Running.exposure ();
       Pet_casestudies.Hcov.exposure ();
       Pet_casestudies.Loan.exposure ();
       Pet_casestudies.Rsa.exposure ();
     ]
    @ fleet)

let () =
  Alcotest.run "pet_compile"
    [
      ( "code",
        [
          Alcotest.test_case "tables vs formula" `Quick test_tables_vs_formula;
          Alcotest.test_case "conj_holds vs literals" `Quick
            test_conj_holds_vs_literals;
          Alcotest.test_case "scan vs enumeration" `Quick
            test_scan_vs_enumeration;
          Alcotest.test_case "create refuses" `Quick test_create_refuses;
          Alcotest.test_case "table vs brute at every partial" `Quick
            test_table_vs_brute;
          Alcotest.test_case "benefit_table vs definition" `Quick
            test_benefit_table_vs_definition;
        ] );
      ( "answers",
        [
          Alcotest.test_case "vs Algorithm 1" `Quick test_answers_vs_algorithm1;
          Alcotest.test_case "is_minimal recheck" `Quick
            test_answers_are_minimal;
          Alcotest.test_case "running example" `Quick
            test_answers_running_example;
        ] );
      ( "engine",
        [
          Alcotest.test_case "compiled vs brute (small)" `Quick
            test_compiled_engine_small;
          Alcotest.test_case "fallback above threshold" `Quick
            test_compiled_engine_fallback;
        ] );
      ( "cursor",
        [
          Alcotest.test_case "primitives" `Quick test_cursor_primitives;
          Alcotest.test_case "accepts canonical" `Quick
            test_decode_fast_accepts_canonical;
          Alcotest.test_case "bails to slow path" `Quick test_decode_fast_bails;
          Alcotest.test_case "sound on truncations" `Quick
            test_decode_fast_truncations;
          Alcotest.test_case "oversized" `Quick test_decode_fast_oversized;
        ] );
    ]
