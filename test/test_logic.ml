(* Tests for the CPL toolkit: formulas, literals, normal forms, parser. *)

module F = Pet_logic.Formula
module Literal = Pet_logic.Literal
module Nnf = Pet_logic.Nnf
module Dnf = Pet_logic.Dnf
module Cnf = Pet_logic.Cnf
module Parse = Pet_logic.Parse

let formula_testable = Alcotest.testable F.pp F.equal

(* --- Generator ----------------------------------------------------------- *)

let var_names = [ "p1"; "p2"; "p3"; "p4"; "p5" ]

let gen_formula =
  QCheck2.Gen.(
    sized_size (int_range 0 6) @@ fix (fun self n ->
        if n = 0 then
          oneof
            [
              return F.True;
              return F.False;
              map F.var (oneofl var_names);
            ]
        else
          let sub = self (n / 2) in
          oneof
            [
              map F.var (oneofl var_names);
              map (fun f -> F.Not f) sub;
              map2 (fun a b -> F.And (a, b)) sub sub;
              map2 (fun a b -> F.Or (a, b)) sub sub;
              map2 (fun a b -> F.Implies (a, b)) sub sub;
              map2 (fun a b -> F.Iff (a, b)) sub sub;
            ]))

let print_formula = F.to_string

(* --- Formula unit tests --------------------------------------------------- *)

let test_eval () =
  let rho = function "a" -> true | "b" -> false | _ -> assert false in
  let a = F.var "a" and b = F.var "b" in
  Alcotest.(check bool) "a" true (F.eval rho a);
  Alcotest.(check bool) "!a" false (F.eval rho (F.neg a));
  Alcotest.(check bool) "a & b" false (F.eval rho (F.And (a, b)));
  Alcotest.(check bool) "a | b" true (F.eval rho (F.Or (a, b)));
  Alcotest.(check bool) "a -> b" false (F.eval rho (F.Implies (a, b)));
  Alcotest.(check bool) "b -> a" true (F.eval rho (F.Implies (b, a)));
  Alcotest.(check bool) "a <-> b" false (F.eval rho (F.Iff (a, b)));
  Alcotest.(check bool) "a <-> a" true (F.eval rho (F.Iff (a, a)))

let test_smart_constructors () =
  let a = F.var "a" in
  Alcotest.check formula_testable "x && true" a F.(a && True);
  Alcotest.check formula_testable "x && false" F.False F.(a && False);
  Alcotest.check formula_testable "x || false" a F.(a || False);
  Alcotest.check formula_testable "x || true" F.True F.(a || True);
  Alcotest.check formula_testable "true => x" a F.(True => a);
  Alcotest.check formula_testable "x => true" F.True F.(a => True);
  Alcotest.check formula_testable "false => x" F.True F.(False => a);
  Alcotest.check formula_testable "x <=> true" a F.(a <=> True);
  Alcotest.check formula_testable "x <=> false" (F.neg a) F.(a <=> False);
  Alcotest.check formula_testable "neg neg" a (F.neg (F.neg a));
  Alcotest.check formula_testable "conj []" F.True (F.conj []);
  Alcotest.check formula_testable "disj []" F.False (F.disj [])

let test_vars () =
  let f = Parse.formula "(b & a) -> (c | a)" in
  Alcotest.(check (list string)) "sorted unique" [ "a"; "b"; "c" ] (F.vars f)

let test_semantic_checks () =
  let t s = Parse.formula s in
  Alcotest.(check bool) "taut" true (F.tautology (t "a | !a"));
  Alcotest.(check bool) "not taut" false (F.tautology (t "a | b"));
  Alcotest.(check bool) "sat" true (F.satisfiable (t "a & b"));
  Alcotest.(check bool) "unsat" false (F.satisfiable (t "a & !a"));
  Alcotest.(check bool) "entails" true (F.entails (t "a & b") (t "a"));
  Alcotest.(check bool) "not entails" false (F.entails (t "a | b") (t "a"));
  Alcotest.(check bool) "equiv" true
    (F.equivalent (t "!(a & b)") (t "!a | !b"))

let test_map_vars () =
  let f = Parse.formula "a -> b" in
  let s = function "a" -> F.var "x" | v -> F.var v in
  Alcotest.check formula_testable "rename" (Parse.formula "x -> b")
    (F.map_vars s f)

(* --- Literals -------------------------------------------------------------- *)

let test_literals () =
  let p = Literal.pos "x" and n = Literal.neg "x" in
  Alcotest.(check bool) "negate" true (Literal.equal (Literal.negate p) n);
  Alcotest.(check bool) "of_formula pos" true
    (Literal.of_formula (F.var "x") = Some p);
  Alcotest.(check bool) "of_formula neg" true
    (Literal.of_formula (F.Not (F.var "x")) = Some n);
  Alcotest.(check bool) "of_formula other" true
    (Literal.of_formula (F.And (F.var "x", F.var "y")) = None);
  Alcotest.(check bool) "holds" true (Literal.holds (fun _ -> true) p);
  Alcotest.(check bool) "neg holds" false (Literal.holds (fun _ -> true) n)

(* --- Parser ----------------------------------------------------------------- *)

let test_parse_precedence () =
  let check s expected =
    Alcotest.check formula_testable s expected (Parse.formula s)
  in
  check "a & b | c" (F.Or (F.And (F.var "a", F.var "b"), F.var "c"));
  check "a | b & c" (F.Or (F.var "a", F.And (F.var "b", F.var "c")));
  check "!a & b" (F.And (F.Not (F.var "a"), F.var "b"));
  check "a -> b -> c"
    (F.Implies (F.var "a", F.Implies (F.var "b", F.var "c")));
  check "a <-> b | c" (F.Iff (F.var "a", F.Or (F.var "b", F.var "c")));
  check "(a | b) & c" (F.And (F.Or (F.var "a", F.var "b"), F.var "c"));
  check "a and b or not c"
    (F.Or (F.And (F.var "a", F.var "b"), F.Not (F.var "c")))

let test_parse_errors () =
  let fails s =
    match Parse.formula s with
    | exception Parse.Error _ -> true
    | _ -> false
  in
  Alcotest.(check bool) "empty" true (fails "");
  Alcotest.(check bool) "trailing" true (fails "a b");
  Alcotest.(check bool) "unclosed" true (fails "(a | b");
  Alcotest.(check bool) "lone arrow" true (fails "a - b");
  Alcotest.(check bool) "bad char" true (fails "a @ b");
  Alcotest.(check bool) "bad iff" true (fails "a <- b");
  match Parse.formula_result "a &" with
  | Ok _ -> Alcotest.fail "expected parse error"
  | Error m ->
    Alcotest.(check bool) "message mentions offset" true
      (String.length m > 0)

let prop_parse_print_roundtrip =
  QCheck2.Test.make ~count:500 ~name:"parse (print f) = f" ~print:print_formula
    gen_formula (fun f -> F.equal (Parse.formula (F.to_string f)) f)

(* The Format printer [F.to_string] replaced, as it was: the buffer
   printer must print the same text, since tenant digests are taken over
   rule texts that hold formulas. *)
let reference_pp ppf f =
  let rec go prec ppf f =
    let paren p body = if p < prec then Fmt.pf ppf "(%t)" body else body ppf in
    match (f : F.t) with
    | True -> Fmt.string ppf "true"
    | False -> Fmt.string ppf "false"
    | Var x -> Fmt.string ppf x
    | Not f -> paren 4 (fun ppf -> Fmt.pf ppf "!%a" (go 5) f)
    | And (a, b) -> paren 3 (fun ppf -> Fmt.pf ppf "%a & %a" (go 3) a (go 4) b)
    | Or (a, b) -> paren 2 (fun ppf -> Fmt.pf ppf "%a | %a" (go 2) a (go 3) b)
    | Implies (a, b) ->
      paren 1 (fun ppf -> Fmt.pf ppf "%a -> %a" (go 2) a (go 1) b)
    | Iff (a, b) ->
      paren 0 (fun ppf -> Fmt.pf ppf "%a <-> %a" (go 1) a (go 1) b)
  in
  go 0 ppf f

let prop_print_matches_format =
  QCheck2.Test.make ~count:500 ~name:"to_string f = the Format printer's text"
    ~print:print_formula gen_formula (fun f ->
      String.equal (F.to_string f) (Fmt.str "%a" reference_pp f))

let test_parse_alternative_spellings () =
  let check s expected =
    Alcotest.check formula_testable s (Parse.formula expected) (Parse.formula s)
  in
  (* C-style and word spellings of the connectives. *)
  check "a && b" "a & b";
  check "a || b" "a | b";
  check "~a" "!a";
  check "not a" "!a";
  check "a and b or not c" "(a & b) | !c";
  (* Identifiers may carry digits, underscores and primes. *)
  Alcotest.(check (list string)) "identifier charset"
    [ "p1"; "p3'"; "p_2" ]
    (F.vars (Parse.formula "p1 & p_2 & p3'"))

let test_parse_positions () =
  (* The reported offset points at the offending token. *)
  match Parse.formula "ab @ cd" with
  | exception Parse.Error { position; _ } ->
    Alcotest.(check int) "offset of '@'" 3 position
  | _ -> Alcotest.fail "expected error"

(* Structural helpers behave sensibly. *)
let test_size_and_map () =
  let f = Parse.formula "!(a & b) -> c" in
  Alcotest.(check int) "size" 6 (F.size f);
  (* map_vars with the identity substitution only renormalizes. *)
  Alcotest.(check bool) "identity map equivalent" true
    (F.equivalent f (F.map_vars F.var f));
  (* Substituting constants evaluates partially. *)
  let g = F.map_vars (fun x -> if x = "a" then F.True else F.var x) f in
  Alcotest.(check bool) "a:=true" true (F.equivalent g (Parse.formula "b | c"))

let prop_all_assignments_complete =
  QCheck2.Test.make ~count:100 ~name:"all_assignments enumerates 2^n"
    ~print:string_of_int
    QCheck2.Gen.(int_range 0 6)
    (fun n ->
      let names = List.init n (fun i -> Printf.sprintf "x%d" i) in
      let assignments = F.all_assignments names in
      List.length assignments = 1 lsl n
      && List.length
           (List.sort_uniq Stdlib.compare
              (List.map (fun rho -> List.map rho names) assignments))
         = 1 lsl n)

(* --- NNF --------------------------------------------------------------------- *)

let prop_nnf_equivalent =
  QCheck2.Test.make ~count:500 ~name:"NNF is equivalent" ~print:print_formula
    gen_formula (fun f -> F.equivalent f (Nnf.of_formula f))

let prop_nnf_shape =
  QCheck2.Test.make ~count:500 ~name:"NNF has NNF shape" ~print:print_formula
    gen_formula (fun f -> Nnf.is_nnf (Nnf.of_formula f))

(* --- DNF ---------------------------------------------------------------------- *)

let prop_dnf_equivalent =
  QCheck2.Test.make ~count:300 ~name:"DNF is equivalent" ~print:print_formula
    gen_formula (fun f -> F.equivalent f (Dnf.to_formula (Dnf.of_formula f)))

let prop_dnf_no_subsumption =
  QCheck2.Test.make ~count:300 ~name:"DNF has no subsumed conjunction"
    ~print:print_formula gen_formula (fun f ->
      let d = Dnf.of_formula f in
      List.for_all
        (fun c ->
          List.for_all
            (fun c' -> c == c' || not (Dnf.subsumes c' c))
            d)
        d)

let test_dnf_normalize () =
  let open Literal in
  Alcotest.(check bool) "contradiction -> None" true
    (Dnf.normalize_conjunction [ pos "a"; neg "a" ] = None);
  Alcotest.(check bool) "dedup + sort" true
    (Dnf.normalize_conjunction [ pos "b"; pos "a"; pos "b" ]
    = Some [ pos "a"; pos "b" ])

let test_dnf_holds () =
  let d = Dnf.of_formula (Parse.formula "(a & !b) | c") in
  let rho_ab = function "a" -> true | _ -> false in
  let rho_b = function "b" -> true | _ -> false in
  Alcotest.(check bool) "a!b holds" true (Dnf.holds rho_ab d);
  Alcotest.(check bool) "b alone fails" false (Dnf.holds rho_b d)

(* --- CNF ----------------------------------------------------------------------- *)

let prop_cnf_equivalent =
  QCheck2.Test.make ~count:300 ~name:"CNF is equivalent" ~print:print_formula
    gen_formula (fun f -> F.equivalent f (Cnf.to_formula (Cnf.of_formula f)))

(* Tseitin is model-projecting: every model of f extends to a model of
   the clauses, and every model of the clauses restricts to a model of
   f. So for every assignment rho of f's own variables, f holds under
   rho iff the clauses are satisfiable together with rho's literals.
   Only f's variables are enumerated; the SAT solver settles the
   Tseitin auxiliaries, whose enumeration exhausted memory at some
   seeds. *)
let tseitin_faithful f =
  let cnf = Cnf.tseitin ~fresh_prefix:"@t" f in
  let solver = Pet_sat.Solver.create () in
  let ids = Hashtbl.create 16 in
  let var x =
    match Hashtbl.find_opt ids x with
    | Some i -> i
    | None ->
      let i = Pet_sat.Solver.new_var solver in
      Hashtbl.add ids x i;
      i
  in
  let lit x sign = Pet_sat.Lit.make (var x) sign in
  List.iter
    (fun clause ->
      Pet_sat.Solver.add_clause solver
        (List.map (fun (l : Literal.t) -> lit l.var l.sign) clause))
    cnf;
  let vars = F.vars f in
  List.for_all
    (fun rho ->
      let assumptions = List.map (fun x -> lit x (rho x)) vars in
      Bool.equal (F.eval rho f)
        (Pet_sat.Solver.solve ~assumptions solver = Pet_sat.Solver.Sat))
    (F.all_assignments vars)

let prop_tseitin_faithful =
  QCheck2.Test.make ~count:300 ~name:"Tseitin CNF is faithful"
    ~print:print_formula gen_formula tseitin_faithful

(* The QCHECK_SEED at which enumerating the auxiliaries ran out of
   memory. *)
let test_tseitin_seed_5434518 =
  QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 5434518 |])
    (QCheck2.Test.make ~count:300 ~name:"Tseitin CNF is faithful, seed 5434518"
       ~print:print_formula gen_formula tseitin_faithful)

let test_tseitin_shapes () =
  Alcotest.(check bool) "true gives no clause" true
    (Cnf.tseitin ~fresh_prefix:"@t" F.True = []);
  Alcotest.(check bool) "false gives empty clause" true
    (Cnf.tseitin ~fresh_prefix:"@t" F.False = [ [] ]);
  let cnf = Cnf.tseitin ~fresh_prefix:"@t" (Parse.formula "a & (b | !c)") in
  Alcotest.(check bool) "linear size" true (List.length cnf <= 8)

let () =
  let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests) in
  Alcotest.run "pet_logic"
    [
      ( "formula",
        [
          Alcotest.test_case "eval" `Quick test_eval;
          Alcotest.test_case "smart constructors" `Quick
            test_smart_constructors;
          Alcotest.test_case "vars" `Quick test_vars;
          Alcotest.test_case "semantic checks" `Quick test_semantic_checks;
          Alcotest.test_case "map_vars" `Quick test_map_vars;
        ] );
      ("literal", [ Alcotest.test_case "literals" `Quick test_literals ]);
      ( "parser",
        [
          Alcotest.test_case "precedence" `Quick test_parse_precedence;
          Alcotest.test_case "errors" `Quick test_parse_errors;
          Alcotest.test_case "alternative spellings" `Quick
            test_parse_alternative_spellings;
          Alcotest.test_case "error positions" `Quick test_parse_positions;
        ] );
      ( "structure",
        [ Alcotest.test_case "size and map" `Quick test_size_and_map ] );
      ( "dnf-cnf-unit",
        [
          Alcotest.test_case "dnf normalize" `Quick test_dnf_normalize;
          Alcotest.test_case "dnf holds" `Quick test_dnf_holds;
          Alcotest.test_case "tseitin shapes" `Quick test_tseitin_shapes;
          test_tseitin_seed_5434518;
        ] );
      qsuite "properties"
        [
          prop_parse_print_roundtrip;
          prop_print_matches_format;
          prop_all_assignments_complete;
          prop_nnf_equivalent;
          prop_nnf_shape;
          prop_dnf_equivalent;
          prop_dnf_no_subsumption;
          prop_cnf_equivalent;
          prop_tseitin_faithful;
        ];
    ]
