(* Tests for the ROBDD engine: unit behaviour plus qcheck cross-validation
   against truth-table semantics of random formulas. *)

module F = Pet_logic.Formula
module Bdd = Pet_bdd.Bdd

let nvars = 5
let var_names = [| "p1"; "p2"; "p3"; "p4"; "p5" |]

let index_of name =
  let rec go i = if var_names.(i) = name then i else go (i + 1) in
  go 0

(* Compile a formula to a BDD over the fixed variable order. *)
let rec compile m = function
  | F.True -> Bdd.one
  | F.False -> Bdd.zero
  | F.Var x -> Bdd.var m (index_of x)
  | F.Not f -> Bdd.neg m (compile m f)
  | F.And (a, b) -> Bdd.conj m (compile m a) (compile m b)
  | F.Or (a, b) -> Bdd.disj m (compile m a) (compile m b)
  | F.Implies (a, b) -> Bdd.imp m (compile m a) (compile m b)
  | F.Iff (a, b) -> Bdd.iff m (compile m a) (compile m b)

let gen_formula =
  QCheck2.Gen.(
    sized_size (int_range 0 6) @@ fix (fun self n ->
        if n = 0 then
          oneof
            [
              return F.True;
              return F.False;
              map F.var (oneofl (Array.to_list var_names));
            ]
        else
          let sub = self (n / 2) in
          oneof
            [
              map F.var (oneofl (Array.to_list var_names));
              map (fun f -> F.Not f) sub;
              map2 (fun a b -> F.And (a, b)) sub sub;
              map2 (fun a b -> F.Or (a, b)) sub sub;
              map2 (fun a b -> F.Implies (a, b)) sub sub;
              map2 (fun a b -> F.Iff (a, b)) sub sub;
            ]))

let rho_of_bits bits name = (bits lsr index_of name) land 1 = 1
let int_rho_of_bits bits i = (bits lsr i) land 1 = 1

(* --- Unit tests ------------------------------------------------------------ *)

let test_terminals () =
  Alcotest.(check bool) "taut one" true (Bdd.is_tautology Bdd.one);
  Alcotest.(check bool) "unsat zero" true (Bdd.is_unsat Bdd.zero);
  let m = Bdd.man () in
  Alcotest.(check int) "neg one" Bdd.zero (Bdd.neg m Bdd.one);
  Alcotest.(check int) "x & !x" Bdd.zero
    (Bdd.conj m (Bdd.var m 0) (Bdd.nvar m 0));
  Alcotest.(check int) "x | !x" Bdd.one
    (Bdd.disj m (Bdd.var m 0) (Bdd.nvar m 0))

let test_hash_consing () =
  let m = Bdd.man () in
  let a = Bdd.conj m (Bdd.var m 0) (Bdd.var m 1) in
  let b = Bdd.conj m (Bdd.var m 1) (Bdd.var m 0) in
  Alcotest.(check int) "commutative ands share the node" a b;
  let c = Bdd.neg m (Bdd.disj m (Bdd.nvar m 0) (Bdd.nvar m 1)) in
  Alcotest.(check int) "de morgan shares the node" a c

let test_restrict () =
  let m = Bdd.man () in
  let f = Bdd.disj m (Bdd.var m 0) (Bdd.var m 1) in
  Alcotest.(check int) "f[x:=1] = 1" Bdd.one (Bdd.restrict m f 0 true);
  Alcotest.(check int) "f[x:=0] = y" (Bdd.var m 1) (Bdd.restrict m f 0 false)

let test_exists () =
  let m = Bdd.man () in
  let f = Bdd.conj m (Bdd.var m 0) (Bdd.var m 1) in
  Alcotest.(check int) "Ex. x&y = y" (Bdd.var m 1) (Bdd.exists m [ 0 ] f);
  Alcotest.(check int) "Exy. x&y = 1" Bdd.one (Bdd.exists m [ 0; 1 ] f)

(* The parity of variables [0 .. n-1]: every path tests every variable,
   so the BDD has 2n - 1 nodes and 2^n paths. A cofactor that recursed
   into both children without a memo would visit every path. *)
let parity m n =
  List.fold_left (fun acc v -> Bdd.xor m acc (Bdd.var m v)) Bdd.zero
    (List.init n Fun.id)

let test_parity_restrict_exists () =
  let m = Bdd.man () in
  let n = 40 in
  let f = parity m n in
  let g = parity m (n - 1) in
  Alcotest.(check int) "2n - 1 nodes" ((2 * n) - 1) (Bdd.size m f);
  Alcotest.(check int) "f[x39:=0] = parity of 39" g
    (Bdd.restrict m f (n - 1) false);
  Alcotest.(check int) "f[x39:=1] = its negation" (Bdd.neg m g)
    (Bdd.restrict m f (n - 1) true);
  Alcotest.(check int) "f[x0:=1] = negated parity of x1..x39"
    (Bdd.neg m
       (List.fold_left
          (fun acc v -> Bdd.xor m acc (Bdd.var m v))
          Bdd.zero
          (List.init (n - 1) (fun i -> i + 1))))
    (Bdd.restrict m f 0 true);
  Alcotest.(check int) "Ex39. f = 1" Bdd.one (Bdd.exists m [ n - 1 ] f);
  Alcotest.(check int) "Ex0. f = 1" Bdd.one (Bdd.exists m [ 0 ] f);
  let h = Bdd.conj m f (Bdd.var m n) in
  Alcotest.(check int) "Ex40. f & x40 = f" f (Bdd.exists m [ n ] h)

let test_walk_creates_no_node () =
  let m = Bdd.man () in
  let f = parity m 40 in
  let g = Bdd.conj m f (Bdd.var m 0) in
  let nodes = Bdd.node_count m in
  let w = Bdd.walk m f ~dom:0b101 ~bits:0b001 ~upper:20 in
  Alcotest.(check bool) "satisfiable" true w.Bdd.sat;
  Alcotest.(check int) "x0 is bound true" 0 (w.Bdd.lower_false land 1);
  Alcotest.(check int) "x2 is bound false" 0 (w.Bdd.lower_true land 4);
  Alcotest.(check int) "x1 is free" 2 (w.Bdd.lower_true land w.Bdd.lower_false land 2);
  Alcotest.(check int) "x20 (upper bit 0) is free" 1
    (w.Bdd.upper_true land w.Bdd.upper_false land 1);
  let w = Bdd.walk m g ~dom:1 ~bits:0 ~upper:20 in
  Alcotest.(check bool) "contradicted by the cube" false w.Bdd.sat;
  Alcotest.(check int) "no new node" nodes (Bdd.node_count m)

let test_support () =
  let m = Bdd.man () in
  let f = Bdd.conj m (Bdd.var m 2) (Bdd.disj m (Bdd.var m 0) Bdd.one) in
  Alcotest.(check (list int)) "support collapses" [ 2 ] (Bdd.support m f)

let test_count_models () =
  let m = Bdd.man () in
  let f = Bdd.disj m (Bdd.var m 0) (Bdd.var m 1) in
  Alcotest.(check int) "x|y over 2 vars" 3 (Bdd.count_models m ~nvars:2 f);
  Alcotest.(check int) "x|y over 4 vars" 12 (Bdd.count_models m ~nvars:4 f);
  Alcotest.(check int) "true over 4 vars" 16
    (Bdd.count_models m ~nvars:4 Bdd.one);
  Alcotest.(check int) "false" 0 (Bdd.count_models m ~nvars:4 Bdd.zero)

let test_count_models_bad_nvars () =
  let m = Bdd.man () in
  let f = Bdd.var m 3 in
  Alcotest.(check bool) "support check" true
    (match Bdd.count_models m ~nvars:2 f with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_any_model () =
  let m = Bdd.man () in
  let f = Bdd.conj m (Bdd.var m 0) (Bdd.nvar m 2) in
  (match Bdd.any_model m ~nvars:3 f with
  | None -> Alcotest.fail "expected a model"
  | Some a ->
    Alcotest.(check bool) "x" true a.(0);
    Alcotest.(check bool) "!z" false a.(2));
  Alcotest.(check bool) "unsat has no model" true
    (Bdd.any_model m ~nvars:3 Bdd.zero = None)

(* --- Properties ------------------------------------------------------------- *)

let prop_semantics =
  QCheck2.Test.make ~count:500 ~name:"BDD agrees with truth table"
    ~print:F.to_string gen_formula (fun f ->
      let m = Bdd.man () in
      let b = compile m f in
      List.for_all
        (fun bits ->
          Bool.equal
            (F.eval (rho_of_bits bits) f)
            (Bdd.eval m b (int_rho_of_bits bits)))
        (List.init (1 lsl nvars) Fun.id))

let prop_count =
  QCheck2.Test.make ~count:300 ~name:"count_models agrees with truth table"
    ~print:F.to_string gen_formula (fun f ->
      let m = Bdd.man () in
      let b = compile m f in
      let expected =
        List.length
          (List.filter
             (fun bits -> F.eval (rho_of_bits bits) f)
             (List.init (1 lsl nvars) Fun.id))
      in
      Bdd.count_models m ~nvars b = expected)

let prop_iter_matches_count =
  QCheck2.Test.make ~count:300 ~name:"iter_models yields count_models models"
    ~print:F.to_string gen_formula (fun f ->
      let m = Bdd.man () in
      let b = compile m f in
      let seen = ref [] in
      Bdd.iter_models m ~nvars b (fun a -> seen := Array.copy a :: !seen);
      List.length !seen = Bdd.count_models m ~nvars b
      && List.for_all
           (fun a -> Bdd.eval m b (fun i -> a.(i)))
           !seen
      && List.length (List.sort_uniq Stdlib.compare !seen) = List.length !seen)

let prop_canonicity =
  QCheck2.Test.make ~count:300 ~name:"equivalent formulas share one node"
    ~print:(fun (a, b) -> F.to_string a ^ " vs " ^ F.to_string b)
    QCheck2.Gen.(tup2 gen_formula gen_formula)
    (fun (f, g) ->
      let m = Bdd.man () in
      let bf = compile m f and bg = compile m g in
      Bool.equal (bf = bg) (F.equivalent f g))

let prop_exists_is_disjunction_of_cofactors =
  QCheck2.Test.make ~count:300
    ~name:"exists v. f = f[v:=0] | f[v:=1]" ~print:F.to_string gen_formula
    (fun f ->
      let m = Bdd.man () in
      let b = compile m f in
      List.for_all
        (fun v ->
          Bdd.exists m [ v ] b
          = Bdd.disj m (Bdd.restrict m b v false) (Bdd.restrict m b v true))
        (List.init nvars Fun.id))

let prop_support_is_exact =
  QCheck2.Test.make ~count:300
    ~name:"support contains exactly the variables that matter"
    ~print:F.to_string gen_formula (fun f ->
      let m = Bdd.man () in
      let b = compile m f in
      let support = Bdd.support m b in
      List.for_all
        (fun v ->
          let matters =
            Bdd.restrict m b v false <> Bdd.restrict m b v true
          in
          Bool.equal matters (List.mem v support))
        (List.init nvars Fun.id))

let prop_negation_involutive =
  QCheck2.Test.make ~count:300 ~name:"neg (neg f) = f" ~print:F.to_string
    gen_formula (fun f ->
      let m = Bdd.man () in
      let b = compile m f in
      Bdd.neg m (Bdd.neg m b) = b
      && Bdd.xor m b b = Bdd.zero
      && Bdd.iff m b b = Bdd.one)

let prop_tautology =
  QCheck2.Test.make ~count:300 ~name:"is_tautology agrees with enumeration"
    ~print:F.to_string gen_formula (fun f ->
      let m = Bdd.man () in
      Bool.equal (Bdd.is_tautology (compile m f)) (F.tautology f))

(* The models of [f] that agree with the cube, by truth table. *)
let cube_models f ~dom ~bits =
  List.filter
    (fun v -> v land dom = bits && F.eval (rho_of_bits v) f)
    (List.init (1 lsl nvars) Fun.id)

let prop_walk =
  QCheck2.Test.make ~count:500 ~name:"walk agrees with the truth table"
    ~print:(fun (f, (dom, bits, upper)) ->
      Printf.sprintf "%s dom=%d bits=%d upper=%d" (F.to_string f) dom bits
        upper)
    QCheck2.Gen.(
      tup2 gen_formula
        (let* dom = int_range 0 ((1 lsl nvars) - 1) in
         let* bits = int_range 0 ((1 lsl nvars) - 1) in
         let* upper = int_range 0 nvars in
         return (dom, bits land dom, upper)))
    (fun (f, (dom, bits, upper)) ->
      let m = Bdd.man () in
      let b = compile m f in
      let nodes = Bdd.node_count m in
      let w = Bdd.walk m b ~dom ~bits ~upper in
      let models = cube_models f ~dom ~bits in
      let can v value =
        List.exists (fun x -> Bool.equal (x land (1 lsl v) <> 0) value) models
      in
      let mask value =
        List.fold_left
          (fun acc v -> if can v value then acc lor (1 lsl v) else acc)
          0
          (List.init nvars Fun.id)
      in
      let window = (1 lsl nvars) - 1 in
      Bool.equal w.Bdd.sat (models <> [])
      && w.Bdd.lower_true land window = mask true
      && w.Bdd.lower_false land window = mask false
      && w.Bdd.upper_true land (window lsr upper) = mask true lsr upper
      && w.Bdd.upper_false land (window lsr upper) = mask false lsr upper
      && Bdd.node_count m = nodes)

let () =
  let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests) in
  Alcotest.run "pet_bdd"
    [
      ( "bdd-unit",
        [
          Alcotest.test_case "terminals" `Quick test_terminals;
          Alcotest.test_case "hash consing" `Quick test_hash_consing;
          Alcotest.test_case "restrict" `Quick test_restrict;
          Alcotest.test_case "exists" `Quick test_exists;
          Alcotest.test_case "support" `Quick test_support;
          Alcotest.test_case "count models" `Quick test_count_models;
          Alcotest.test_case "count models bad nvars" `Quick
            test_count_models_bad_nvars;
          Alcotest.test_case "any model" `Quick test_any_model;
          Alcotest.test_case "restrict and exists on a 40-variable parity"
            `Quick test_parity_restrict_exists;
          Alcotest.test_case "walk creates no node" `Quick
            test_walk_creates_no_node;
        ] );
      qsuite "bdd-properties"
        [
          prop_semantics;
          prop_count;
          prop_iter_matches_count;
          prop_canonicity;
          prop_tautology;
          prop_exists_is_disjunction_of_cofactors;
          prop_support_is_exact;
          prop_negation_involutive;
          prop_walk;
        ];
    ]
