(* Tests for Algorithm 1, the atlas, the baseline and the figure
   machinery, against the paper's running example (Sections 3.1-3.3,
   Figures 1 and 2). *)

module F = Pet_logic.Formula
module Parse = Pet_logic.Parse
module Universe = Pet_valuation.Universe
module Total = Pet_valuation.Total
module Partial = Pet_valuation.Partial
module Rule = Pet_rules.Rule
module Exposure = Pet_rules.Exposure
module Engine = Pet_rules.Engine
module A1 = Pet_minimize.Algorithm1
module Atlas = Pet_minimize.Atlas
module Baseline = Pet_minimize.Baseline
module Lattice = Pet_minimize.Lattice
module Dot = Pet_minimize.Dot
module Running = Pet_casestudies.Running
module Hcov = Pet_casestudies.Hcov

let running_engine () = Engine.create ~backend:Engine.Bdd (Running.exposure ())

let mas_strings engine ?mode v =
  List.map
    (fun (c : A1.choice) -> Partial.to_string c.A1.mas)
    (A1.mas_of ?mode engine v)

let total s =
  Total.of_string (Universe.of_names [ "p1"; "p2"; "p3" ]) s

(* --- Algorithm 1 on the running example --------------------------------- *)

let test_mas_running_example () =
  let engine = running_engine () in
  (* Figure 1: MAS of each eligible valuation. *)
  Alcotest.(check (list string)) "111" [ "_11"; "1__" ]
    (mas_strings engine (total "111"));
  Alcotest.(check (list string)) "011" [ "_11" ] (mas_strings engine (total "011"));
  Alcotest.(check (list string)) "110" [ "1_0" ] (mas_strings engine (total "110"));
  Alcotest.(check (list string)) "101" [ "10_" ] (mas_strings engine (total "101"));
  Alcotest.(check (list string)) "100" [ "100" ] (mas_strings engine (total "100"));
  (* Applicants with no benefit send nothing. *)
  Alcotest.(check (list string)) "000" [ "___" ] (mas_strings engine (total "000"))

let test_mas_benefit_sets () =
  let engine = running_engine () in
  let choices = A1.mas_of engine (total "110") in
  Alcotest.(check (list (list string))) "benefits recorded" [ [ "b1"; "b3" ] ]
    (List.map (fun (c : A1.choice) -> c.A1.benefits) choices)

let test_exact_mode_agrees_without_constraints () =
  let engine = running_engine () in
  List.iter
    (fun s ->
      Alcotest.(check (list string))
        ("exact = chain for " ^ s)
        (mas_strings engine (total s))
        (mas_strings engine ~mode:A1.Exact (total s)))
    [ "111"; "011"; "110"; "101"; "100" ]

let test_is_accurate () =
  let engine = running_engine () in
  let w s = Partial.of_string (Universe.of_names [ "p1"; "p2"; "p3" ]) s in
  (* Figure 1: 11_ is accurate for 111 but not minimal. *)
  Alcotest.(check bool) "11_ accurate for 111" true
    (A1.is_accurate engine (total "111") (w "11_"));
  Alcotest.(check bool) "_11 accurate for 111" true
    (A1.is_accurate engine (total "111") (w "_11"));
  Alcotest.(check bool) "_1_ not accurate for 111" false
    (A1.is_accurate engine (total "111") (w "_1_"));
  Alcotest.(check bool) "11_ not accurate for 110" false
    (A1.is_accurate engine (total "110") (w "11_"));
  Alcotest.(check bool) "not a subvaluation" false
    (A1.is_accurate engine (total "110") (w "_11"))

let test_unrealistic_rejected () =
  let engine = Engine.create ~backend:Engine.Bdd (Hcov.exposure ()) in
  let xp = Exposure.xp (Hcov.exposure ()) in
  (* p1 (under 16) and p5 (adult below 25) together violate R_ADD. *)
  let v = Total.of_string xp "100010000000" in
  Alcotest.(check bool) "rejected" true
    (match A1.mas_of engine v with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_potential_players () =
  let engine = running_engine () in
  let xp = Universe.of_names [ "p1"; "p2"; "p3" ] in
  let players s =
    List.map Total.to_string
      (A1.potential_players engine (Partial.of_string xp s))
  in
  (* Figure 2: _11 can be played by 011 and 111; 1__ only by 111. *)
  Alcotest.(check (list string)) "_11" [ "011"; "111" ] (players "_11");
  Alcotest.(check (list string)) "1__" [ "111" ] (players "1__");
  Alcotest.(check (list string)) "1_0" [ "110" ] (players "1_0")

(* --- Chain closure -------------------------------------------------------- *)

let test_chain_close () =
  let e = Hcov.exposure () in
  let xp = Exposure.xp e in
  let close assoc =
    Partial.to_string (A1.chain_close e (Partial.of_assoc xp assoc))
  in
  (* p12 -> !p1. *)
  Alcotest.(check string) "p12 chains !p1" "0__________1"
    (close [ ("p12", true) ]);
  (* p3 -> !p1 & !p5, but no contrapositive chaining: p10 stays blank. *)
  Alcotest.(check string) "p3 p4 chain" "0_110_______"
    (close [ ("p3", true); ("p4", true) ]);
  (* p10 -> !p1 & !p3 (the calibration rule). *)
  Alcotest.(check string) "p10 chains" "0_0______1__"
    (close [ ("p10", true) ])

let test_chain_close_idempotent_monotone () =
  let e = Hcov.exposure () in
  let xp = Exposure.xp e in
  (* Idempotence and monotonicity over a sweep of consistent partials. *)
  List.iter
    (fun assoc ->
      let w = Partial.of_assoc xp assoc in
      let c = A1.chain_close e w in
      Alcotest.(check bool) "extensive" true (Partial.subvaluation w c);
      Alcotest.(check bool) "idempotent" true
        (Partial.equal c (A1.chain_close e c)))
    [
      [];
      [ ("p12", true) ];
      [ ("p3", true); ("p4", true) ];
      [ ("p10", true); ("p6", true) ];
      [ ("p2", false) ];
    ];
  (* Contradictory chaining is reported. *)
  Alcotest.(check bool) "contradiction detected" true
    (match
       A1.chain_close e (Partial.of_assoc xp [ ("p12", true); ("p1", true) ])
     with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* --- Atlas ------------------------------------------------------------------ *)

let test_atlas_running () =
  let atlas = Atlas.build (running_engine ()) in
  Alcotest.(check int) "5 MAS" 5 (Atlas.mas_count atlas);
  Alcotest.(check int) "5 valuations" 5 (Atlas.player_count atlas);
  Alcotest.(check (list (pair int int))) "choice distribution"
    [ (1, 4); (2, 1) ]
    (Atlas.choice_distribution atlas);
  Alcotest.(check (pair int int)) "domain range" (1, 3)
    (Atlas.domain_size_range atlas);
  (* Lexicographic order of the MAS set. *)
  Alcotest.(check (list string)) "mas order"
    [ "_11"; "1__"; "1_0"; "10_"; "100" ]
    (List.map
       (fun (c : A1.choice) -> Partial.to_string c.A1.mas)
       (Atlas.mas_list atlas));
  (* The forced players of _11 are exactly 011. *)
  let m11 =
    Option.get
      (Atlas.find_mas atlas
         (Partial.of_string (Universe.of_names [ "p1"; "p2"; "p3" ]) "_11"))
  in
  Alcotest.(check (list string)) "forced of _11" [ "011" ]
    (List.map
       (fun i -> Total.to_string (Atlas.player atlas i))
       (Atlas.forced_players_of_mas atlas m11))

(* --- Atlas against the per-valuation construction ------------------------------ *)

(* The construction [Atlas.build] replaced, kept as the reference:
   Algorithm 1 on every realistic eligible valuation, enumerated from
   [Total.all] by name, and each crowd from [potential_players]. *)
type reference = {
  r_mas : A1.choice array;
  r_players : Total.t array;
  r_choices : int list array;
  r_crowds : int list array;
}

let reference_atlas ?mode engine =
  let e = Engine.exposure engine in
  let eligible =
    List.filter
      (fun v ->
        Exposure.satisfies_constraints e v
        && Exposure.benefits_of_assignment e (Total.rho v) <> [])
      (Total.all (Exposure.xp e))
  in
  let r_mas =
    List.concat_map (A1.mas_of ?mode engine) eligible
    |> List.sort_uniq (fun (a : A1.choice) b ->
           Partial.compare_lex a.mas b.mas)
    |> Array.of_list
  in
  let crowds =
    Array.map (fun (c : A1.choice) -> A1.potential_players engine c.mas) r_mas
  in
  let r_players =
    Array.of_list
      (List.sort_uniq Total.compare (List.concat (Array.to_list crowds)))
  in
  let index = Hashtbl.create 1024 in
  Array.iteri (fun i v -> Hashtbl.add index (Total.bits v) i) r_players;
  let r_crowds =
    Array.map (List.map (fun v -> Hashtbl.find index (Total.bits v))) crowds
  in
  let r_choices = Array.make (Array.length r_players) [] in
  for mi = Array.length r_mas - 1 downto 0 do
    List.iter (fun pi -> r_choices.(pi) <- mi :: r_choices.(pi)) r_crowds.(mi)
  done;
  { r_mas; r_players; r_choices; r_crowds }

let check_against_reference ?mode name engine =
  let r = reference_atlas ?mode engine and atlas = Atlas.build ?mode engine in
  let check what testable expected actual =
    Alcotest.check testable (name ^ ": " ^ what) expected actual
  in
  let ints = Alcotest.(list int) in
  let mas_line (c : A1.choice) =
    Partial.to_string c.mas ^ " " ^ String.concat "," c.benefits
  in
  check "mas" Alcotest.(list string)
    (Array.to_list (Array.map mas_line r.r_mas))
    (List.map mas_line (Atlas.mas_list atlas));
  check "players_of_mas" Alcotest.(list ints) (Array.to_list r.r_crowds)
    (List.init (Atlas.mas_count atlas) (Atlas.players_of_mas atlas));
  check "players" Alcotest.(list string)
    (Array.to_list (Array.map Total.to_string r.r_players))
    (List.init (Atlas.player_count atlas) (fun i ->
         Total.to_string (Atlas.player atlas i)));
  check "choices_of_player" Alcotest.(list ints) (Array.to_list r.r_choices)
    (List.init (Atlas.player_count atlas) (Atlas.choices_of_player atlas));
  (* Binary searches: every total valuation, player or not; each MAS,
     and each MAS with one predicate blanked. *)
  let index = Hashtbl.create 1024 in
  Array.iteri (fun i v -> Hashtbl.add index (Total.bits v) i) r.r_players;
  let totals = Total.all (Exposure.xp (Engine.exposure engine)) in
  check "find_player" Alcotest.(list (option int))
    (List.map (fun v -> Hashtbl.find_opt index (Total.bits v)) totals)
    (List.map (Atlas.find_player atlas) totals);
  let partials =
    Array.to_list r.r_mas
    |> List.concat_map (fun (c : A1.choice) ->
           c.mas :: List.map (Partial.unset c.mas) (Partial.domain c.mas))
  in
  check "find_mas" Alcotest.(list (option int))
    (List.map
       (fun w ->
         Array.find_index
           (fun (c : A1.choice) -> Partial.equal c.mas w)
           r.r_mas)
       partials)
    (List.map (Atlas.find_mas atlas) partials);
  atlas

let case_studies () =
  [
    ("running", Running.exposure ());
    ("hcov", Hcov.exposure ());
    ("rsa", Pet_casestudies.Rsa.exposure ());
    ("loan", Pet_casestudies.Loan.exposure ());
  ]

(* Seed-0 corpus forms of 6 to 13 predicates. *)
let corpus_forms count =
  List.init count (fun i ->
      let f = Pet_corpus.Corpus.form ~seed:0 ~size:(6 + (i mod 8)) i in
      (f.name, Pet_rules.Spec.parse_exn f.text))

(* Algorithm 2's moves, one line per player, over every form: pinned to
   the digest the per-valuation construction gave, so the game layer
   sees the same atlas. *)
let profile_lines atlas =
  let p = Pet_game.Strategy.compute atlas in
  String.concat ""
    (List.init (Atlas.player_count atlas) (fun i ->
         Printf.sprintf "%s %d\n"
           (Total.to_string (Atlas.player atlas i))
           (Pet_game.Profile.move_of p i)))

let reference_profiles_digest = "73d0e701deb299fc7574b825ede615bc"

let test_atlas_matches_reference () =
  let forms = case_studies () @ corpus_forms 300 in
  List.iter
    (fun backend ->
      let profiles = Buffer.create (1 lsl 20) in
      List.iter
        (fun (name, e) ->
          let name = name ^ "/" ^ Engine.backend_name backend in
          let atlas =
            check_against_reference name (Engine.create ~backend e)
          in
          Buffer.add_string profiles (profile_lines atlas))
        forms;
      Alcotest.(check string)
        (Engine.backend_name backend ^ ": Algorithm 2 profiles")
        reference_profiles_digest
        (Digest.to_hex (Digest.string (Buffer.contents profiles))))
    [ Engine.Bdd; Engine.Compiled ]

(* Exact mode runs Algorithm 1 on every eligible valuation (its key is
   the valuation) at 2^n engine queries each, so it takes the forms of
   at most 10 predicates among the first 40. *)
let test_atlas_matches_reference_exact () =
  List.iter
    (fun (name, e) ->
      if Universe.size (Exposure.xp e) <= 10 then
        ignore
          (check_against_reference ~mode:A1.Exact (name ^ "/exact")
             (Engine.create ~backend:Engine.Compiled e)))
    (case_studies () @ corpus_forms 40)

let test_atlas_runs_algorithm1_per_key () =
  let e = Hcov.exposure () in
  let runs = Pet_obs.Metrics.counter "pet_algorithm1_runs_total" in
  let was_on = Pet_obs.Metrics.enabled () in
  Pet_obs.Metrics.enable ();
  let before = Pet_obs.Metrics.counter_value runs in
  ignore (Atlas.build (Engine.create ~backend:Engine.Bdd e));
  let calls = Pet_obs.Metrics.counter_value runs - before in
  if not was_on then Pet_obs.Metrics.disable ();
  let eligible = List.length (Exposure.eligible e) in
  Alcotest.(check bool)
    (Printf.sprintf "%d mas_of calls < %d eligible valuations" calls eligible)
    true
    (calls > 0 && calls < eligible)

(* --- Algorithm 1 against its list-based reference ------------------------------ *)

(* Algorithm 1 as it was written before it worked on machine words: names,
   literal lists and [Partial.t] throughout. [A1.mas_of] must give the
   same choices on every backend and in every mode. *)
module Reference = struct
  module Dnf = Pet_logic.Dnf

  (* Lines 5-13: the Cartesian product, across the benefits granted to
     [v], of the conjunctions of each benefit's DNF that [v] satisfies,
     each candidate being [v] restricted to the chosen conjunctions. *)
  let raw_candidates exposure v granted =
    let xp = Exposure.xp exposure in
    let rho = Total.rho v in
    let restriction c =
      Partial.of_assoc xp
        (List.map (fun (l : Pet_logic.Literal.t) -> (l.var, l.sign)) c)
    in
    let satisfied b =
      Rule.conjunctions (Exposure.rule_for exposure b)
      |> List.filter (Dnf.conjunction_holds rho)
      |> List.map restriction
    in
    let combine acc restrictions =
      List.concat_map
        (fun w -> List.map (fun r -> Option.get (Partial.merge w r)) restrictions)
        acc
    in
    List.fold_left combine [ Partial.empty xp ] (List.map satisfied granted)
    |> List.sort_uniq Partial.compare

  let entail_close engine w =
    List.fold_left
      (fun acc (p, value) -> Partial.set acc p value)
      w
      (Engine.deduced_literals engine w)

  let keep_minimal candidates =
    let candidates = List.sort_uniq Partial.compare candidates in
    List.filter
      (fun w ->
        not
          (List.exists (fun w' -> Partial.strict_subvaluation w' w) candidates))
      candidates

  (* Exact mode: every subset of [v]'s domain, keeping the accurate ones
     none of whose strict subsets is accurate. *)
  let exhaustive_minimal engine v granted =
    let xp = Exposure.xp (Engine.exposure engine) in
    let n = Universe.size xp in
    if n > 16 then invalid_arg "universe too large";
    let bits = Total.bits v in
    let accurate = Hashtbl.create 256 in
    for dom = 0 to (1 lsl n) - 1 do
      let w = Partial.of_masks xp ~dom ~bits:(bits land dom) in
      if List.equal String.equal (Engine.benefits engine w) granted then
        Hashtbl.add accurate dom w
    done;
    Hashtbl.fold
      (fun dom w acc ->
        let rec smaller sub =
          sub <> dom && (Hashtbl.mem accurate sub || smaller ((sub - 1) land dom))
        in
        if smaller ((dom - 1) land dom) then acc else w :: acc)
      accurate []

  let mas_of ?(mode = A1.Chain) engine v =
    let exposure = Engine.exposure engine in
    if not (Exposure.satisfies_constraints exposure v) then
      invalid_arg "valuation violates the constraints";
    let granted = Engine.benefits_of_total engine v in
    let selected =
      if granted = [] then [ Partial.empty (Exposure.xp exposure) ]
      else
        match mode with
        | A1.Exact -> exhaustive_minimal engine v granted
        | Chain | Entail ->
          let close =
            if mode = A1.Chain then A1.chain_close exposure
            else entail_close engine
          in
          raw_candidates exposure v granted
          |> List.map close
          |> List.filter (fun w ->
                 List.equal String.equal (Engine.benefits engine w) granted)
          |> keep_minimal
    in
    List.sort Partial.compare_lex selected
    |> List.map (fun mas -> { A1.mas; benefits = granted })
end

let choice_lines choices =
  List.map
    (fun (c : A1.choice) ->
      Partial.to_string c.mas ^ " " ^ String.concat "," c.benefits)
    choices

(* The largest form each backend and mode is run on. Brute force
   enumerates completions per query, and Exact mode makes 2^n queries
   per valuation, so they stop early; above 16 predicates Exact mode
   refuses every valuation, which is compared too. *)
let reference_cap backend mode =
  match backend, mode with
  | Engine.Brute, A1.Chain -> 10
  | Engine.Brute, A1.Entail -> 8
  | Engine.Brute, A1.Exact -> 6
  | Engine.Sat, A1.Entail -> 11
  | Engine.Sat, A1.Exact -> 7
  | Engine.Bdd, A1.Exact -> 8
  | Engine.Compiled, A1.Exact -> 10
  | (Engine.Sat | Engine.Bdd | Engine.Compiled), (A1.Chain | A1.Entail) ->
    max_int

let test_mas_of_matches_reference () =
  let run f v =
    match f v with
    | choices -> choice_lines choices
    | exception Invalid_argument _ -> [ "refused" ]
  in
  List.iter
    (fun (name, e) ->
      let eligible = Exposure.eligible e in
      let n = Universe.size (Exposure.xp e) in
      List.iter
        (fun backend ->
          let engine = Engine.create ~backend e in
          List.iter
            (fun mode ->
              if n <= reference_cap backend mode || (mode = A1.Exact && n > 16)
              then
                let mas_of = A1.mas_of ~mode engine in
                List.iter
                  (fun v ->
                    let expected = run (Reference.mas_of ~mode engine) v
                    and got = run mas_of v in
                    if expected <> got then
                      Alcotest.failf
                        "%s/%s: MAS of %s: expected [%s], got [%s]" name
                        (Engine.backend_name backend) (Total.to_string v)
                        (String.concat "; " expected)
                        (String.concat "; " got))
                  eligible)
            [ A1.Chain; A1.Entail; A1.Exact ])
        Engine.all_backends)
    (case_studies () @ corpus_forms 40)

(* --- Provider builds and the heaps -------------------------------------------- *)

(* In a process of several domains every minor collection stops the
   world, and OCaml empties the minor heap before it creates an array of
   more than 256 (Max_young_wosize) elements from a young block
   ([Array.make], [init], [map], [of_list]). The provider build must not
   do that. It runs in a spawned domain with a 1M-word minor heap. Each
   stage starts on an empty minor heap and allocates less than it holds;
   it also starts a fresh major cycle, whose end would empty the minor
   heap too. So any minor collection a stage counts was forced. *)
let minor_heap_words = 1 lsl 20

(* [f ()], its minor words and the minor collections it ran. *)
let minor_cost f =
  Gc.full_major ();
  let words = Gc.minor_words ()
  and collections = (Gc.quick_stat ()).Gc.minor_collections in
  let x = f () in
  ( x,
    Gc.minor_words () -. words,
    (Gc.quick_stat ()).Gc.minor_collections - collections )

(* The forms the provider-build checks run over: H-cov, loan, RSA (17
   predicates, so its compiled engine is a BDD) and the first 40 seed-0
   corpus forms. *)
let provider_forms () =
  ("hcov", Hcov.exposure ())
  :: ("loan", Pet_casestudies.Loan.exposure ())
  :: ("rsa", Pet_casestudies.Rsa.exposure ())
  :: corpus_forms 40

(* [s.run backend stage form ~input f] runs one provider-build stage,
   [f], and returns its result; [input] is what the result holds from
   the stage before ([()] for the engine). *)
type stage_runner = {
  run :
    'a 'b. Engine.backend -> string -> string -> input:'b -> (unit -> 'a) -> 'a;
}

(* Every provider-build stage on every form, on both backends: the
   engine, the atlas, and Algorithm 2 under [Blank] and [Sm]. *)
let run_provider_stages forms s =
  List.iter
    (fun backend ->
      List.iter
        (fun (form, e) ->
          let engine =
            s.run backend "engine" form ~input:() (fun () ->
                Engine.create ~backend e)
          in
          let atlas =
            s.run backend "atlas" form ~input:engine (fun () ->
                Atlas.build engine)
          in
          List.iter
            (fun payoff ->
              ignore
                (s.run backend "algorithm 2" form ~input:atlas (fun () ->
                     Pet_game.Strategy.compute ~payoff atlas)))
            [ Pet_game.Payoff.Blank; Pet_game.Payoff.Sm ])
        forms)
    [ Engine.Compiled; Engine.Bdd ]

(* [f ()] in a spawned domain with metrics off. *)
let in_fresh_domain f =
  let was_on = Pet_obs.Metrics.enabled () in
  Pet_obs.Metrics.disable ();
  let x = Domain.join (Domain.spawn f) in
  if was_on then Pet_obs.Metrics.enable ();
  x

(* Minor words per provider-build stage, summed over [provider_forms]
   with metrics off: the measured value plus 10%. Minor words do not
   depend on timing, so a kernel that starts allocating again fails
   here deterministically. "algorithm 2" is [Strategy.compute] under
   both [Blank] and [Sm]. *)
let minor_word_ceilings =
  [
    ( Engine.Compiled,
      [ ("engine", 68_023.); ("atlas", 88_050.); ("algorithm 2", 1_819_660.) ]
    );
    ( Engine.Bdd,
      [ ("engine", 252_248.); ("atlas", 110_730.); ("algorithm 2", 1_817_986.) ]
    );
  ]

let test_provider_forces_no_minor_gc () =
  let costs =
    in_fresh_domain (fun () ->
        Gc.set { (Gc.get ()) with Gc.minor_heap_size = minor_heap_words };
        let costs = ref [] in
        let run backend name form ~input:_ f =
          let x, words, collections = minor_cost f in
          costs := (backend, name, form, words, collections) :: !costs;
          x
        in
        run_provider_stages (provider_forms ()) { run };
        List.rev !costs)
  in
  List.iter
    (fun (backend, name, form, words, collections) ->
      let name =
        Printf.sprintf "%s %s (%s)" form name (Engine.backend_name backend)
      in
      Alcotest.(check bool)
        (Printf.sprintf "%s: %.0f minor words fit the heap" name words)
        true
        (words < float_of_int minor_heap_words);
      Alcotest.(check int) (name ^ ": forced minor collections") 0 collections)
    costs;
  List.iter
    (fun (backend, ceilings) ->
      List.iter
        (fun (name, ceiling) ->
          let words =
            List.fold_left
              (fun acc (b, n, _, w, _) ->
                if b = backend && n = name then acc +. w else acc)
              0. costs
          in
          Alcotest.(check bool)
            (Printf.sprintf "%s %s: %.0f minor words <= %.0f"
               (Engine.backend_name backend) name words ceiling)
            true (words <= ceiling))
        ceilings)
    minor_word_ceilings

(* [f ()], and the words it allocated directly in the major heap on this
   domain: major words less those promoted from the minor heap. *)
let direct_major_words f =
  let _, promoted, major = Gc.counters () in
  let x = f () in
  let _, promoted', major' = Gc.counters () in
  (x, int_of_float (major' -. major -. (promoted' -. promoted)))

(* Words a stage may allocate in the major heap beyond what its result
   keeps: headers and the odd small block. *)
let major_slack_words = 64

(* Major-heap garbage drives major cycles, and every major cycle stops
   every domain. So a provider stage may allocate directly in the major
   heap only what its result keeps: the growth of [Obj.reachable_words]
   over its input. Working arrays come from the domain's scratch; the
   first pass over the forms fills it, the second is measured. The one
   exception is a table above [Scratch.cap] (RSA's 2^17-word benefit
   table), which a build allocates and drops, as the scratch keeps no
   buffer that large. Word counts do not depend on timing. *)
let test_provider_leaves_no_major_garbage () =
  let forms = provider_forms () in
  let above_cap form =
    let e = List.assoc form forms in
    let n = Universe.size (Exposure.xp e) in
    if 1 lsl n > Pet_minimize.Scratch.cap then (1 lsl n) + 1 else 0
  in
  let costs =
    in_fresh_domain (fun () ->
        run_provider_stages forms { run = (fun _ _ _ ~input:_ f -> f ()) };
        let costs = ref [] in
        let run backend name form ~input f =
          Gc.minor ();
          let before = Obj.reachable_words (Obj.repr input) in
          let x, direct = direct_major_words f in
          let kept = Obj.reachable_words (Obj.repr x) - before in
          costs := (backend, name, form, direct, kept) :: !costs;
          x
        in
        run_provider_stages forms { run };
        List.rev !costs)
  in
  List.iter
    (fun (backend, name, form, direct, kept) ->
      let allowed =
        kept + major_slack_words
        + if name = "atlas" then above_cap form else 0
      in
      Alcotest.(check bool)
        (Printf.sprintf "%s %s (%s): %d direct major words <= %d" form name
           (Engine.backend_name backend) direct allowed)
        true (direct <= allowed))
    costs

(* --- The scratch and what builds on it return --------------------------------- *)

(* A profile as text: every player's move, then every MAS's crowd
   aggregate. *)
let profile_text profile =
  let module P = Pet_game.Profile in
  let atlas = P.atlas profile in
  let b = Buffer.create 4096 in
  for i = 0 to Atlas.player_count atlas - 1 do
    Printf.bprintf b "%d " (P.move_of profile i)
  done;
  for m = 0 to Atlas.mas_count atlas - 1 do
    let c = P.aggregate profile m in
    Printf.bprintf b "%d/%d/%d " c.Pet_game.Crowd.ones c.zeros c.count
  done;
  Buffer.contents b

(* Everything a provider build returns that later requests read: the
   atlas's MAS, players and both adjacency lists, and Algorithm 2's
   profile under [Blank] and [Sm]. *)
let provider_text e =
  let atlas = Atlas.build (Engine.create ~backend:Engine.Compiled e) in
  let ints l = String.concat "," (List.map string_of_int l) in
  String.concat "\n"
    (List.map (fun (c : A1.choice) -> Partial.to_string c.mas) (Atlas.mas_list atlas)
    @ List.init (Atlas.mas_count atlas) (fun m -> ints (Atlas.players_of_mas atlas m))
    @ List.init (Atlas.player_count atlas) (fun i ->
          Printf.sprintf "%d:%s" (Atlas.player_bits atlas i)
            (ints (Atlas.choices_of_player atlas i)))
    @ List.map
        (fun payoff -> profile_text (Pet_game.Strategy.compute ~payoff atlas))
        [ Pet_game.Payoff.Blank; Pet_game.Payoff.Sm ])

(* Algorithm 2's moves and every crowd aggregate on [provider_forms]
   under the three payoffs, pinned to the digest the build gave before
   its working arrays came from the scratch. *)
let reference_provider_profiles_digest = "e1aa42a48401e0cbaf96abbb891c1343"

let test_provider_profiles_pinned () =
  let weighted =
    Pet_game.Payoff.Weighted
      (fun name -> 0.5 +. (0.3 *. float_of_int (Hashtbl.hash name mod 5)))
  in
  let b = Buffer.create (1 lsl 20) in
  List.iter
    (fun (form, e) ->
      let atlas = Atlas.build (Engine.create ~backend:Engine.Compiled e) in
      List.iter
        (fun payoff ->
          Buffer.add_string b form;
          Buffer.add_string b
            (profile_text (Pet_game.Strategy.compute ~payoff atlas)))
        [ Pet_game.Payoff.Blank; Pet_game.Payoff.Sm; weighted ])
    (provider_forms ());
  Alcotest.(check string) "digest" reference_provider_profiles_digest
    (Digest.to_hex (Digest.string (Buffer.contents b)))

(* Forms of 17, 12 and 8 predicates: RSA's benefit table is above
   [Scratch.cap], H-cov's and the corpus form's are not. *)
let scratch_forms () =
  let rsa = Pet_casestudies.Rsa.exposure () and hcov = Hcov.exposure () in
  let small =
    Pet_rules.Spec.parse_exn (Pet_corpus.Corpus.form ~seed:0 ~size:8 0).text
  in
  [ ("rsa", rsa); ("hcov", hcov); ("size 8", small); ("hcov", hcov);
    ("rsa", rsa); ("size 8", small) ]

(* One domain's scratch serves builds of every size in turn: each build
   equals the same build on a fresh domain, so nothing a larger build
   left in the scratch reaches a smaller one, or the other way round. A
   build that starts while the scratch is held runs on a fresh one. *)
let test_scratch_alternating_sizes () =
  let forms = scratch_forms () in
  let fresh =
    List.map (fun (_, e) -> in_fresh_domain (fun () -> provider_text e)) forms
  in
  let in_turn =
    in_fresh_domain (fun () -> List.map (fun (_, e) -> provider_text e) forms)
  in
  List.iteri
    (fun k ((form, _), (expected, got)) ->
      Alcotest.(check bool)
        (Printf.sprintf "build %d (%s) equals a fresh domain's" k form)
        true (expected = got))
    (List.combine forms (List.combine fresh in_turn));
  let nested =
    in_fresh_domain (fun () ->
        Pet_minimize.Scratch.with_scratch (fun _ ->
            provider_text (List.assoc "hcov" forms)))
  in
  Alcotest.(check bool) "a nested build equals a fresh domain's" true
    (nested = List.nth fresh 1)

(* Two domains building the same forms at the same time, each on its
   own scratch, get what one domain gets alone. *)
let test_scratch_two_domains () =
  let forms = scratch_forms () @ corpus_forms 6 in
  let expected =
    in_fresh_domain (fun () -> List.map (fun (_, e) -> provider_text e) forms)
  in
  let was_on = Pet_obs.Metrics.enabled () in
  Pet_obs.Metrics.disable ();
  let ready = Atomic.make 0 in
  let build () =
    Atomic.incr ready;
    while Atomic.get ready < 2 do
      Domain.cpu_relax ()
    done;
    List.map (fun (_, e) -> provider_text e) forms
  in
  let a = Domain.spawn build and b = Domain.spawn build in
  let a = Domain.join a and b = Domain.join b in
  if was_on then Pet_obs.Metrics.enable ();
  List.iteri
    (fun k (form, _) ->
      Alcotest.(check bool)
        (Printf.sprintf "build %d (%s) on both domains" k form)
        true
        (List.nth a k = List.nth expected k
        && List.nth b k = List.nth expected k))
    forms

(* --- Resident words of a provider artifact ------------------------------------ *)

(* A tenant's artifact stays resident while it is the active version, so
   a collector pays these words per hosted form. Over the 200 forms of
   the fleet workload on the compiled backend: the engine's words beyond
   its exposure's, per valuation ([2^n] per form), and the atlas's own
   words ([Obj.reachable_words] beyond its engine's) and the profile's
   (beyond its atlas's), per player. With an [int] per valuation and a
   consistency byte beside it the engine read 1.19; with 32-bit cells
   the atlas and the profile read 2.55 and 0.56, with 64-bit [int]
   arrays 4.8 and 1.1. One byte per valuation and 16-bit cells bring
   them to 0.150, 1.401 and 0.283. Word counts do not depend on
   timing. *)
let test_resident_words_per_player () =
  let forms =
    (Pet_corpus.Corpus.scenario ~seed:0 ~lo:8 ~hi:12 ~count:200 ()).forms
  in
  let engine_words = ref 0 and valuations = ref 0 in
  let atlas_words = ref 0 and profile_words = ref 0 and players = ref 0 in
  Array.iter
    (fun (f : Pet_corpus.Corpus.form) ->
      let exposure = Pet_rules.Spec.parse_exn f.text in
      let engine = Engine.create ~backend:Engine.Compiled exposure in
      let atlas = Atlas.build engine in
      let profile = Pet_game.Strategy.compute atlas in
      let words x = Obj.reachable_words (Obj.repr x) in
      let e = words engine and a = words atlas in
      engine_words := !engine_words + e - words exposure;
      valuations := !valuations + (1 lsl Universe.size (Exposure.xp exposure));
      atlas_words := !atlas_words + a - e;
      profile_words := !profile_words + words profile - a;
      players := !players + Atlas.player_count atlas)
    forms;
  let check name w per count ceiling =
    let ratio = float_of_int w /. float_of_int count in
    Alcotest.(check bool)
      (Printf.sprintf "%s: %.3f words per %s <= %.2f" name ratio per ceiling)
      true (ratio <= ceiling)
  in
  check "engine" !engine_words "valuation" !valuations 0.16;
  check "atlas" !atlas_words "player" !players 1.41;
  check "profile" !profile_words "player" !players 0.29

(* [create] picks 16-bit cells up to [2^16 - 1] and 32-bit ones up to
   [2^31 - 1]; a cell holds every value up to its width's capacity and
   never truncates. *)
let test_cells_range () =
  let module Cells = Pet_minimize.Cells in
  let read = Cells.get in
  let rejects c x =
    match Cells.set c 1 x with exception Invalid_argument _ -> true | () -> false
  in
  let width c = 8 * Char.code (Cells.byte c 0) in
  let max16 = (1 lsl 16) - 1 in
  List.iter
    (fun (max, bits, capacity) ->
      let c = Cells.create ~max 3 in
      let name = Printf.sprintf "max %d" max in
      Alcotest.(check int) (name ^ ": width") bits (width c);
      Alcotest.(check int) (name ^ ": capacity") capacity (Cells.capacity c);
      Alcotest.(check bool) (name ^ ": -1 rejected") true (rejects c (-1));
      Alcotest.(check bool) (name ^ ": min_int rejected") true (rejects c min_int);
      Alcotest.(check bool) (name ^ ": capacity + 1 rejected") true
        (rejects c (capacity + 1));
      Cells.set c 0 capacity;
      Cells.set c 2 max;
      Alcotest.(check (list int)) (name ^ ": stored") [ capacity; 0; max ]
        (List.init (Cells.length c) (read c));
      let copy = Cells.copy c in
      Cells.set c 0 7;
      Alcotest.(check (list int)) (name ^ ": copy") [ capacity; 0; max ]
        (List.init (Cells.length copy) (read copy));
      let raises f =
        match f () with exception Invalid_argument _ -> true | _ -> false
      in
      Alcotest.(check bool) (name ^ ": index past the end rejected") true
        (raises (fun () -> Cells.set c 3 0)
        && raises (fun () -> Cells.get c 3));
      Alcotest.(check bool) (name ^ ": negative index rejected") true
        (raises (fun () -> Cells.set c (-1) 0)
        && raises (fun () -> Cells.get c (-1))))
    [
      (0, 16, max16);
      (max16, 16, max16);
      (max16 + 1, 32, Cells.max_value);
      (Cells.max_value, 32, Cells.max_value);
    ];
  Alcotest.(check bool) "max 2^31 refused" true
    (match Cells.create ~max:(Cells.max_value + 1) 1 with
    | exception Invalid_argument _ -> true
    | _ -> false);
  let buf words =
    let b = Pet_minimize.Wordbuf.create () in
    List.iter (Pet_minimize.Wordbuf.push b) words;
    Cells.of_wordbuf b
  in
  Alcotest.(check int) "of_wordbuf up to 2^16 - 1" 16 (width (buf [ 3; max16; 0 ]));
  Alcotest.(check int) "of_wordbuf with 2^16" 32 (width (buf [ 3; max16 + 1 ]));
  Alcotest.(check (list int)) "of_wordbuf words" [ 3; max16 + 1 ]
    (let c = buf [ 3; max16 + 1 ] in
     List.init (Cells.length c) (read c))

(* --- Random-problem properties ----------------------------------------------- *)

let gen_problem =
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
    return (f1, f2))

let make_problem (f1, f2) =
  let xp = Universe.of_names [ "p1"; "p2"; "p3"; "p4" ] in
  let xb = Universe.of_names [ "b1"; "b2" ] in
  Exposure.create ~xp ~xb
    ~rules:
      [ Rule.of_formula ~benefit:"b1" f1; Rule.of_formula ~benefit:"b2" f2 ]
    ()

let print_problem (f1, f2) = Fmt.str "b1:=%a b2:=%a" F.pp f1 F.pp f2

let prop_mas_are_accurate =
  QCheck2.Test.make ~count:150 ~name:"every MAS is accurate" ~print:print_problem
    gen_problem (fun fs ->
      let e = make_problem fs in
      let engine = Engine.create ~backend:Engine.Bdd e in
      List.for_all
        (fun v ->
          List.for_all
            (fun (c : A1.choice) -> A1.is_accurate engine v c.A1.mas)
            (A1.mas_of engine v))
        (Exposure.eligible e))

let prop_mas_incomparable =
  QCheck2.Test.make ~count:150 ~name:"MAS of a player are incomparable"
    ~print:print_problem gen_problem (fun fs ->
      let e = make_problem fs in
      let engine = Engine.create ~backend:Engine.Bdd e in
      List.for_all
        (fun v ->
          let mas = List.map (fun c -> c.A1.mas) (A1.mas_of engine v) in
          List.for_all
            (fun a ->
              List.for_all
                (fun b ->
                  Partial.equal a b || not (Partial.subvaluation a b))
                mas)
            mas)
        (Exposure.eligible e))

let prop_exact_minimal =
  QCheck2.Test.make ~count:100
    ~name:"Exact mode output is minimal among accurate subvaluations"
    ~print:print_problem gen_problem (fun fs ->
      let e = make_problem fs in
      let engine = Engine.create ~backend:Engine.Bdd e in
      List.for_all
        (fun v ->
          let exact = A1.mas_of ~mode:A1.Exact engine v in
          List.for_all
            (fun (c : A1.choice) ->
              (* no strict accurate subvaluation *)
              let doms = Partial.domain c.A1.mas in
              List.for_all
                (fun removed ->
                  let w' =
                    Partial.restrict c.A1.mas
                      (List.filter (( <> ) removed) doms)
                  in
                  not (A1.is_accurate engine v w'))
                doms)
            exact)
        (Exposure.eligible e))

(* Theorem 3.17, property (1) in Exact mode: every accurate subvaluation
   extends some MAS. *)
let prop_every_accurate_covers_a_mas =
  QCheck2.Test.make ~count:80
    ~name:"every accurate subvaluation extends an Exact-mode MAS"
    ~print:print_problem gen_problem (fun fs ->
      let e = make_problem fs in
      let xp = Exposure.xp e in
      let engine = Engine.create ~backend:Engine.Bdd e in
      List.for_all
        (fun v ->
          let exact =
            List.map (fun c -> c.A1.mas) (A1.mas_of ~mode:A1.Exact engine v)
          in
          let bits = Total.bits v in
          List.for_all
            (fun dom ->
              let w = Partial.of_masks xp ~dom ~bits:(bits land dom) in
              (not (A1.is_accurate engine v w))
              || List.exists (fun m -> Partial.subvaluation m w) exact)
            (List.init 16 Fun.id))
        (Exposure.eligible e))

let prop_baseline_proves_benefits =
  QCheck2.Test.make ~count:150
    ~name:"baseline disclosure grants at least the due benefits"
    ~print:print_problem gen_problem (fun fs ->
      let e = make_problem fs in
      let engine = Engine.create ~backend:Engine.Bdd e in
      List.for_all
        (fun v ->
          let r = Baseline.minimize engine v in
          let granted = Engine.benefits_of_total engine v in
          List.for_all
            (fun b -> List.mem b (Engine.benefits engine r.Baseline.disclosed))
            granted)
        (Exposure.eligible e))

let prop_chain_mas_no_bigger_than_baseline_plus_closure =
  QCheck2.Test.make ~count:150
    ~name:"algorithm 1 discloses no more than the baseline plus deductions"
    ~print:print_problem gen_problem (fun fs ->
      let e = make_problem fs in
      let engine = Engine.create ~backend:Engine.Bdd e in
      List.for_all
        (fun v ->
          let best_mas =
            List.fold_left
              (fun acc (c : A1.choice) ->
                min acc (Partial.domain_size c.A1.mas))
              max_int (A1.mas_of engine v)
          in
          let b = Baseline.minimize engine v in
          (* The baseline picks one conjunction per benefit without the
             closure, so the smallest MAS is at most the baseline
             disclosure plus its chained consequences. *)
          best_mas
          <= Partial.domain_size (A1.chain_close e b.Baseline.disclosed))
        (Exposure.eligible e))

(* --- Baseline on H-cov ---------------------------------------------------------- *)

let test_baseline_hcov_overestimates () =
  let e = Hcov.exposure () in
  let engine = Engine.create ~backend:Engine.Bdd e in
  let bob = Hcov.bob () in
  let r = Baseline.minimize engine bob in
  (* The baseline reveals the young-adult conjunction without the closure
     literals... *)
  Alcotest.(check string) "baseline discloses" "____1110____"
    (Partial.to_string r.Baseline.disclosed);
  Alcotest.(check int) "claims 8 blanks" 8 r.Baseline.claimed_blanks;
  (* ...but p1 and p3 are deducible from the rules, so two of the claimed
     blanks are not protected at all. *)
  Alcotest.(check int) "2 blanks leak" 2
    (Baseline.rule_level_leak engine r.Baseline.disclosed)

(* --- Symbolic atlas -------------------------------------------------------------- *)

module Symbolic = Pet_minimize.Symbolic

(* The symbolic statistics equal the enumerated atlas on the case
   studies, row by row. *)
let symbolic_agrees exposure =
  let atlas = Atlas.build (Engine.create ~backend:Engine.Bdd exposure) in
  let sym = Symbolic.build exposure in
  Alcotest.(check int) "mas count" (Atlas.mas_count atlas)
    (Symbolic.mas_count sym);
  Alcotest.(check int) "valuations" (Atlas.player_count atlas)
    (Symbolic.valuation_count sym);
  Alcotest.(check (pair int int)) "domains" (Atlas.domain_size_range atlas)
    (Symbolic.domain_size_range sym);
  Alcotest.(check (list (pair int int)))
    "choice distribution"
    (Atlas.choice_distribution atlas)
    (Symbolic.choice_distribution sym);
  List.iteri
    (fun i (s : Symbolic.mas_stats) ->
      let c = Atlas.mas atlas i in
      Alcotest.(check string)
        (Fmt.str "mas %d" i)
        (Partial.to_string c.A1.mas)
        (Partial.to_string s.Symbolic.mas);
      Alcotest.(check (list string)) "benefits" c.A1.benefits
        s.Symbolic.benefits;
      Alcotest.(check int) "potential"
        (List.length (Atlas.players_of_mas atlas i))
        s.Symbolic.potential;
      let forced = Atlas.forced_players_of_mas atlas i in
      Alcotest.(check int) "forced" (List.length forced) s.Symbolic.forced;
      let po crowd =
        int_of_float
          (Pet_game.Payoff.value atlas Pet_game.Payoff.Blank ~mas:i ~crowd)
      in
      Alcotest.(check int) "po forced" (po forced) s.Symbolic.po_blank_forced;
      Alcotest.(check int) "po potential"
        (po (Atlas.players_of_mas atlas i))
        s.Symbolic.po_blank_potential)
    (Symbolic.stats sym)

let test_symbolic_casestudies () =
  symbolic_agrees (Running.exposure ());
  symbolic_agrees (Hcov.exposure ());
  symbolic_agrees (Pet_casestudies.Loan.exposure ())

(* The over-collection table of pet audit RULES: q is mentioned in a
   rule but never needed, r never mentioned. *)
let test_symbolic_over_collection () =
  let exposure =
    Result.get_ok (Pet_rules.Spec.parse "form p q r\nbenefits b\nrule b := p | (p & q)")
  in
  Alcotest.(check string) "table"
    "1 MAS over 4 valuations\n\n\
     predicate                  in MAS players needing it\n\
     p                               1                  4\n\
     q                               0                  0\n\
     r                               0                  0\n\n\
     over-collection: 2 of 3 predicates are never required by any minimized proof:\n\
    \  q, r\n"
    (Fmt.str "%a" Symbolic.pp_over_collection (Symbolic.build exposure));
  Alcotest.(check bool) "nothing over-collected" true
    (String.ends_with ~suffix:"\nevery predicate is needed by some minimized proof\n"
       (Fmt.str "%a" Symbolic.pp_over_collection (Symbolic.build (Running.exposure ()))));
  let e = Running.exposure () in
  let choice = List.hd (A1.mas_of (Engine.create e) (Total.of_string (Exposure.xp e) "011")) in
  Alcotest.(check string) "choice" "_11  proves {b1}" (Fmt.str "%a" A1.pp_choice choice)

let test_symbolic_modes () =
  (* Entail mode agrees with the enumerated Entail atlas on H-cov. *)
  let exposure = Hcov.exposure () in
  let atlas =
    Atlas.build ~mode:A1.Entail (Engine.create ~backend:Engine.Bdd exposure)
  in
  let sym = Symbolic.build ~mode:A1.Entail exposure in
  Alcotest.(check int) "entail mas count" (Atlas.mas_count atlas)
    (Symbolic.mas_count sym);
  Alcotest.(check int) "entail valuations" (Atlas.player_count atlas)
    (Symbolic.valuation_count sym);
  Alcotest.(check bool) "exact rejected" true
    (match Symbolic.build ~mode:A1.Exact exposure with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_atlas_size_guard () =
  let exposure =
    Pet_rules.Generate.exposure
      ~config:
        { Pet_rules.Generate.default with Pet_rules.Generate.predicates = 25 }
      ~seed:1 ()
  in
  Alcotest.(check bool) "enumeration refused" true
    (match Atlas.build (Engine.create ~backend:Engine.Bdd exposure) with
    | exception Invalid_argument m ->
      String.length m > 0
      && String.sub m 0 11 = "Atlas.build"
    | _ -> false);
  (* The symbolic path handles the same form. *)
  Alcotest.(check bool) "symbolic handles it" true
    (Symbolic.mas_count (Symbolic.build exposure) >= 0)

let test_symbolic_equilibrium () =
  (* The bloc variant reproduces the explicit Algorithm 2 crowds on the
     case studies where dominance drives every commitment... *)
  List.iter
    (fun exposure ->
      let atlas = Atlas.build (Engine.create ~backend:Engine.Bdd exposure) in
      let profile =
        Pet_game.Strategy.compute ~payoff:Pet_game.Payoff.Sm atlas
      in
      let explicit =
        List.init (Atlas.mas_count atlas) (fun m ->
            Pet_game.Profile.crowd_size profile m)
      in
      let eq = Symbolic.equilibrium (Symbolic.build exposure) in
      Alcotest.(check (list int)) "crowds" explicit eq.Symbolic.crowds;
      Alcotest.(check bool) "nash" true eq.Symbolic.nash)
    [ Running.exposure (); Hcov.exposure (); Pet_casestudies.Loan.exposure () ];
  (* ...and on RSA it may settle on a different — but still Nash —
     equilibrium; total play is conserved either way. *)
  let sym = Symbolic.build (Pet_casestudies.Rsa.exposure ()) in
  let eq = Symbolic.equilibrium sym in
  Alcotest.(check bool) "rsa nash" true eq.Symbolic.nash;
  Alcotest.(check int) "rsa conservation" (Symbolic.valuation_count sym)
    (List.fold_left ( + ) 0 eq.Symbolic.crowds)

let test_symbolic_scales () =
  (* A 32-predicate random problem: far beyond enumeration. *)
  let exposure =
    Pet_rules.Generate.exposure
      ~config:
        { Pet_rules.Generate.default with
          Pet_rules.Generate.predicates = 32;
          benefits = 3;
        }
      ~seed:42 ()
  in
  let sym = Symbolic.build exposure in
  Alcotest.(check bool) "has MAS" true (Symbolic.mas_count sym > 0);
  Alcotest.(check bool) "beyond enumeration" true
    (Symbolic.valuation_count sym > 1_000_000);
  (* The equilibrium is computable at this scale too, and play is
     conserved. *)
  let eq = Symbolic.equilibrium sym in
  Alcotest.(check int) "conservation" (Symbolic.valuation_count sym)
    (List.fold_left ( + ) 0 eq.Symbolic.crowds)

let prop_symbolic_matches_atlas =
  QCheck2.Test.make ~count:100
    ~name:"symbolic statistics equal the enumerated atlas"
    ~print:print_problem gen_problem (fun fs ->
      let e = make_problem fs in
      let atlas = Atlas.build (Engine.create ~backend:Engine.Bdd e) in
      let sym = Symbolic.build e in
      Atlas.mas_count atlas = Symbolic.mas_count sym
      && Atlas.player_count atlas = Symbolic.valuation_count sym
      && Atlas.choice_distribution atlas = Symbolic.choice_distribution sym
      && List.for_all2
           (fun i (s : Symbolic.mas_stats) ->
             let c = Atlas.mas atlas i in
             Partial.equal c.A1.mas s.Symbolic.mas
             && List.length (Atlas.players_of_mas atlas i) = s.Symbolic.potential
             && List.length (Atlas.forced_players_of_mas atlas i)
                = s.Symbolic.forced)
           (List.init (Atlas.mas_count atlas) Fun.id)
           (Symbolic.stats sym))

(* --- Lattice & DOT (Figure 1 / Figure 2) -------------------------------------- *)

let test_lattice_matches_figure1 () =
  let atlas = Atlas.build (running_engine ()) in
  let lattice = Lattice.build atlas in
  let nodes =
    List.sort String.compare
      (List.map
         (fun (n : Lattice.node) -> Partial.to_string n.Lattice.w)
         lattice.Lattice.nodes)
  in
  (* Exactly the eleven nodes drawn in Figure 1. *)
  Alcotest.(check (list string)) "figure 1 nodes"
    (List.sort String.compare
       [
         "111"; "011"; "110"; "101"; "100"; "_11"; "1__"; "11_"; "1_1"; "1_0";
         "10_";
       ])
    nodes;
  let kind s =
    match
      Lattice.node_of lattice
        (Partial.of_string (Universe.of_names [ "p1"; "p2"; "p3" ]) s)
    with
    | Some n -> n.Lattice.kind
    | None -> Alcotest.fail ("missing node " ^ s)
  in
  Alcotest.(check bool) "_11 is MAS" true (kind "_11" = Lattice.Mas);
  Alcotest.(check bool) "11_ is gray" true (kind "11_" = Lattice.Accurate);
  Alcotest.(check bool) "111 is valuation" true
    (kind "111" = Lattice.Valuation);
  Alcotest.(check bool) "100 is MAS" true (kind "100" = Lattice.Mas);
  (* Edge spot checks from Figure 1. *)
  let edge a b =
    List.exists
      (fun (x, y) ->
        Partial.to_string x = a && Partial.to_string y = b)
      lattice.Lattice.edges
  in
  Alcotest.(check bool) "1__ -> 11_" true (edge "1__" "11_");
  Alcotest.(check bool) "11_ -> 111" true (edge "11_" "111");
  Alcotest.(check bool) "_11 -> 011" true (edge "_11" "011");
  Alcotest.(check bool) "_11 -> 111" true (edge "_11" "111");
  Alcotest.(check bool) "1_0 -> 110" true (edge "1_0" "110");
  Alcotest.(check bool) "10_ -> 101" true (edge "10_" "101");
  (* "100 has no accurate subvaluations other than itself". *)
  Alcotest.(check bool) "nothing -> 100" false
    (List.exists
       (fun (_, y) -> Partial.to_string y = "100")
       lattice.Lattice.edges)

let test_figure2_component () =
  let atlas = Atlas.build (running_engine ()) in
  let players, mas = Dot.component atlas (total "111") in
  Alcotest.(check (list string)) "component players" [ "011"; "111" ]
    (List.map (fun i -> Total.to_string (Atlas.player atlas i)) players);
  Alcotest.(check (list string)) "component mas" [ "_11"; "1__" ]
    (List.map
       (fun i -> Partial.to_string (Atlas.mas atlas i).A1.mas)
       mas)

let test_dot_outputs () =
  let atlas = Atlas.build (running_engine ()) in
  let contains haystack needle =
    let nh = String.length haystack and nn = String.length needle in
    let rec go i =
      i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1))
    in
    go 0
  in
  let dot1 = Dot.lattice (Lattice.build atlas) in
  Alcotest.(check bool) "digraph" true (contains dot1 "digraph");
  Alcotest.(check bool) "MAS styled bold" true
    (contains dot1 "\"_11\" [label=\"_11\\n{b1}\", style=bold]");
  let dot2 = Dot.choices atlas (total "111") in
  Alcotest.(check bool) "edge _11 -> 111" true
    (contains dot2 "\"_11\" -> \"111\"");
  Alcotest.(check bool) "edge _11 -> 011" true
    (contains dot2 "\"_11\" -> \"011\"");
  Alcotest.(check bool) "not a player" true
    (match Dot.choices atlas (total "000") with
    | exception Invalid_argument _ -> true
    | _ -> false)

let () =
  let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests) in
  Alcotest.run "pet_minimize"
    [
      ( "algorithm1",
        [
          Alcotest.test_case "running example MAS" `Quick
            test_mas_running_example;
          Alcotest.test_case "benefit sets" `Quick test_mas_benefit_sets;
          Alcotest.test_case "exact mode agrees" `Quick
            test_exact_mode_agrees_without_constraints;
          Alcotest.test_case "is_accurate" `Quick test_is_accurate;
          Alcotest.test_case "unrealistic rejected" `Quick
            test_unrealistic_rejected;
          Alcotest.test_case "potential players" `Quick test_potential_players;
          Alcotest.test_case "chain closure" `Quick test_chain_close;
          Alcotest.test_case "closure laws" `Quick
            test_chain_close_idempotent_monotone;
          Alcotest.test_case "mas_of matches the list-based reference" `Slow
            test_mas_of_matches_reference;
        ] );
      ( "atlas",
        [
          Alcotest.test_case "running example" `Quick test_atlas_running;
          Alcotest.test_case "matches the per-valuation reference" `Slow
            test_atlas_matches_reference;
          Alcotest.test_case "exact mode matches the reference" `Slow
            test_atlas_matches_reference_exact;
          Alcotest.test_case "algorithm 1 once per key" `Quick
            test_atlas_runs_algorithm1_per_key;
          Alcotest.test_case "provider build forces no minor collection"
            `Quick test_provider_forces_no_minor_gc;
          Alcotest.test_case "provider build leaves no major-heap garbage"
            `Quick test_provider_leaves_no_major_garbage;
          Alcotest.test_case "Algorithm 2 on provider forms pinned" `Quick
            test_provider_profiles_pinned;
          Alcotest.test_case "scratch: builds of alternating sizes" `Quick
            test_scratch_alternating_sizes;
          Alcotest.test_case "scratch: two domains at once" `Quick
            test_scratch_two_domains;
          Alcotest.test_case "resident words per player" `Quick
            test_resident_words_per_player;
          Alcotest.test_case "cells reject values outside 31 bits" `Quick
            test_cells_range;
        ] );
      ( "baseline",
        [
          Alcotest.test_case "hcov overestimate" `Quick
            test_baseline_hcov_overestimates;
        ] );
      ( "symbolic",
        [
          Alcotest.test_case "case studies agree" `Quick
            test_symbolic_casestudies;
          Alcotest.test_case "modes" `Quick test_symbolic_modes;
          Alcotest.test_case "equilibrium" `Quick test_symbolic_equilibrium;
          Alcotest.test_case "atlas size guard" `Quick test_atlas_size_guard;
          Alcotest.test_case "scales to 32 predicates" `Quick
            test_symbolic_scales;
          Alcotest.test_case "over-collection table" `Quick test_symbolic_over_collection;
        ] );
      ( "figures",
        [
          Alcotest.test_case "figure 1 lattice" `Quick
            test_lattice_matches_figure1;
          Alcotest.test_case "figure 2 component" `Quick test_figure2_component;
          Alcotest.test_case "dot outputs" `Quick test_dot_outputs;
        ] );
      qsuite "properties"
        [
          prop_mas_are_accurate;
          prop_mas_incomparable;
          prop_exact_minimal;
          prop_every_accurate_covers_a_mas;
          prop_baseline_proves_benefits;
          prop_chain_mas_no_bigger_than_baseline_plus_closure;
          prop_symbolic_matches_atlas;
        ];
    ]
