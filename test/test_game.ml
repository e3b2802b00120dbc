(* Tests for the game-theoretic layer: payoffs (Section 4.2), Algorithm 2
   and its equilibrium property (Theorem 4.6), attacker deduction, and
   the solidarity extension. *)

module F = Pet_logic.Formula
module Universe = Pet_valuation.Universe
module Total = Pet_valuation.Total
module Partial = Pet_valuation.Partial
module Rule = Pet_rules.Rule
module Exposure = Pet_rules.Exposure
module Engine = Pet_rules.Engine
module A1 = Pet_minimize.Algorithm1
module Atlas = Pet_minimize.Atlas
module Profile = Pet_game.Profile
module Payoff = Pet_game.Payoff
module Strategy = Pet_game.Strategy
module Equilibrium = Pet_game.Equilibrium
module Deduction = Pet_game.Deduction
module Solidarity = Pet_game.Solidarity
module Running = Pet_casestudies.Running

let u3 = Universe.of_names [ "p1"; "p2"; "p3" ]

let running_atlas () =
  Atlas.build (Engine.create ~backend:Engine.Bdd (Running.exposure ()))

let mas_index atlas s =
  Option.get (Atlas.find_mas atlas (Partial.of_string u3 s))

let player_index atlas s =
  Option.get (Atlas.find_player atlas (Total.of_string u3 s))

(* --- Payoffs: the paper's running-example values (Section 4.2) ------------- *)

let test_po_values_running () =
  let atlas = running_atlas () in
  let profile = Strategy.compute atlas in
  let value kind s =
    let m = mas_index atlas s in
    Payoff.value atlas kind ~mas:m ~crowd:(Profile.crowd profile m)
  in
  (* PO_blank(111,_11) = PO_blank(011,_11) = 1; PO_SM likewise = 1. *)
  Alcotest.(check (float 0.)) "PO_blank(_11)" 1. (value Payoff.Blank "_11");
  Alcotest.(check (float 0.)) "PO_SM(_11)" 1. (value Payoff.Sm "_11");
  (* All forced single-player moves have payoff 0. *)
  List.iter
    (fun s ->
      Alcotest.(check (float 0.)) ("PO_blank " ^ s) 0. (value Payoff.Blank s);
      Alcotest.(check (float 0.)) ("PO_SM " ^ s) 0. (value Payoff.Sm s))
    [ "1_0"; "10_"; "100" ]

let test_po_blank_hypothetical_move () =
  let atlas = running_atlas () in
  (* If 111 played 1__ alone: the attacker deduces p2 = p3 = 1, payoff 0
     (the paper's "Players and choices" example). *)
  let m = mas_index atlas "1__" in
  let crowd = [ player_index atlas "111" ] in
  Alcotest.(check (float 0.)) "PO_blank(111,1__)" 0.
    (Payoff.value atlas Payoff.Blank ~mas:m ~crowd);
  Alcotest.(check (list (pair string bool))) "deduced p2 p3"
    [ ("p2", true); ("p3", true) ]
    (Payoff.deduced_blanks atlas ~mas:m ~crowd);
  Alcotest.(check (list string)) "nothing protected" []
    (Payoff.undeducible_blanks atlas ~mas:m ~crowd)

let test_po_empty_crowd () =
  let atlas = running_atlas () in
  let m = mas_index atlas "_11" in
  Alcotest.(check (float 0.)) "SM empty" 0.
    (Payoff.value atlas Payoff.Sm ~mas:m ~crowd:[]);
  Alcotest.(check (float 0.)) "blank empty" 0.
    (Payoff.value atlas Payoff.Blank ~mas:m ~crowd:[]);
  Alcotest.(check (list (pair string bool))) "no deduction" []
    (Payoff.deduced_blanks atlas ~mas:m ~crowd:[])

let test_weight_parsing () =
  Alcotest.(check (result (pair string (float 0.)) string)) "p=w" (Ok ("p12", 5.))
    (Payoff.weight_of_string "p12=5");
  Alcotest.(check (result (pair string (float 0.)) string)) "negative"
    (Error "invalid weight in p=-1") (Payoff.weight_of_string "p=-1");
  Alcotest.(check (result (pair string (float 0.)) string)) "no equals sign"
    (Error "expected PREDICATE=WEIGHT, got p") (Payoff.weight_of_string "p");
  let u = Universe.of_names [ "a"; "b" ] in
  (match Payoff.weighted u [ ("b", 3.) ] with
  | Ok (Payoff.Weighted w) ->
    Alcotest.(check (list (float 0.))) "listed and unlisted" [ 1.; 3. ] [ w "a"; w "b" ]
  | _ -> Alcotest.fail "expected a weighted payoff");
  Alcotest.(check bool) "unknown predicate" true
    (match Payoff.weighted u [ ("c", 1.) ] with Error "unknown predicate c" -> true | _ -> false)

let test_weighted_payoff () =
  let atlas = running_atlas () in
  let m = mas_index atlas "_11" in
  let crowd = [ player_index atlas "011"; player_index atlas "111" ] in
  let weight name = if name = "p1" then 2.5 else 1.0 in
  Alcotest.(check (float 0.)) "weighted" 2.5
    (Payoff.value atlas (Payoff.Weighted weight) ~mas:m ~crowd)

(* --- Profiles ---------------------------------------------------------------- *)

let test_profile_validation () =
  let atlas = running_atlas () in
  Alcotest.(check bool) "invalid move rejected" true
    (match
       (* give everyone the first MAS, which most cannot play *)
       Profile.make atlas (Array.make (Atlas.player_count atlas) 0)
     with
    | exception Invalid_argument _ -> true
    | _ -> false);
  Alcotest.(check bool) "one move short rejected" true
    (match
       Profile.make atlas
         (Array.init (Atlas.player_count atlas - 1) (Atlas.choice atlas 0))
     with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_profile_crowds () =
  let atlas = running_atlas () in
  let profile = Strategy.compute atlas in
  let total_crowd =
    List.init (Atlas.mas_count atlas) (fun m ->
        List.length (Profile.crowd profile m))
    |> List.fold_left ( + ) 0
  in
  Alcotest.(check int) "everyone plays exactly once"
    (Atlas.player_count atlas) total_crowd;
  let c = Profile.move_of_valuation profile (Total.of_string u3 "011") in
  Alcotest.(check string) "011 plays _11" "_11" (Partial.to_string c.A1.mas)

(* --- Algorithm 2 on the running example ---------------------------------------- *)

let test_strategy_running () =
  let atlas = running_atlas () in
  List.iter
    (fun payoff ->
      let profile = Strategy.compute ~payoff atlas in
      (* Player 111's best move is _11 regardless of the others
         (Section 4.3, "Applying the strategy"). *)
      let p111 = player_index atlas "111" in
      Alcotest.(check string)
        (Fmt.str "111 plays _11 under %a" Payoff.pp_kind payoff)
        "_11"
        (Partial.to_string (Atlas.mas atlas (Profile.move_of profile p111)).A1.mas))
    [ Payoff.Blank; Payoff.Sm ]

let test_strategy_is_nash_running () =
  let atlas = running_atlas () in
  List.iter
    (fun payoff ->
      let profile = Strategy.compute ~payoff atlas in
      Alcotest.(check bool)
        (Fmt.str "nash under %a" Payoff.pp_kind payoff)
        true
        (Equilibrium.is_nash profile payoff))
    [ Payoff.Blank; Payoff.Sm ]

let test_deviation_found () =
  let atlas = running_atlas () in
  (* Force 111 to play 1__ (payoff 0); deviating to _11 pays 1. *)
  let p111 = player_index atlas "111" in
  let m1 = mas_index atlas "1__" in
  let equilibrium = Strategy.compute atlas in
  let profile =
    Profile.make atlas
      (Array.init (Atlas.player_count atlas) (fun i ->
           if i = p111 then m1 else Profile.move_of equilibrium i))
  in
  match Equilibrium.find_improvement profile Payoff.Blank with
  | None -> Alcotest.fail "expected a profitable deviation"
  | Some d ->
    Alcotest.(check int) "deviating player" p111 d.Equilibrium.player;
    Alcotest.(check int) "to _11" (mas_index atlas "_11") d.Equilibrium.to_mas;
    Alcotest.(check (float 0.)) "current 0" 0. d.Equilibrium.current;
    Alcotest.(check (float 0.)) "deviated 1" 1. d.Equilibrium.deviated

(* --- Deduction / disclosure ------------------------------------------------------ *)

let test_disclosure_running () =
  let atlas = running_atlas () in
  let profile = Strategy.compute atlas in
  let d = Deduction.for_player profile ~player:(player_index atlas "011") in
  Alcotest.(check (list (pair string bool))) "published"
    [ ("p2", true); ("p3", true) ]
    d.Deduction.published;
  Alcotest.(check (list (pair string bool))) "nothing deduced" []
    d.Deduction.deduced;
  Alcotest.(check (list string)) "p1 protected" [ "p1" ]
    d.Deduction.protected;
  Alcotest.(check int) "crowd 2" 2 d.Deduction.crowd_size;
  (* 110's forced move reveals everything: p2 = 1 deduced. *)
  let d' = Deduction.for_player profile ~player:(player_index atlas "110") in
  Alcotest.(check (list (pair string bool))) "p2 deduced"
    [ ("p2", true) ]
    d'.Deduction.deduced;
  Alcotest.(check (list string)) "none protected" [] d'.Deduction.protected

(* A move nobody plays: 1__ has two blanks, but with no crowd nothing is
   deduced and no two players disagree, so nothing is protected either. *)
let test_disclosure_unplayed () =
  let atlas = running_atlas () in
  let profile = Strategy.compute atlas in
  let m = mas_index atlas "1__" in
  Alcotest.(check int) "1__ has two blanks" 2
    (Partial.blank_count (Atlas.mas atlas m).A1.mas);
  let d = Deduction.of_move profile ~mas:m in
  Alcotest.(check int) "nobody plays 1__" 0 d.Deduction.crowd_size;
  Alcotest.(check (list (pair string bool))) "published"
    [ ("p1", true) ]
    d.Deduction.published;
  Alcotest.(check (list (pair string bool))) "nothing deduced" []
    d.Deduction.deduced;
  Alcotest.(check (list string)) "nothing protected" [] d.Deduction.protected

let test_solidarity_none_on_running () =
  (* Every move's crowd in the running example already contains all its
     potential players, so no recruit can help. *)
  let atlas = running_atlas () in
  let profile = Strategy.compute atlas in
  List.iter
    (fun m ->
      Alcotest.(check bool)
        (Fmt.str "no improvement for MAS %d" m)
        true
        (Solidarity.improve profile ~mas:m = None))
    (List.init (Atlas.mas_count atlas) Fun.id);
  (* The coordinated plan is then empty and leaves the floor alone. *)
  let plan = Solidarity.plan profile in
  Alcotest.(check int) "no recruits" 0 plan.Solidarity.recruited;
  Alcotest.(check (float 0.)) "floor unchanged" plan.Solidarity.floor_before
    plan.Solidarity.floor_after

let test_refine_budget () =
  let atlas = running_atlas () in
  (* Start from a non-equilibrium profile; a zero budget cannot repair
     it and must report non-convergence. *)
  let p111 = player_index atlas "111" in
  let m1 = mas_index atlas "1__" in
  let equilibrium = Strategy.compute atlas in
  let profile =
    Profile.make atlas
      (Array.init (Atlas.player_count atlas) (fun i ->
           if i = p111 then m1 else Profile.move_of equilibrium i))
  in
  let refined, converged = Equilibrium.refine ~max_steps:0 profile Payoff.Blank in
  Alcotest.(check bool) "not converged" false converged;
  Alcotest.(check bool) "profile untouched" true (Profile.equal refined profile);
  (* One step suffices here. *)
  let refined, converged = Equilibrium.refine ~max_steps:2 profile Payoff.Blank in
  Alcotest.(check bool) "converged" true converged;
  Alcotest.(check bool) "now nash" true (Equilibrium.is_nash refined Payoff.Blank)

let test_profile_unknown_valuation () =
  let atlas = running_atlas () in
  let profile = Strategy.compute atlas in
  Alcotest.(check bool) "not a player" true
    (match Profile.move_of_valuation profile (Total.of_string u3 "000") with
    | exception Not_found -> true
    | _ -> false)

(* --- Mixed strategies (future-work prototype) --------------------------------------- *)

let test_mixed_pure_degenerate () =
  let atlas = running_atlas () in
  let profile = Strategy.compute atlas in
  let mixed = Pet_game.Mixed.of_pure profile in
  (* Degenerate distributions give the exact pure payoff. *)
  let p111 = player_index atlas "111" in
  Alcotest.(check (float 0.)) "pure expectation" 1.
    (Pet_game.Mixed.expected_payoff ~seed:1 mixed ~player:p111 Payoff.Blank);
  Alcotest.(check (list (pair int (float 1e-9)))) "strategy"
    [ (Profile.move_of profile p111, 1.0) ]
    (Pet_game.Mixed.strategy mixed ~player:p111)

let test_mixed_perturb_validation () =
  let atlas = running_atlas () in
  let mixed = Pet_game.Mixed.of_pure (Strategy.compute atlas) in
  let p011 = player_index atlas "011" in
  let fails f = match f () with exception Invalid_argument _ -> true | _ -> false in
  Alcotest.(check bool) "foreign mas rejected" true
    (fails (fun () ->
         Pet_game.Mixed.perturb mixed ~player:p011
           ~mas:(mas_index atlas "1__") ~epsilon:0.5));
  Alcotest.(check bool) "bad epsilon" true
    (fails (fun () ->
         Pet_game.Mixed.perturb mixed ~player:p011
           ~mas:(mas_index atlas "_11") ~epsilon:1.5))

let test_mixed_sampling_respects_distribution () =
  let atlas = running_atlas () in
  let mixed = Pet_game.Mixed.of_pure (Strategy.compute atlas) in
  let p111 = player_index atlas "111" in
  let m1 = mas_index atlas "1__" in
  let mixed = Pet_game.Mixed.perturb mixed ~player:p111 ~mas:m1 ~epsilon:0.5 in
  let hits = ref 0 in
  let n = 400 in
  for seed = 0 to n - 1 do
    let profile = Pet_game.Mixed.sample ~seed mixed in
    if Profile.move_of profile p111 = m1 then incr hits
  done;
  let freq = float_of_int !hits /. float_of_int n in
  Alcotest.(check bool) "frequency near 0.5" true (freq > 0.4 && freq < 0.6);
  (* Other players keep their pure move in every sample. *)
  let p011 = player_index atlas "011" in
  let all_pure =
    List.for_all
      (fun seed ->
        Profile.move_of (Pet_game.Mixed.sample ~seed mixed) p011
        = mas_index atlas "_11")
      [ 0; 1; 2; 3; 4 ]
  in
  Alcotest.(check bool) "others stay pure" true all_pure

(* The paper's future-work claim, on H-cov: when players who *could* play
   the worst forced move occasionally do, its crowd's plausible
   deniability on p12 comes back and the expected payoff of the forced
   players rises above the deterministic 5. *)
let test_mixed_raises_forced_payoff () =
  let atlas =
    Atlas.build
      (Engine.create ~backend:Engine.Bdd (Pet_casestudies.Hcov.exposure ()))
  in
  let profile = Strategy.compute atlas in
  let m4 =
    Option.get
      (Atlas.find_mas atlas
         (Partial.of_string
            (Exposure.xp (Pet_casestudies.Hcov.exposure ()))
            "0_0_1110____"))
  in
  let forced = Atlas.forced_players_of_mas atlas m4 in
  let victim = List.hd forced in
  let base =
    Pet_game.Mixed.expected_payoff ~seed:7
      (Pet_game.Mixed.of_pure profile)
      ~player:victim Payoff.Blank
  in
  Alcotest.(check (float 0.)) "deterministic payoff is 5" 5. base;
  (* Let every potential-but-elsewhere player of m4 play it 30% of the
     time. *)
  let volunteers =
    List.filter
      (fun i -> Profile.move_of profile i <> m4)
      (Atlas.players_of_mas atlas m4)
  in
  let mixed =
    List.fold_left
      (fun acc i -> Pet_game.Mixed.perturb acc ~player:i ~mas:m4 ~epsilon:0.3)
      (Pet_game.Mixed.of_pure profile)
      volunteers
  in
  let lifted =
    Pet_game.Mixed.expected_payoff ~samples:100 ~seed:7 mixed ~player:victim
      Payoff.Blank
  in
  Alcotest.(check bool)
    (Fmt.str "expected payoff rises (%.3f > 5)" lifted)
    true (lifted > 5.5)

(* --- Random-problem equilibrium property ------------------------------------------ *)

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

let atlas_of (f1, f2) =
  let xp = Universe.of_names [ "p1"; "p2"; "p3"; "p4" ] in
  let xb = Universe.of_names [ "b1"; "b2" ] in
  let e =
    Exposure.create ~xp ~xb
      ~rules:
        [ Rule.of_formula ~benefit:"b1" f1; Rule.of_formula ~benefit:"b2" f2 ]
      ()
  in
  Atlas.build (Engine.create ~backend:Engine.Bdd e)

let print_problem (f1, f2) = Fmt.str "b1:=%a b2:=%a" F.pp f1 F.pp f2

(* Theorem 4.6 as stated does not survive adversarial instances: a player
   committed by Algorithm 2 against the crowds-so-far can regret the move
   once later players pile elsewhere (see EXPERIMENTS.md). The refined
   profile — Algorithm 2 followed by best-response dynamics — is the
   testable equilibrium claim. *)
let prop_refined_strategy_is_nash =
  QCheck2.Test.make ~count:120
    ~name:"Algorithm 2 + best-response refinement reaches a Nash equilibrium"
    ~print:print_problem gen_problem (fun fs ->
      let atlas = atlas_of fs in
      Atlas.player_count atlas = 0
      || List.for_all
           (fun payoff ->
             let profile = Strategy.compute ~payoff atlas in
             let refined, converged = Equilibrium.refine profile payoff in
             converged && Equilibrium.is_nash refined payoff)
           [ Payoff.Blank; Payoff.Sm ])

let prop_forced_players_play_their_mas =
  QCheck2.Test.make ~count:120 ~name:"forced players play their single MAS"
    ~print:print_problem gen_problem (fun fs ->
      let atlas = atlas_of fs in
      Atlas.player_count atlas = 0
      ||
      let profile = Strategy.compute atlas in
      List.for_all
        (fun i ->
          match Atlas.choices_of_player atlas i with
          | [ m ] -> Profile.move_of profile i = m
          | _ -> true)
        (List.init (Atlas.player_count atlas) Fun.id))

let prop_payoff_monotone_in_crowd =
  QCheck2.Test.make ~count:120
    ~name:"payoffs are monotone when the crowd grows" ~print:print_problem
    gen_problem (fun fs ->
      let atlas = atlas_of fs in
      List.for_all
        (fun m ->
          let players = Atlas.players_of_mas atlas m in
          let rec prefixes acc = function
            | [] -> [ List.rev acc ]
            | x :: rest -> List.rev acc :: prefixes (x :: acc) rest
          in
          let values kind =
            List.map
              (fun crowd -> Payoff.value atlas kind ~mas:m ~crowd)
              (prefixes [] players)
          in
          let sorted l = List.sort compare l = l in
          sorted (values Payoff.Blank) && sorted (values Payoff.Sm))
        (List.init (Atlas.mas_count atlas) Fun.id))

(* --- Algorithm 2 against the list-rescan reference --------------------------- *)

(* The straightforward Algorithm 2 that [Strategy.compute] replaced:
   after every commit it rescans the pending list from its head for a
   dominant player, else folds over it for the deadlock pair. Θ(players²),
   so it is kept here only as the reference the incremental selection
   must match move for move. It also counts the commits made through
   each branch. *)
let reference_compute ?(payoff = Payoff.Blank) atlas =
  let nm = Atlas.mas_count atlas in
  let n = Atlas.player_count atlas in
  let universe = Exposure.xp (Engine.exposure (Atlas.engine atlas)) in
  let full = (1 lsl Universe.size universe) - 1 in
  let blank_mask =
    Array.init nm (fun m ->
        lnot (Partial.domain_mask (Atlas.mas atlas m).A1.mas) land full)
  in
  let bits = Array.init n (fun i -> Total.bits (Atlas.player atlas i)) in
  let ones = Array.make nm 0 and zeros = Array.make nm 0 in
  let count = Array.make nm 0 in
  let committed = Array.make n (-1) in
  let commit i m =
    committed.(i) <- m;
    ones.(m) <- ones.(m) lor bits.(i);
    zeros.(m) <- zeros.(m) lor (lnot bits.(i) land full);
    count.(m) <- count.(m) + 1
  in
  let score i m =
    let disagreement =
      (ones.(m) lor bits.(i))
      land (zeros.(m) lor (lnot bits.(i) land full))
      land blank_mask.(m)
    in
    match payoff with
    | Payoff.Sm -> float_of_int count.(m)
    | Payoff.Blank -> float_of_int (Universe.popcount disagreement)
    | Payoff.Weighted weight ->
      let total = ref 0. in
      List.iteri
        (fun k name ->
          if (disagreement lsr k) land 1 = 1 then
            total := !total +. weight name)
        (Universe.names universe);
      !total
  in
  let best_move i choices =
    let rec go best dominant = function
      | [] -> (best, dominant)
      | m :: rest ->
        let s = score i m in
        let bm, bs = best in
        if s > bs then go (m, s) true rest
        else if s = bs && m <> bm then go best false rest
        else go best dominant rest
    in
    match choices with
    | [] -> assert false
    | m :: rest -> go (m, score i m) true rest
  in
  let pending = ref [] in
  for i = n - 1 downto 0 do
    match Atlas.choices_of_player atlas i with
    | [ m ] -> commit i m
    | choices -> pending := (i, choices) :: !pending
  done;
  let dominant_commits = ref 0 and deadlock_commits = ref 0 in
  while !pending <> [] do
    let dominant =
      List.find_opt (fun (i, choices) -> snd (best_move i choices)) !pending
    in
    let i, m =
      match dominant with
      | Some (i, choices) ->
        incr dominant_commits;
        (i, fst (fst (best_move i choices)))
      | None ->
        incr deadlock_commits;
        let take acc (i, choices) =
          let (m, s), _ = best_move i choices in
          match acc with
          | Some (_, m', s') when s' > s || (s' = s && m' <= m) -> acc
          | _ -> Some (i, m, s)
        in
        let i, m, _ = Option.get (List.fold_left take None !pending) in
        (i, m)
    in
    commit i m;
    pending := List.filter (fun (j, _) -> j <> i) !pending
  done;
  ( Profile.make atlas committed,
    !dominant_commits,
    !deadlock_commits )

let differential_case_studies () =
  [
    ("running", Running.exposure ());
    ("hcov", Pet_casestudies.Hcov.exposure ());
    ("rsa", Pet_casestudies.Rsa.exposure ());
    ("loan", Pet_casestudies.Loan.exposure ());
  ]

let corpus_form ~size i =
  let f = Pet_corpus.Corpus.form ~seed:0 ~size i in
  (f.name, Pet_rules.Spec.parse_exn f.text)

(* Non-uniform weights whose sums depend on the order they are added in. *)
let uneven_weight name = 0.5 +. (0.3 *. float_of_int (Hashtbl.hash name mod 5))

let moves profile =
  let atlas = Profile.atlas profile in
  String.concat " "
    (List.init (Atlas.player_count atlas) (fun i ->
         string_of_int (Profile.move_of profile i)))

(* Compares every form's moves under each payoff; returns the commits the
   reference made through the dominant and the deadlock branch. *)
let check_against_reference payoffs forms =
  let atlases =
    List.map
      (fun (name, e) ->
        (name, Atlas.build (Engine.create ~backend:Engine.Bdd e)))
      forms
  in
  List.map
    (fun payoff ->
      List.fold_left
        (fun (dominant, deadlock) (name, atlas) ->
          let expected, d, k = reference_compute ~payoff atlas in
          Alcotest.(check string)
            (Fmt.str "%s under %a" name Payoff.pp_kind payoff)
            (moves expected)
            (moves (Strategy.compute ~payoff atlas));
          (dominant + d, deadlock + k))
        (0, 0) atlases)
    payoffs

let test_matches_reference () =
  let forms =
    differential_case_studies ()
    @ List.init 300 (fun i -> corpus_form ~size:(6 + (i mod 8)) i)
  in
  let payoffs = [ Payoff.Blank; Payoff.Sm; Payoff.Weighted uneven_weight ] in
  List.iter2
    (fun payoff (dominant, deadlock) ->
      Alcotest.(check bool)
        (Fmt.str "%a: %d dominant commits" Payoff.pp_kind payoff dominant)
        true (dominant > 0);
      Alcotest.(check bool)
        (Fmt.str "%a: %d deadlock commits" Payoff.pp_kind payoff deadlock)
        true (deadlock > 0))
    payoffs
    (check_against_reference payoffs forms)

(* Weights of both signs make a move's score fall as its crowd grows,
   which the incremental selection answers with a full rescan. *)
let test_matches_reference_signed_weights () =
  let signed_weight name = uneven_weight name -. 1.0 in
  ignore
    (check_against_reference
       [ Payoff.Weighted signed_weight ]
       (differential_case_studies ()
       @ List.init 40 (fun i -> corpus_form ~size:(6 + (i mod 8)) i)))

(* The reference takes about 2 s on these three, so only [Blank]. *)
let test_matches_reference_size14 () =
  ignore
    (check_against_reference [ Payoff.Blank ]
       (List.init 3 (corpus_form ~size:14)))

(* [Equilibrium.refine] as it was before steps moved one player in place:
   every step rebuilds the whole profile. The oracle for the in-place
   steps. *)
let reference_refine ~max_steps profile payoff =
  let atlas = Profile.atlas profile in
  let rec go profile steps =
    if steps >= max_steps then (profile, false)
    else
      match Equilibrium.find_improvement profile payoff with
      | None -> (profile, true)
      | Some d ->
        go
          (Profile.make atlas
             (Array.init (Atlas.player_count atlas) (fun i ->
                  if i = d.player then d.to_mas else Profile.move_of profile i)))
          (steps + 1)
  in
  go profile 0

let test_refine_matches_rebuild () =
  (* From Algorithm 2's profile (already Nash on the case studies) and
     from two that are not (every player on its first, or its last,
     choice), on the four case studies under each payoff: the same
     profile, the same verdict, and the start left untouched. The step
     budget bounds the O(players x choices) reference on RSA. *)
  let moved = ref 0 and cases = ref 0 in
  List.iter
    (fun (name, e) ->
      let atlas = Atlas.build (Engine.create ~backend:Engine.Compiled e) in
      let n = Atlas.player_count atlas in
      let pick k = Array.init n (fun i -> Atlas.choice atlas i (k i)) in
      let max_steps = min 60 (20 * n) in
      List.iter
        (fun payoff ->
          List.iter
            (fun (start_name, start) ->
              let before = moves start in
              let label =
                Fmt.str "%s, %s start, %a" name start_name Payoff.pp_kind payoff
              in
              let expected, converged = reference_refine ~max_steps start payoff in
              let refined, converged' = Equilibrium.refine ~max_steps start payoff in
              incr cases;
              if not (Profile.equal start refined) then incr moved;
              Alcotest.(check bool) (label ^ ": same profile") true
                (Profile.equal expected refined);
              Alcotest.(check bool) (label ^ ": same verdict") converged converged';
              Alcotest.(check string) (label ^ ": start untouched") before
                (moves start);
              List.iter
                (fun m ->
                  Alcotest.(check int)
                    (Fmt.str "%s: crowd of MAS %d" label m)
                    (Profile.crowd_size expected m)
                    (Profile.crowd_size refined m);
                  Alcotest.(check bool)
                    (Fmt.str "%s: aggregate of MAS %d" label m)
                    true
                    (Profile.aggregate expected m = Profile.aggregate refined m))
                (List.init (Atlas.mas_count atlas) Fun.id))
            [
              ("algorithm 2", Strategy.compute ~payoff atlas);
              ("first-choice", Profile.make atlas (pick (fun _ -> 0)));
              ( "last-choice",
                Profile.make atlas
                  (pick (fun i -> Atlas.choice_count atlas i - 1)) );
            ])
        [ Payoff.Blank; Payoff.Sm; Payoff.Weighted uneven_weight ])
    (differential_case_studies ());
  Alcotest.(check bool)
    (Printf.sprintf "%d of %d refinements took steps" !moved !cases)
    true (!moved > !cases / 3)

let () =
  let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests) in
  Alcotest.run "pet_game"
    [
      ( "payoff",
        [
          Alcotest.test_case "running example values" `Quick
            test_po_values_running;
          Alcotest.test_case "hypothetical move" `Quick
            test_po_blank_hypothetical_move;
          Alcotest.test_case "empty crowd" `Quick test_po_empty_crowd;
          Alcotest.test_case "weighted" `Quick test_weighted_payoff;
          Alcotest.test_case "weights from text" `Quick test_weight_parsing;
        ] );
      ( "profile",
        [
          Alcotest.test_case "validation" `Quick test_profile_validation;
          Alcotest.test_case "crowds" `Quick test_profile_crowds;
        ] );
      ( "strategy",
        [
          Alcotest.test_case "running example" `Quick test_strategy_running;
          Alcotest.test_case "nash" `Quick test_strategy_is_nash_running;
          Alcotest.test_case "deviation found" `Quick test_deviation_found;
          Alcotest.test_case "matches the list-rescan reference" `Slow
            test_matches_reference;
          Alcotest.test_case "matches the reference under signed weights"
            `Slow test_matches_reference_signed_weights;
          Alcotest.test_case "matches the reference on size-14 forms" `Slow
            test_matches_reference_size14;
        ] );
      ( "deduction",
        [
          Alcotest.test_case "disclosure" `Quick test_disclosure_running;
          Alcotest.test_case "unplayed move" `Quick test_disclosure_unplayed;
        ] );
      ( "solidarity-refine",
        [
          Alcotest.test_case "no improvement possible" `Quick
            test_solidarity_none_on_running;
          Alcotest.test_case "refine budget" `Quick test_refine_budget;
          Alcotest.test_case "refine matches the rebuilding reference" `Quick
            test_refine_matches_rebuild;
          Alcotest.test_case "unknown valuation" `Quick
            test_profile_unknown_valuation;
        ] );
      ( "mixed",
        [
          Alcotest.test_case "pure is degenerate" `Quick
            test_mixed_pure_degenerate;
          Alcotest.test_case "perturb validation" `Quick
            test_mixed_perturb_validation;
          Alcotest.test_case "sampling distribution" `Quick
            test_mixed_sampling_respects_distribution;
          Alcotest.test_case "raises forced payoff" `Slow
            test_mixed_raises_forced_payoff;
        ] );
      qsuite "properties"
        [
          prop_refined_strategy_is_nash;
          prop_forced_players_play_their_mas;
          prop_payoff_monotone_in_crowd;
        ];
    ]
