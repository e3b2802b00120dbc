module Universe = Pet_valuation.Universe
module Total = Pet_valuation.Total
module Partial = Pet_valuation.Partial
module Exposure = Pet_rules.Exposure
module Engine = Pet_rules.Engine
module A1 = Pet_minimize.Algorithm1
module Atlas = Pet_minimize.Atlas
module Profile = Pet_game.Profile
module Payoff = Pet_game.Payoff
module Strategy = Pet_game.Strategy

let default_samples = 32
let default_brute_blank_cap = 12
let default_brute_atlas_cap = 10

(* --- Sampling ------------------------------------------------------------------ *)

(* Partial valuations to probe the proof relation on: half are random
   words over {_, 0, 1} (often inconsistent with R_ADD, exercising the
   vacuous-entailment path), half are realistic totals with a few
   positions blanked (the shapes Algorithm 1 actually asks about). *)
let sample_partials e ~seed ~count =
  let xp = Exposure.xp e in
  let n = Universe.size xp in
  let rng = Random.State.make [| 0x5e3d; seed; n; count |] in
  let realistic = Array.of_list (Exposure.realistic e) in
  let random_partial () =
    List.fold_left
      (fun w i ->
        match Random.State.int rng 3 with
        | 0 -> w
        | b -> Partial.set w (Universe.name xp i) (b = 2))
      (Partial.empty xp) (List.init n Fun.id)
  in
  let blanked_total () =
    if Array.length realistic = 0 then random_partial ()
    else begin
      let v = realistic.(Random.State.int rng (Array.length realistic)) in
      let blanks = Random.State.int rng (min n default_brute_blank_cap + 1) in
      let w = ref (Partial.of_total v) in
      for _ = 1 to blanks do
        w := Partial.unset !w (Universe.name xp (Random.State.int rng n))
      done;
      !w
    end
  in
  Partial.empty xp
  :: List.init count (fun i ->
         if i mod 2 = 0 then blanked_total () else random_partial ())

(* --- Proof-relation differential ----------------------------------------------- *)

let bools = Fmt.(list ~sep:(any ", ") (pair ~sep:(any "=") string bool))
let strings = Fmt.(list ~sep:(any ", ") string)

let check_entailment tally engines ~brute_blank_cap w =
  let participating =
    List.filter
      (fun engine ->
        Engine.backend engine <> Engine.Brute
        || Partial.blank_count w <= brute_blank_cap)
      engines
  in
  match participating with
  | [] | [ _ ] -> ()
  | reference :: others ->
    let ref_name = Engine.backend_name (Engine.backend reference) in
    let disagree stage render compute =
      let expected = compute reference in
      List.iter
        (fun engine ->
          let got = compute engine in
          Finding.check tally ~stage (got = expected) (fun () ->
              Fmt.str "%s on %a: %s says %s, %s says %s"
                stage Partial.pp w ref_name (render expected)
                (Engine.backend_name (Engine.backend engine))
                (render got)))
        others
    in
    disagree "diff/consistent" string_of_bool (fun e -> Engine.consistent e w);
    (* The benefit names and the word-level mask Algorithm 1 filters
       on, together: one check per partial valuation. On a partial
       inconsistent with R every benefit is entailed vacuously, in both. *)
    disagree "diff/benefits"
      (fun (names, mask) -> Fmt.str "{%a} (mask %#x)" strings names mask)
      (fun e ->
        ( Engine.benefits e w,
          Engine.benefit_mask e ~dom:(Partial.domain_mask w)
            ~bits:(Partial.bits w) ));
    disagree "diff/deduced"
      (Fmt.str "{%a}" bools)
      (fun e -> Engine.deduced_literals e w)

(* --- Atlas differential --------------------------------------------------------- *)

(* The canonical rendering compared across backends: every MAS in the
   paper's lexicographic order with its proven benefits and its
   potential/forced crowd sizes. Identical atlases imply identical
   downstream games, so this is the strongest cheap equivalence. *)
let canonical_atlas atlas =
  List.mapi
    (fun i (c : A1.choice) ->
      ( Partial.to_string c.mas,
        c.benefits,
        List.length (Atlas.players_of_mas atlas i),
        List.length (Atlas.forced_players_of_mas atlas i) ))
    (Atlas.mas_list atlas)

let render_canonical canon =
  Fmt.str "%a"
    Fmt.(
      list ~sep:(any "; ")
        (fun ppf (mas, benefits, potential, forced) ->
          Fmt.pf ppf "%s{%a}(%d/%d)" mas strings benefits potential forced))
    canon

let check_atlases tally pairs =
  match pairs with
  | [] | [ _ ] -> ()
  | (ref_engine, ref_atlas) :: others ->
    let expected = canonical_atlas ref_atlas in
    let ref_name = Engine.backend_name (Engine.backend ref_engine) in
    List.iter
      (fun (engine, atlas) ->
        let got = canonical_atlas atlas in
        Finding.check tally ~stage:"diff/atlas" (got = expected) (fun () ->
            Fmt.str "MAS atlas differs: %s has [%s], %s has [%s]" ref_name
              (render_canonical expected)
              (Engine.backend_name (Engine.backend engine))
              (render_canonical got)))
      others

(* --- Equilibrium differential ---------------------------------------------------- *)

(* With identical atlases, Algorithm 2 is deterministic, so the full
   move assignment and payoff vector must coincide backend by backend. *)
let canonical_equilibrium atlas profile payoff =
  List.init (Atlas.player_count atlas) (fun i ->
      ( Total.to_string (Atlas.player atlas i),
        Partial.to_string (Atlas.mas atlas (Profile.move_of profile i)).A1.mas,
        Payoff.of_profile profile payoff ~player:i ))

let check_equilibria tally payoff pairs =
  match pairs with
  | [] | [ _ ] -> ()
  | (ref_engine, ref_atlas) :: others ->
    let ref_name = Engine.backend_name (Engine.backend ref_engine) in
    let expected =
      canonical_equilibrium ref_atlas (Strategy.compute ~payoff ref_atlas) payoff
    in
    List.iter
      (fun (engine, atlas) ->
        let got =
          canonical_equilibrium atlas (Strategy.compute ~payoff atlas) payoff
        in
        let name = Engine.backend_name (Engine.backend engine) in
        Finding.check tally ~stage:"diff/equilibrium"
          (List.length got = List.length expected)
          (fun () ->
            Fmt.str "equilibrium population differs: %s has %d players, %s \
                     has %d"
              ref_name (List.length expected) name (List.length got));
        List.iter2
          (fun (v, move, value) (v', move', value') ->
            Finding.check tally ~stage:"diff/equilibrium"
              (v = v' && move = move' && value = value')
              (fun () ->
                Fmt.str "player %s: %s plays %s (payoff %g), %s plays %s \
                         (payoff %g)"
                  v ref_name move value name move' value'))
          (if List.length got = List.length expected then expected else [])
          (if List.length got = List.length expected then got else []))
      others

(* --- Entry point ------------------------------------------------------------------ *)

let check ?(payoff = Payoff.Blank) ?(samples = default_samples) ?(seed = 0)
    ?(brute_blank_cap = default_brute_blank_cap)
    ?(brute_atlas_cap = default_brute_atlas_cap) e =
  let tally = Finding.tally () in
  let engines =
    List.map (fun backend -> Engine.create ~backend e) Engine.all_backends
  in
  (* 1. The proof relation, pointwise on sampled partial valuations. *)
  List.iter
    (check_entailment tally engines ~brute_blank_cap)
    (sample_partials e ~seed ~count:samples);
  (* 2. The full MAS atlas, as a canonicalized set. The brute backend
     joins only on universes small enough to enumerate against. *)
  let n = Universe.size (Exposure.xp e) in
  let atlas_engines =
    List.filter
      (fun engine ->
        Engine.backend engine <> Engine.Brute || n <= brute_atlas_cap)
      engines
  in
  let pairs =
    List.map (fun engine -> (engine, Atlas.build engine)) atlas_engines
  in
  check_atlases tally pairs;
  (* 3. The Algorithm 2 equilibrium computed on each backend's atlas. *)
  check_equilibria tally payoff pairs;
  (* Probe the proof relation on the MAS themselves: the exact partial
     valuations the service publishes. *)
  (match pairs with
  | (_, atlas) :: _ ->
    List.iter
      (fun (c : A1.choice) ->
        check_entailment tally engines ~brute_blank_cap c.A1.mas)
      (Atlas.mas_list atlas)
  | [] -> ());
  Finding.report tally
