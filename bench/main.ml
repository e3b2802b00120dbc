(* The benchmark harness: regenerates every table and figure of the
   paper's evaluation (Section 5), runs the ablations described in
   DESIGN.md, and measures timings with bechamel.

   Usage: dune exec bench/main.exe [-- SECTION ...]
   Sections: tables figures solidarity ablations timings sweep provider
   symbolic server tenants obs store audit check all (default: all). *)

module Universe = Pet_valuation.Universe
module Total = Pet_valuation.Total
module Partial = Pet_valuation.Partial
module Exposure = Pet_rules.Exposure
module Engine = Pet_rules.Engine
module A1 = Pet_minimize.Algorithm1
module Atlas = Pet_minimize.Atlas
module Baseline = Pet_minimize.Baseline
module Lattice = Pet_minimize.Lattice
module Dot = Pet_minimize.Dot
module Profile = Pet_game.Profile
module Payoff = Pet_game.Payoff
module Strategy = Pet_game.Strategy
module Equilibrium = Pet_game.Equilibrium
module Solidarity = Pet_game.Solidarity

let section title =
  Fmt.pr "@.==========================================================@.";
  Fmt.pr "== %s@." title;
  Fmt.pr "==========================================================@."

let hcov = lazy (Pet_casestudies.Hcov.exposure ())
let rsa = lazy (Pet_casestudies.Rsa.exposure ())
let running = lazy (Pet_casestudies.Running.exposure ())

let atlas_of exposure = Atlas.build (Engine.create ~backend:Engine.Bdd exposure)

let hcov_atlas = lazy (atlas_of (Lazy.force hcov))
let rsa_atlas = lazy (atlas_of (Lazy.force rsa))
let running_atlas = lazy (atlas_of (Lazy.force running))

(* Wall clock: CPU time leaves out time spent blocked, such as an
   fsync's wait. *)
let time_once f =
  let t0 = Unix.gettimeofday () in
  let result = f () in
  (result, Unix.gettimeofday () -. t0)

(* --- Table 1: the H-cov encoding -------------------------------------------- *)

let table1 () =
  section "Table 1: predicates and rules for H-cov";
  List.iter
    (fun (name, description) -> Fmt.pr "%-4s %s@." name description)
    Pet_casestudies.Hcov.predicates;
  Fmt.pr "@.%a@." Pet_rules.Spec.print (Lazy.force hcov);
  Fmt.pr
    "(the constraint p10 -> !p1 & !p3 is the calibration rule Table 1 \
     omits; see EXPERIMENTS.md)@."

(* --- Table 2: MAS eligible in H-cov and RSA ----------------------------------- *)

let table2 () =
  section "Table 2: MAS eligible in H-cov and RSA";
  let describe name atlas paper =
    Fmt.pr "--- %s ---@.%a" name Atlas.pp_summary atlas;
    Fmt.pr "(paper: %s)@.@." paper
  in
  describe "H-cov" (Lazy.force hcov_atlas)
    "6 MAS; 1560 valuations; 2 to 6 predicates; 1272/280/8 with 1/2/3 MAS \
     -- exact match";
  describe "RSA (synthetic encoding)" (Lazy.force rsa_atlas)
    "24 MAS; 1296 valuations; 9 to 13 predicates; 368/526/144/172/66/14/6 \
     with 1/2/3/4/6/8/12 MAS -- shape reproduction, see EXPERIMENTS.md"

(* --- Tables 3 and 4: payoffs per MAS -------------------------------------------- *)

(* The paper's PO_SM column prints crowd sizes k (Definition 4.5's payoff
   is k - 1); we print k to mirror the table layout. *)
let payoff_table atlas =
  let profile = Strategy.compute ~payoff:Payoff.Blank atlas in
  Fmt.pr "%-20s| %8s | %17s | %12s@." "MAS" "players" "PO_SM" "PO_blank";
  for m = 0 to Atlas.mas_count atlas - 1 do
    let potential = Atlas.players_of_mas atlas m in
    let forced = Atlas.forced_players_of_mas atlas m in
    let crowd = Profile.aggregate profile m in
    let blank c = Payoff.value atlas Payoff.Blank ~mas:m ~crowd:c in
    Fmt.pr "%-20s| %8d | %5d (%4d,%5d) | %3.0f (%2.0f,%2.0f)@."
      (Partial.to_string (Atlas.mas atlas m).A1.mas)
      (List.length potential) crowd.count (List.length forced)
      (List.length potential)
      (Payoff.of_crowd atlas Payoff.Blanks ~mas:m crowd)
      (blank forced) (blank potential)
  done;
  profile

let minimization_ratio atlas profile =
  let n = Atlas.player_count atlas in
  let xp_size = Universe.size (Partial.universe (Atlas.mas atlas 0).A1.mas) in
  let blanks =
    List.fold_left
      (fun acc i ->
        acc + Partial.blank_count (Atlas.mas atlas (Profile.move_of profile i)).A1.mas)
      0 (List.init n Fun.id)
  in
  100. *. float_of_int blanks /. float_of_int (n * xp_size)

let table3 () =
  section "Table 3: the payoffs for the selected MAS (H-cov)";
  let atlas = Lazy.force hcov_atlas in
  let profile = payoff_table atlas in
  Fmt.pr "@.paper rows (players | PO_SM | PO_blank):@.";
  List.iter (Fmt.pr "  %s@.")
    [
      "0__________1 | 1024 | 1024 (744,1024) | 10 (10,10)";
      "0_0__1___11_ |  128 |   64 (56,128)   |  6 (6,7)";
      "0_0_10__1___ |  128 |   64 (64,128)   |  6 (6,7)";
      "0_0_1110____ |   64 |   24 (24,64)    |  5 (5,6)";
      "0_110_______ |  256 |  128 (128,256)  |  7 (7,8)";
      "110_0_______ |  256 |  256 (256,256)  |  8 (8,8)";
    ];
  Fmt.pr "@.average minimization: %.1f%% of predicates removed (paper: over 70%%)@."
    (minimization_ratio atlas profile);
  Fmt.pr "equilibrium is Nash: %b@."
    (Equilibrium.is_nash profile Payoff.Blank)

let table4 () =
  section "Table 4: the payoffs for the selected MAS (RSA, synthetic)";
  let atlas = Lazy.force rsa_atlas in
  let profile = payoff_table atlas in
  Fmt.pr
    "@.(the paper's 24 rows come from its unpublished rule set; this \
     synthetic encoding reproduces the shape -- see EXPERIMENTS.md)@.";
  Fmt.pr "average minimization: %.1f%% of predicates removed (paper: ~30%%)@."
    (minimization_ratio atlas profile);
  let refined, converged = Equilibrium.refine profile Payoff.Blank in
  Fmt.pr "Algorithm 2 alone is Nash: %b; after best-response refinement: %b@."
    (Equilibrium.is_nash profile Payoff.Blank)
    (converged && Equilibrium.is_nash refined Payoff.Blank)

(* --- Figures ------------------------------------------------------------------------ *)

let figures () =
  section "Figure 1: the accurate-subvaluation digraph (running example)";
  let atlas = Lazy.force running_atlas in
  let lattice = Lattice.build atlas in
  Fmt.pr "%a@." Lattice.pp lattice;
  Fmt.pr "--- DOT ---@.%s@." (Dot.lattice lattice);
  section "Figure 2: the choices of user u_111";
  let u3 = Exposure.xp (Lazy.force running) in
  let v111 = Total.of_string u3 "111" in
  let players, mas = Dot.component atlas v111 in
  Fmt.pr "component players: %a@."
    Fmt.(list ~sep:sp string)
    (List.map (fun i -> Total.to_string (Atlas.player atlas i)) players);
  Fmt.pr "component MAS: %a@."
    Fmt.(list ~sep:sp string)
    (List.map (fun i -> Partial.to_string (Atlas.mas atlas i).A1.mas) mas);
  Fmt.pr "--- DOT ---@.%s@." (Dot.choices atlas v111)

(* --- Solidarity (Section 7) ----------------------------------------------------------- *)

let solidarity () =
  section "Solidarity (Section 7, future work): H-cov";
  let atlas = Lazy.force hcov_atlas in
  let profile = Strategy.compute atlas in
  for m = 0 to Atlas.mas_count atlas - 1 do
    match Solidarity.improve ~max_recruits:1 profile ~mas:m with
    | Some r ->
      Fmt.pr "%s: %a@."
        (Partial.to_string (Atlas.mas atlas m).A1.mas)
        Solidarity.pp r;
      List.iter
        (fun (rec_ : Solidarity.recruit) ->
          Fmt.pr "    volunteer %s moves from %s (their PO_blank %.0f -> %.0f)@."
            (Total.to_string (Atlas.player atlas rec_.Solidarity.player))
            (Partial.to_string
               (Atlas.mas atlas rec_.Solidarity.previous_mas).A1.mas)
            rec_.Solidarity.previous_payoff rec_.Solidarity.new_payoff)
        r.Solidarity.recruits
    | None -> ()
  done;
  Fmt.pr
    "(paper: one extra player lifts MAS 0_0_1110____ from PO_blank 5 to 6 \
     for its 24 forced players)@.";
  let plan = Solidarity.plan ~budget:4 profile in
  Fmt.pr
    "@.coordinated plan (budget 4 volunteers): floor PO_blank %.0f -> %.0f \
     in %d step(s), %d volunteer(s) moved@."
    plan.Solidarity.floor_before plan.Solidarity.floor_after
    (List.length plan.Solidarity.steps)
    plan.Solidarity.recruited;
  (* Probabilistic variant (the mixed-strategy prototype): potential
     players of the worst move play it 30% of the time. *)
  let m4 =
    Option.get
      (Atlas.find_mas atlas
         (Partial.of_string
            (Exposure.xp (Lazy.force hcov))
            "0_0_1110____"))
  in
  let victim = List.hd (Atlas.forced_players_of_mas atlas m4) in
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
  Fmt.pr
    "probabilistic variant: each of the %d potential players mixes 30%% \
     onto the worst move; a forced player's expected PO_blank: 5 -> %.2f@."
    (List.length volunteers)
    (Pet_game.Mixed.expected_payoff ~samples:100 ~seed:7 mixed ~player:victim
       Payoff.Blank)

(* --- Ablations -------------------------------------------------------------------------- *)

let mode_name = function
  | A1.Chain -> "chain (paper)"
  | A1.Entail -> "entail"
  | A1.Exact -> "exact"

let ablation_modes () =
  section "Ablation: MAS closure modes (chain / entail / exact)";
  let study name exposure sample =
    let engine = Engine.create ~backend:Engine.Bdd exposure in
    let population = Exposure.eligible exposure in
    let population =
      match sample with
      | None -> population
      | Some k -> List.filteri (fun i _ -> i < k) population
    in
    Fmt.pr "--- %s (%d applicants) ---@." name (List.length population);
    List.iter
      (fun mode ->
        let (distinct, total_domain, count), dt =
          time_once (fun () ->
              List.fold_left
                (fun (distinct, total_domain, count) v ->
                  let mas = A1.mas_of ~mode engine v in
                  let distinct =
                    List.fold_left
                      (fun acc (c : A1.choice) ->
                        if List.exists (Partial.equal c.A1.mas) acc then acc
                        else c.A1.mas :: acc)
                      distinct mas
                  in
                  ( distinct,
                    total_domain
                    + List.fold_left
                        (fun a (c : A1.choice) ->
                          a + Partial.domain_size c.A1.mas)
                        0 mas,
                    count + List.length mas ))
                ([], 0, 0) population)
        in
        Fmt.pr
          "%-14s %3d distinct MAS, %.2f predicates per MAS on average, %.3fs@."
          (mode_name mode) (List.length distinct)
          (float_of_int total_domain /. float_of_int (max 1 count))
          dt)
      [ A1.Chain; A1.Entail; A1.Exact ]
  in
  study "running example" (Lazy.force running) None;
  study "H-cov (sample)" (Lazy.force hcov) (Some 100);
  Fmt.pr
    "(all three modes are privacy-equivalent; exact MAS are smaller \
     because the closure literals an attacker deduces anyway are left \
     implicit)@."

let ablation_baseline () =
  section "Ablation: PST-2012 baseline vs Algorithm 1 (H-cov population)";
  let exposure = Lazy.force hcov in
  let atlas = Lazy.force hcov_atlas in
  let engine = Atlas.engine atlas in
  let profile = Strategy.compute atlas in
  let population = Exposure.eligible exposure in
  let claimed, leaked, achieved, n =
    List.fold_left
      (fun (claimed, leaked, achieved, n) v ->
        let r = Baseline.minimize engine v in
        let mas = Profile.move_of_valuation profile v in
        let m = Option.get (Atlas.find_mas atlas mas.A1.mas) in
        let po =
          Payoff.of_crowd atlas Payoff.Blanks ~mas:m (Profile.aggregate profile m)
        in
        ( claimed + r.Baseline.claimed_blanks,
          leaked + Baseline.rule_level_leak engine r.Baseline.disclosed,
          achieved +. po,
          n + 1 ))
      (0, 0, 0., 0) population
  in
  Fmt.pr "applicants: %d@." n;
  Fmt.pr "baseline claims %.2f hidden predicates per applicant@."
    (float_of_int claimed /. float_of_int n);
  Fmt.pr
    "  of which %.2f are deducible from the rules alone (overestimated \
     privacy, the flaw of [3])@."
    (float_of_int leaked /. float_of_int n);
  Fmt.pr
    "Algorithm 1 + Algorithm 2 deliver %.2f genuinely hidden predicates \
     per applicant, with the attacker fully accounted for@."
    (achieved /. float_of_int n)

(* --- Timings (bechamel) -------------------------------------------------------------------- *)

let run_bechamel tests =
  let open Bechamel in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg =
    Benchmark.cfg ~limit:300 ~quota:(Time.second 0.5) ~kde:None
      ~stabilize:false ()
  in
  let raw = Benchmark.all cfg [ instance ] tests in
  let results = Analyze.all ols instance raw in
  let rows =
    Hashtbl.fold (fun name ols acc -> (name, ols) :: acc) results []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  List.iter
    (fun (name, ols) ->
      match Bechamel.Analyze.OLS.estimates ols with
      | Some [ ns ] when Float.is_finite ns ->
        if ns > 1e6 then Fmt.pr "%-46s %10.3f ms/run@." name (ns /. 1e6)
        else Fmt.pr "%-46s %10.1f us/run@." name (ns /. 1e3)
      | _ -> Fmt.pr "%-46s (no estimate)@." name)
    rows

let timings () =
  section "Timings (bechamel; paper: atlas = minutes in Java, payoffs = seconds)";
  let open Bechamel in
  let hcov_exposure = Lazy.force hcov in
  let xp = Exposure.xp hcov_exposure in
  let w = Partial.of_assoc xp [ ("p5", true); ("p6", true) ] in
  let engines =
    List.map
      (fun backend -> (backend, Engine.create ~backend hcov_exposure))
      [ Engine.Brute; Engine.Sat; Engine.Bdd ]
  in
  let entail_tests =
    List.map
      (fun (backend, engine) ->
        Test.make
          ~name:(Fmt.str "entailment/hcov/%a" Engine.pp_backend backend)
          (Staged.stage (fun () ->
               ignore (Engine.entails_benefit engine w "b1"))))
      engines
  in
  let hcov_engine = Engine.create ~backend:Engine.Bdd hcov_exposure in
  let rsa_engine = Engine.create ~backend:Engine.Bdd (Lazy.force rsa) in
  let alice = Pet_casestudies.Hcov.alice () in
  let rsa_applicant = Pet_casestudies.Rsa.sample_applicant () in
  let algorithm1_tests =
    [
      Test.make ~name:"algorithm1/hcov/alice"
        (Staged.stage (fun () -> ignore (A1.mas_of hcov_engine alice)));
      Test.make ~name:"algorithm1/rsa/applicant"
        (Staged.stage (fun () -> ignore (A1.mas_of rsa_engine rsa_applicant)));
    ]
  in
  let atlas_tests =
    [
      Test.make ~name:"atlas/running"
        (Staged.stage (fun () -> ignore (atlas_of (Lazy.force running))));
      Test.make ~name:"atlas/hcov"
        (Staged.stage (fun () -> ignore (atlas_of hcov_exposure)));
    ]
  in
  let strategy_tests =
    let hc = Lazy.force hcov_atlas and ra = Lazy.force rsa_atlas in
    [
      Test.make ~name:"algorithm2/hcov"
        (Staged.stage (fun () -> ignore (Strategy.compute hc)));
      Test.make ~name:"algorithm2/rsa"
        (Staged.stage (fun () -> ignore (Strategy.compute ra)));
    ]
  in
  run_bechamel
    (Test.make_grouped ~name:"pet"
       (entail_tests @ algorithm1_tests @ atlas_tests @ strategy_tests));
  (* The RSA atlas is too slow for bechamel's sampling; time it directly. *)
  let _, dt = time_once (fun () -> atlas_of (Lazy.force rsa)) in
  Fmt.pr "%-46s %10.3f ms/run (single run)@." "pet/atlas/rsa" (dt *. 1e3);
  (* Per-applicant consent-report throughput once the provider state is
     built — the serving-path cost of the PET (paper: "millions of forms
     per year"). *)
  let provider = Pet_pet.Workflow.provider ~backend:Engine.Bdd hcov_exposure in
  let count = ref 0 in
  let population = Exposure.eligible hcov_exposure in
  let _, dt =
    time_once (fun () ->
        List.iter
          (fun v ->
            match Pet_pet.Workflow.report_for provider v with
            | Ok _ -> incr count
            | Error _ -> ())
          population)
  in
  Fmt.pr "consent reports (H-cov, provider amortized): %.0f reports/s@."
    (float_of_int !count /. dt)

(* --- Scalability sweep ------------------------------------------------------------------------ *)

let sweep () =
  section "Scalability sweep: random exposure problems (atlas vs strategy)";
  Fmt.pr "%4s %6s %8s %8s %12s %12s@." "n" "MAS" "players" "choices"
    "atlas (s)" "strategy (s)";
  List.iter
    (fun n ->
      let exposure = Pet_rules.Generate.exposure ~config:{ Pet_rules.Generate.default with predicates = n } ~seed:42 () in
      let engine = Engine.create ~backend:Engine.Bdd exposure in
      let atlas, atlas_dt = time_once (fun () -> Atlas.build engine) in
      let _, strat_dt = time_once (fun () -> Strategy.compute atlas) in
      let max_choices =
        List.fold_left
          (fun acc (k, _) -> max acc k)
          0 (Atlas.choice_distribution atlas)
      in
      Fmt.pr "%4d %6d %8d %8d %12.3f %12.3f@." n (Atlas.mas_count atlas)
        (Atlas.player_count atlas) max_choices atlas_dt strat_dt)
    [ 6; 8; 10; 12; 14 ];
  (* The largest corpus forms: tens of thousands of players, where
     strategy selection that rescans every pending player per commit is
     quadratic. *)
  Fmt.pr "@.%-16s %8s %6s %12s %12s@." "corpus seed 0" "players" "MAS"
    "atlas (s)" "strategy (s)";
  List.iter
    (fun (size, i) ->
      let f = Pet_corpus.Corpus.form ~seed:0 ~size i in
      let engine =
        Engine.create ~backend:Engine.Bdd (Pet_rules.Spec.parse_exn f.text)
      in
      let atlas, atlas_dt = time_once (fun () -> Atlas.build engine) in
      let _, strat_dt = time_once (fun () -> Strategy.compute atlas) in
      Fmt.pr "%-16s %8d %6d %12.3f %12.3f@."
        (Printf.sprintf "size %d #%d" size i)
        (Atlas.player_count atlas) (Atlas.mas_count atlas) atlas_dt strat_dt)
    [ (14, 0); (14, 1); (14, 2); (16, 0); (16, 1); (16, 2) ];
  Fmt.pr
    "(the paper reports minutes for Algorithm 1 and seconds for \
     Algorithm 2 on a Java prototype; here the atlas, built once per \
     conjunction signature with Algorithm 1 on machine words, costs \
     about as much as Algorithm 2, which re-scores only the players a \
     commit touches)@."

(* --- Provider builds and the minor GC ----------------------------------------------------------- *)

(* A provider build is three stages: the engine, the atlas and
   Algorithm 2. Each is timed and its minor words and minor collections
   counted, summed over two form sets: the fleet workload's 200 tenant
   forms on the compiled backend, as [pet serve] builds them, and the
   substrate workload's 28 forms (the four case studies and 24 seed-0
   corpus forms of sizes 8 to 12, as bench/load/substrate.ml picks them)
   on the BDD backend. The atlas runs Algorithm 1 once per distinct set
   of satisfied rule conjunctions; its own row runs the same word kernel
   ([Algorithm1.mas_words]) again on one valuation per such set, so the
   atlas row includes it. A set-up regression then names its stage. The
   BDD node count after each substrate build shows that queries leave
   the compiled rule BDD as it was. In a process of several domains
   every minor collection stops them all, so a collection a provider
   build forces (DESIGN.md §5) is paid for by every domain beside it:
   the 200 fleet provider builds run last alone and beside idle domains
   blocked on a condition variable; what the idle domains cost is why
   tenant builds and group commit run on the shard domains rather than
   on domains of their own. After the stages, the words each stage's result
   keeps resident ([Obj.reachable_words]; the atlas holds its engine and
   the profile its atlas, so each row counts only what its stage adds),
   per player, so that a memory regression names its stage too. *)
let provider_gc () =
  section "Provider builds: stages, allocation and minor collections";
  let fleet =
    Array.to_list
      (Pet_corpus.Corpus.scenario ~seed:0 ~lo:8 ~hi:12 ~count:200 ())
        .Pet_corpus.Corpus.forms
    |> List.map (fun (f : Pet_corpus.Corpus.form) ->
           Pet_rules.Spec.parse_exn f.Pet_corpus.Corpus.text)
  in
  let substrate =
    List.map Lazy.force [ running; hcov ]
    @ [ Pet_casestudies.Loan.exposure (); Lazy.force rsa ]
    @ List.init 24 (fun i ->
          let f =
            Pet_corpus.Corpus.form ~seed:0 ~size:(8 + (i mod 5)) i
          in
          Pet_rules.Spec.parse_exn f.Pet_corpus.Corpus.text)
  in
  (* One eligible valuation word per set of satisfied conjunctions. *)
  let key_valuations e =
    let conjs =
      Array.concat (Array.to_list (Pet_rules.Exposure.conjunction_words e))
    in
    let seen = Hashtbl.create 64 in
    List.filter_map
      (fun v ->
        let v = Pet_valuation.Total.bits v in
        let key =
          Array.map (fun c -> Pet_compile.Code.conj_holds c v) conjs
        in
        if Hashtbl.mem seen key then None
        else begin
          Hashtbl.add seen key ();
          Some v
        end)
      (Pet_rules.Exposure.eligible e)
  in
  let bdd_nodes = Pet_obs.Metrics.gauge "pet_bdd_nodes" in
  let node_count engine =
    let was_on = Pet_obs.Metrics.enabled () in
    Pet_obs.Metrics.enable ();
    Engine.sync_obs engine;
    if not was_on then Pet_obs.Metrics.disable ();
    int_of_float (Pet_obs.Metrics.gauge_value bdd_nodes)
  in
  Fmt.pr "%-24s %-12s %10s %12s %12s@." "forms" "stage" "ms" "minor words"
    "minor GCs";
  List.iter
    (fun (label, backend, forms) ->
      (* Per stage: seconds, minor words, minor collections. *)
      let totals = Array.make_matrix 4 3 0. in
      let stage k f =
        let words = Gc.minor_words ()
        and collections = (Gc.quick_stat ()).Gc.minor_collections in
        let x, dt = time_once f in
        let t = totals.(k) in
        t.(0) <- t.(0) +. dt;
        t.(1) <- t.(1) +. (Gc.minor_words () -. words);
        t.(2) <-
          t.(2)
          +. float_of_int
               ((Gc.quick_stat ()).Gc.minor_collections - collections);
        x
      in
      let keys = List.map key_valuations forms in
      let nodes = ref [] in
      (* Resident words of the engine, the atlas and the profile, and
         the players they serve. *)
      let resident = Array.make 3 0 and players = ref 0 in
      Gc.compact ();
      List.iter2
        (fun e keys ->
          let engine = stage 0 (fun () -> Engine.create ~backend e) in
          let atlas = stage 1 (fun () -> Atlas.build engine) in
          stage 2 (fun () ->
              let mas_words = A1.mas_words engine in
              List.iter (fun v -> ignore (mas_words v ignore)) keys);
          let profile = stage 3 (fun () -> Strategy.compute atlas) in
          let words = Array.map Obj.reachable_words
              [| Obj.repr engine; Obj.repr atlas; Obj.repr profile |] in
          resident.(0) <- resident.(0) + words.(0);
          resident.(1) <- resident.(1) + words.(1) - words.(0);
          resident.(2) <- resident.(2) + words.(2) - words.(1);
          players := !players + Atlas.player_count atlas;
          if backend = Engine.Bdd then nodes := node_count engine :: !nodes)
        forms keys;
      Array.iteri
        (fun k name ->
          let t = totals.(k) in
          Fmt.pr "%-24s %-12s %10.1f %11.2fM %12.0f@."
            (Printf.sprintf "%s (%d, %s)" label (List.length forms)
               (Engine.backend_name backend))
            name (t.(0) *. 1e3) (t.(1) /. 1e6) t.(2))
        [| "engine"; "atlas"; "algorithm 1"; "algorithm 2" |];
      let per_player k = float_of_int resident.(k) /. float_of_int !players in
      Fmt.pr
        "%s resident words per player (%d players): engine %.1f, atlas \
         %.1f, profile %.1f@."
        label !players (per_player 0) (per_player 1) (per_player 2);
      if !nodes <> [] then
        Fmt.pr "BDD nodes after each %s build: %s@." label
          (String.concat " " (List.rev_map string_of_int !nodes)))
    [ ("fleet", Engine.Compiled, fleet); ("substrate", Engine.Bdd, substrate) ];
  let beside k f =
    let m = Mutex.create () and c = Condition.create () in
    let stop = ref false in
    let idle () =
      Mutex.lock m;
      while not !stop do
        Condition.wait c m
      done;
      Mutex.unlock m
    in
    let domains = List.init k (fun _ -> Domain.spawn idle) in
    let result = f () in
    Mutex.lock m;
    stop := true;
    Condition.broadcast c;
    Mutex.unlock m;
    List.iter Domain.join domains;
    result
  in
  List.iter
    (fun k ->
      let collections = (Gc.quick_stat ()).Gc.minor_collections in
      let (), dt =
        beside k (fun () ->
            time_once (fun () ->
                List.iter
                  (fun e ->
                    ignore
                      (Pet_pet.Workflow.provider ~backend:Engine.Compiled e))
                  fleet))
      in
      Fmt.pr
        "%d fleet provider builds beside %d idle domains: %.3f s, %d minor \
         collections@."
        (List.length fleet) k dt
        ((Gc.quick_stat ()).Gc.minor_collections - collections))
    [ 0; 1; 4 ]

(* --- Symbolic atlas -------------------------------------------------------------------------------- *)

let symbolic () =
  section "Symbolic atlas: Table 2/3 statistics without enumeration";
  Fmt.pr "%-10s %12s %12s %8s@." "case" "atlas (s)" "symbolic (s)" "agree";
  List.iter
    (fun (name, exposure) ->
      let atlas, atlas_dt =
        time_once (fun () ->
            Atlas.build (Engine.create ~backend:Engine.Bdd exposure))
      in
      let sym, sym_dt =
        time_once (fun () -> Pet_minimize.Symbolic.build exposure)
      in
      let agree =
        Atlas.mas_count atlas = Pet_minimize.Symbolic.mas_count sym
        && Atlas.player_count atlas
           = Pet_minimize.Symbolic.valuation_count sym
      in
      Fmt.pr "%-10s %12.3f %12.3f %8b@." name atlas_dt sym_dt agree)
    [
      ("running", Lazy.force running);
      ("hcov", Lazy.force hcov);
      ("loan", Pet_casestudies.Loan.exposure ());
      ("rsa", Lazy.force rsa);
    ];
  Fmt.pr
    "@.scaling on random 3-benefit problems (enumeration is infeasible \
     past ~22 predicates):@.";
  Fmt.pr "%4s %6s %16s %12s@." "n" "MAS" "valuations" "symbolic (s)";
  List.iter
    (fun n ->
      let exposure =
        Pet_rules.Generate.exposure
          ~config:
            { Pet_rules.Generate.default with
              Pet_rules.Generate.predicates = n;
              benefits = 3;
            }
          ~seed:42 ()
      in
      let sym, dt =
        time_once (fun () -> Pet_minimize.Symbolic.build exposure)
      in
      let max_choices =
        List.fold_left
          (fun acc (k, _) -> max acc k)
          0
          (Pet_minimize.Symbolic.choice_distribution sym)
      in
      let eq = Pet_minimize.Symbolic.equilibrium sym in
      Fmt.pr "%4d %6d %16d %12.3f   (up to %d choices; equilibrium nash=%b)@."
        n
        (Pet_minimize.Symbolic.mas_count sym)
        (Pet_minimize.Symbolic.valuation_count sym)
        dt max_choices eq.Pet_minimize.Symbolic.nash)
    [ 14; 20; 24; 28; 32; 40 ]

(* --- Server: service-loop throughput ------------------------------------------------------------- *)

(* Replay whole populations through the collection service (the same
   code path as `pet serve`): for each respondent a new_session by
   digest, a consent report, a choice and a submission — measuring
   end-to-end requests/second including JSON decode/encode, and the
   registry hit rate across sessions. *)
(* Machine-readable results for CI trending: each section that feeds a
   dashboard writes a BENCH_<name>.json next to the human output. *)
let write_json file json =
  Out_channel.with_open_bin file (fun oc ->
      Out_channel.output_string oc (Pet_pet.Json.to_string json);
      Out_channel.output_char oc '\n');
  Fmt.pr "wrote %s@." file

(* BENCH_server.json is co-owned by the [server] and [tenants] sections;
   each replaces only its own top-level keys so running one section does
   not wipe the other's baseline figures. *)
let merge_json file fields =
  let existing =
    match In_channel.with_open_text file In_channel.input_all with
    | exception Sys_error _ -> []
    | contents -> (
      match Pet_pet.Json.parse contents with
      | Ok (Pet_pet.Json.Obj old) -> old
      | Ok _ | Error _ -> [])
  in
  let keys = List.map fst fields in
  let kept = List.filter (fun (k, _) -> not (List.mem k keys)) existing in
  write_json file (Pet_pet.Json.Obj (kept @ fields))

(* One full service workload (shared by the [server] and [obs]
   sections): publish once, then per respondent a new_session by digest,
   a consent report, a choice and a submission. Returns the summary
   JSON, the measured requests/second, and the service (so callers can
   read its metrics afterwards). The service clock is logical (+1 per
   read) unless [now] is given; [on_create] sees the service before the
   first request. *)
let server_case ?now ?(on_create = ignore) name exposure respondents =
  let escape s = Pet_pet.Json.to_string (Pet_pet.Json.String s) in
    let now =
      match now with
      | Some now -> now
      | None -> Pet_obs.Metrics.logical_clock ()
    in
    let service =
      Pet_server.Service.create ~capacity:4 ~ttl:0. ~now ()
    in
    on_create service;
    let text = Pet_rules.Spec.to_string exposure in
    let _, publish_dt =
      time_once (fun () ->
          Pet_server.Service.handle_line service
            (Printf.sprintf
               {|{"pet":1,"id":0,"method":"publish_rules","params":{"rules":%s}}|}
               (escape text)))
    in
    let digest = Pet_server.Registry.digest text in
    let population = Array.of_list (Exposure.eligible exposure) in
    let errors = ref 0 in
    let requests = ref 0 in
    let send line =
      incr requests;
      let response = Pet_server.Service.handle_line service line in
      (* Error responses carry an "error" object instead of "ok". *)
      match Pet_pet.Json.parse response with
      | Ok obj when Pet_pet.Json.member "ok" obj <> None -> ()
      | _ -> incr errors
    in
    let _, dt =
      time_once (fun () ->
          for i = 0 to respondents - 1 do
            let v = population.(i mod Array.length population) in
            let session = Printf.sprintf "s%d" i in
            send
              (Printf.sprintf
                 {|{"pet":1,"method":"new_session","params":{"digest":%s}}|}
                 (escape digest));
            send
              (Printf.sprintf
                 {|{"pet":1,"method":"get_report","params":{"session":%s,"valuation":%s}}|}
                 (escape session)
                 (escape (Total.to_string v)));
            send
              (Printf.sprintf
                 {|{"pet":1,"method":"choose_option","params":{"session":%s,"option":0}}|}
                 (escape session));
            send
              (Printf.sprintf
                 {|{"pet":1,"method":"submit_form","params":{"session":%s}}|}
                 (escape session))
          done)
    in
    let stats = Pet_server.Service.registry_stats service in
    let hit_rate =
      100.
      *. float_of_int stats.Pet_server.Registry.hits
      /. float_of_int (stats.Pet_server.Registry.hits + stats.Pet_server.Registry.misses)
    in
    Fmt.pr
      "%-8s publish (compile): %.3fs; %d respondents, %d requests in %.3fs \
       = %.0f requests/s; %d errors; registry hit rate %.1f%%@."
      name publish_dt respondents !requests dt
      (float_of_int !requests /. dt)
      !errors hit_rate;
  let rps = float_of_int !requests /. dt in
  let json =
    Pet_pet.Json.Obj
      [
        ("case", Pet_pet.Json.String name);
        ("respondents", Pet_pet.Json.Int respondents);
        ("requests", Pet_pet.Json.Int !requests);
        ("errors", Pet_pet.Json.Int !errors);
        ("publish_compile_s", Pet_pet.Json.Float publish_dt);
        ("seconds", Pet_pet.Json.Float dt);
        ("requests_per_s", Pet_pet.Json.Float rps);
        ("cache_hit_rate", Pet_pet.Json.Float (hit_rate /. 100.));
      ]
  in
  (json, rps, service)

(* --- TCP scaling: domains vs durable throughput -------------------------------------

   The scenario the sharded transport exists for: concurrent clients
   each opening a session (one durable event per request, fsync ON).
   Requests pipelined on one connection share a shard's batch; with N
   domains they land on N shards, and whichever shard runs the commit
   step appends and fsyncs what every shard queued as one batch, while
   the others serve on. Shard 0 runs on a domain spawned here, as
   [pet serve] runs it on its main domain. *)

let tcp_temp_dir =
  let counter = ref 0 in
  fun () ->
    incr counter;
    let dir =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "pet_bench_tcp_%d_%d" (Unix.getpid ()) !counter)
    in
    let rec remove path =
      if Sys.is_directory path then begin
        Array.iter
          (fun entry -> remove (Filename.concat path entry))
          (Sys.readdir path);
        Sys.rmdir path
      end
      else Sys.remove path
    in
    if Sys.file_exists dir then remove dir;
    dir

let tcp_config ~clients ~per_client domains =
  (* A roomy minor heap keeps stop-the-world minor collections — which
     every domain must join, painful when domains outnumber cores —
     out of the measurement. *)
  Gc.set { (Gc.get ()) with minor_heap_size = 4 * 1024 * 1024 };
  let dir = tcp_temp_dir () in
  match Pet_store.Store.open_dir ~fsync:true dir with
  | Error m -> failwith ("tcp bench: " ^ m)
  | Ok (store, _) ->
    let server =
      match
        Pet_net.Server.start ~store ~sweep_interval:0. ~domains ~listen:(Tcp 0)
          ~now:Unix.gettimeofday ()
      with
      | Ok server -> server
      | Error m -> failwith ("tcp bench: " ^ m)
    in
    let shard0 = Domain.spawn (fun () -> Pet_net.Server.run server) in
    let port = Pet_net.Server.port server in
    let connect () =
      let fd = Unix.socket ~cloexec:true PF_INET SOCK_STREAM 0 in
      Unix.connect fd (ADDR_INET (Unix.inet_addr_loopback, port));
      (fd, Unix.in_channel_of_descr fd, Unix.out_channel_of_descr fd)
    in
    let text = Pet_rules.Spec.to_string (Lazy.force running) in
    let escape s = Pet_pet.Json.to_string (Pet_pet.Json.String s) in
    let new_session_line =
      Printf.sprintf
        {|{"pet":1,"method":"new_session","params":{"digest":%s}}|}
        (escape (Pet_server.Registry.digest text))
    in
    let errors = Atomic.make 0 in
    (* Substring check, not a JSON parse: the clients share the machine
       with the server, so client-side CPU is overhead under test. Every
       error response carries an "error" object and no "ok". *)
    let is_ok response =
      let h = String.length response in
      let rec go i =
        i + 4 <= h
        && ((response.[i] = '"'
            && response.[i + 1] = 'o'
            && response.[i + 2] = 'k'
            && response.[i + 3] = '"')
           || go (i + 1))
      in
      go 0
    in
    let request ic oc line =
      output_string oc line;
      output_char oc '\n';
      flush oc;
      match In_channel.input_line ic with
      | Some response when is_ok response -> ()
      | _ -> Atomic.incr errors
    in
    (* Warm up: publish once, then enough sessions that every shard has
       compiled its engine before the timed window. *)
    let fd, ic, oc = connect () in
    request ic oc
      (Printf.sprintf
         {|{"pet":1,"id":0,"method":"publish_rules","params":{"rules":%s}}|}
         (escape text));
    for _ = 1 to 2 * domains do
      request ic oc new_session_line
    done;
    Unix.close fd;
    let before =
      match Pet_net.Server.batch_stats server with
      | Some stats -> stats
      | None -> failwith "tcp bench: no batch stats"
    in
    (* Pipelined client: fire every request, then read every response
       (the protocol correlates them by id; this client only counts
       errors). Pipelining is what keeps all shards loaded at once, so
       the group commits actually batch. *)
    let client () =
      let fd, _ic, oc = connect () in
      for _ = 1 to per_client do
        output_string oc new_session_line;
        output_char oc '\n'
      done;
      flush oc;
      (* Bulk read: count response lines and "error" keys in one pass —
         no per-line allocation, the cheapest correct client possible. *)
      let buf = Bytes.create 65536 in
      let seen = ref 0 and bad = ref 0 in
      while !seen < per_client do
        match Unix.read fd buf 0 (Bytes.length buf) with
        | 0 ->
          bad := !bad + (per_client - !seen);
          seen := per_client
        | n ->
          for i = 0 to n - 1 do
            match Bytes.unsafe_get buf i with
            | '\n' -> incr seen
            | 'r' ->
              (* 'r' only ever appears inside "error" in these replies *)
              if i + 3 < n
                 && Bytes.unsafe_get buf (i + 1) = 'r'
                 && Bytes.unsafe_get buf (i + 2) = 'o'
                 && Bytes.unsafe_get buf (i + 3) = 'r'
              then incr bad
            | _ -> ()
          done
      done;
      if !bad > 0 then Atomic.fetch_and_add errors !bad |> ignore;
      Unix.close fd
    in
    let (), dt =
      time_once (fun () ->
          List.init clients (fun _ -> Thread.create client ())
          |> List.iter Thread.join)
    in
    let after =
      match Pet_net.Server.batch_stats server with
      | Some stats -> stats
      | None -> failwith "tcp bench: no batch stats"
    in
    Pet_net.Server.stop server;
    ignore (Domain.join shard0);
    Pet_store.Store.close store;
    ignore (Sys.command (Printf.sprintf "rm -rf %s" (Filename.quote dir)));
    let requests = clients * per_client in
    let rps = float_of_int requests /. dt in
    let batches = after.Pet_net.Group_commit.batches - before.Pet_net.Group_commit.batches in
    let events = after.Pet_net.Group_commit.events - before.Pet_net.Group_commit.events in
    let avg_batch =
      if batches = 0 then 0. else float_of_int events /. float_of_int batches
    in
    Fmt.pr
      "tcp      %d domain(s): %d clients x %d sessions = %d requests in \
       %.3fs = %.0f requests/s; %d errors; %d fsync batches, avg %.1f \
       events/batch (max %d)@."
      domains clients per_client requests dt rps (Atomic.get errors) batches
      avg_batch after.Pet_net.Group_commit.max_batch;
    let json =
      Pet_pet.Json.Obj
        [
          ("domains", Pet_pet.Json.Int domains);
          ("clients", Pet_pet.Json.Int clients);
          ("requests", Pet_pet.Json.Int requests);
          ("errors", Pet_pet.Json.Int (Atomic.get errors));
          (* "elapsed", not "seconds": requests/requests_per_s already
             implies it, and a second directional key on the same
             quantity would double-gate the perf diff at an
             accidentally tighter effective threshold. *)
          ("elapsed", Pet_pet.Json.Float dt);
          ("requests_per_s", Pet_pet.Json.Float rps);
          ( "commit",
            Pet_pet.Json.Obj
              [
                ("batches", Pet_pet.Json.Int batches);
                ("events", Pet_pet.Json.Int events);
                ("max_batch", Pet_pet.Json.Int after.Pet_net.Group_commit.max_batch);
                ("avg_batch", Pet_pet.Json.Float avg_batch);
              ] );
        ]
    in
    (json, rps)

let tcp_scaling () =
  let clients = 8 and per_client = 450 in
  let configs = [ 1; 2; 4 ] in
  (* Best of three interleaved rounds: fsync wall latency on shared
     storage is noisy and dominates both sides of the ratio. Running
     1→2→4 per round (rather than three of each back to back) spreads
     any storage-speed drift across all configs, and the fastest round
     per config is its least noise-contaminated measurement. *)
  let rounds =
    List.init 3 (fun _ -> List.map (tcp_config ~clients ~per_client) configs)
  in
  let best i =
    List.map (fun round -> List.nth round i) rounds
    |> List.sort (fun (_, a) (_, b) -> Float.compare b a)
    |> List.hd
  in
  let results = List.mapi (fun i _ -> best i) configs in
  let rps_of n =
    List.nth results (Option.get (List.find_index (Int.equal n) configs))
    |> snd
  in
  let speedup = rps_of 4 /. rps_of 1 in
  Fmt.pr "tcp      4-domain speedup over 1 domain: %.2fx@." speedup;
  Pet_pet.Json.Obj
    [
      ("scenario", Pet_pet.Json.String "durable new_session churn, localhost TCP");
      ("configs", Pet_pet.Json.List (List.map fst results));
      ("tcp_speedup_4_domains", Pet_pet.Json.Float speedup);
    ]

(* Memo-hit traffic: many sessions repeatedly asking for reports over
   a small valuation pool, so almost every [get_report] is answered
   from the rendered-report memo (and every line takes the cursor
   decoder). The memo's payoff reads against the [server] case on the
   same form, where every respondent is a distinct valuation and so
   every report is a miss. *)
let compiled_hit_case exposure =
  let escape s = Pet_pet.Json.to_string (Pet_pet.Json.String s) in
  let text = Pet_rules.Spec.to_string exposure in
  let digest = Pet_server.Registry.digest text in
  let population = Array.of_list (Exposure.eligible exposure) in
  let pool = Array.init 32 (fun i -> population.(i * Array.length population / 32)) in
  let sessions = 200 and reports = 16 in
  let requests = ref 0 and errors = ref 0 in
  let run () =
    let service =
      Pet_server.Service.create ~capacity:4 ~ttl:0.
        ~now:(Pet_obs.Metrics.logical_clock ())
        ()
    in
    ignore
      (Pet_server.Service.handle_line service
         (Printf.sprintf
            {|{"pet":1,"id":0,"method":"publish_rules","params":{"rules":%s}}|}
            (escape text)));
    requests := 0;
    errors := 0;
    let send line =
      incr requests;
      let response = Pet_server.Service.handle_line service line in
      match Pet_pet.Json.parse response with
      | Ok obj when Pet_pet.Json.member "ok" obj <> None -> ()
      | _ -> incr errors
    in
    let _, dt =
      time_once (fun () ->
          for i = 0 to sessions - 1 do
            let session = Printf.sprintf "s%d" i in
            send
              (Printf.sprintf
                 {|{"pet":1,"id":1,"method":"new_session","params":{"digest":%s}}|}
                 (escape digest));
            for j = 0 to reports - 1 do
              let v = pool.(((i * reports) + j) mod Array.length pool) in
              send
                (Printf.sprintf
                   {|{"pet":1,"id":2,"method":"get_report","params":{"session":%s,"valuation":%s}}|}
                   (escape session)
                   (escape (Total.to_string v)))
            done;
            send
              (Printf.sprintf
                 {|{"pet":1,"id":3,"method":"choose_option","params":{"session":%s,"option":0}}|}
                 (escape session));
            send
              (Printf.sprintf
                 {|{"pet":1,"id":4,"method":"submit_form","params":{"session":%s}}|}
                 (escape session))
          done)
    in
    float_of_int !requests /. dt
  in
  ignore (run ());
  (* warm-up: page in the code path; then the harmonic mean of 4 runs *)
  let runs = 4 in
  let t = ref 0. in
  for _ = 1 to runs do
    t := !t +. (1. /. run ())
  done;
  let rps = float_of_int runs /. !t in
  Fmt.pr "compiled H-cov memo-hit traffic: %.0f req/s@." rps;
  Pet_pet.Json.Obj
    [
      ("case", Pet_pet.Json.String "H-cov");
      ( "scenario",
        Pet_pet.Json.String
          "cache-hit consent reports over a 32-valuation pool" );
      ("requests", Pet_pet.Json.Int !requests);
      ("errors", Pet_pet.Json.Int !errors);
      ("compiled_requests_per_s", Pet_pet.Json.Float rps);
    ]

let server () =
  section "Server: pet serve request throughput (line-delimited JSON)";
  let run_case name exposure respondents =
    let json, _, _ = server_case name exposure respondents in
    json
  in
  let hcov_case = run_case "H-cov" (Lazy.force hcov) 1560 in
  let rsa_case = run_case "RSA" (Lazy.force rsa) 300 in
  let cases = [ hcov_case; rsa_case ] in
  let compiled = compiled_hit_case (Lazy.force hcov) in
  let tcp = tcp_scaling () in
  merge_json "BENCH_server.json"
    [
      ("cases", Pet_pet.Json.List cases);
      ("compiled", compiled);
      ("tcp", tcp);
    ]

(* --- Tenants: multi-tenant serving and hot rule migration ---------------------------

   The registry under fleet load: publish a corpus of tenants (the
   deploy barriers run the queued builds on this domain), then
   serve Zipf-distributed respondent traffic across all of them, and
   hot-swap a busy tenant's rules mid-traffic. Corpus sizes stay at the
   small end of the band so a 1000-tenant publish finishes in CI time;
   the shape of the result — per-line p99 under tenant fan-out, swap
   settle latency — is what the section trends. *)

let tenants () =
  section "Tenants: multi-tenant registry, Zipf traffic, hot swaps";
  let module Corpus = Pet_corpus.Corpus in
  let escape s = Pet_pet.Json.to_string (Pet_pet.Json.String s) in
  let case count flows =
    let service =
      Pet_server.Service.create ~capacity:(2 * count) ~ttl:0.
        ~now:(Pet_obs.Metrics.logical_clock ())
        ()
    in
    let scenario = Corpus.scenario ~seed:42 ~lo:8 ~hi:12 ~count () in
    let errors = ref 0 and requests = ref 0 in
    let latencies = ref [] in
    let send line =
      incr requests;
      let t0 = Unix.gettimeofday () in
      let response = Pet_server.Service.handle_line service line in
      latencies := (Unix.gettimeofday () -. t0) :: !latencies;
      (match Pet_pet.Json.parse response with
      | Ok obj when Pet_pet.Json.member "ok" obj <> None -> ()
      | _ -> incr errors);
      response
    in
    let publish (f : Corpus.form) =
      ignore
        (send
           (Printf.sprintf
              {|{"pet":1,"method":"publish_rules","params":{"rules":%s,"tenant":%s}}|}
              (escape f.Corpus.text) (escape f.Corpus.name)))
    in
    let settle name =
      ignore
        (send
           (Printf.sprintf
              {|{"pet":1,"method":"tenant","params":{"name":%s,"wait":true}}|}
              (escape name)))
    in
    (* Publish everything, then let the barriers run the queued builds. *)
    let t0 = Unix.gettimeofday () in
    Array.iter publish scenario.Corpus.forms;
    Array.iter (fun (f : Corpus.form) -> settle f.Corpus.name) scenario.Corpus.forms;
    let publish_dt = Unix.gettimeofday () -. t0 in
    (* Zipf-distributed respondent flows across the fleet. *)
    latencies := [];
    requests := 0;
    let rng = Random.State.make [| 42; count |] in
    let t0 = Unix.gettimeofday () in
    for flow = 0 to flows - 1 do
      let f = scenario.Corpus.forms.(Corpus.pick rng scenario.Corpus.popularity) in
      let sid =
        let response =
          send
            (Printf.sprintf
               {|{"pet":1,"method":"new_session","params":{"tenant":%s}}|}
               (escape f.Corpus.name))
        in
        match Pet_pet.Json.parse response with
        | Ok obj ->
          Option.bind
            (Option.bind (Pet_pet.Json.member "ok" obj)
               (Pet_pet.Json.member "session"))
            Pet_pet.Json.string_opt
        | Error _ -> None
      in
      match sid with
      | None -> incr errors
      | Some sid ->
        let report =
          send
            (Printf.sprintf
               {|{"pet":1,"method":"get_report","params":{"session":%s,"valuation":%s}}|}
               (escape sid)
               (escape (Corpus.valuation ~seed:flow f 0)))
        in
        (* Ineligible respondents are a corpus fact of life, not a bench
           error: close those sessions without choosing. *)
        (match Pet_pet.Json.parse report with
        | Ok obj when Pet_pet.Json.member "ok" obj <> None ->
          ignore
            (send
               (Printf.sprintf
                  {|{"pet":1,"method":"choose_option","params":{"session":%s,"option":0}}|}
                  (escape sid)));
          ignore
            (send
               (Printf.sprintf
                  {|{"pet":1,"method":"submit_form","params":{"session":%s}}|}
                  (escape sid)))
        | _ -> decr errors)
    done;
    let dt = Unix.gettimeofday () -. t0 in
    let rps = float_of_int !requests /. dt in
    let p99 =
      let sorted = List.sort compare !latencies in
      let a = Array.of_list sorted in
      if Array.length a = 0 then 0.
      else a.(min (Array.length a - 1) (99 * Array.length a / 100)) *. 1000.
    in
    (* Hot rule migration on the busiest tenant, mid-fleet: wall time
       from update_rules to the new version serving (build drained). *)
    let swap_ms = ref [] in
    let hot = ref scenario.Corpus.forms.(0) in
    for _ = 1 to 5 do
      hot := Corpus.update !hot;
      let t0 = Unix.gettimeofday () in
      ignore
        (send
           (Printf.sprintf
              {|{"pet":1,"method":"update_rules","params":{"tenant":%s,"rules":%s}}|}
              (escape (!hot).Corpus.name)
              (escape (!hot).Corpus.text)));
      settle (!hot).Corpus.name;
      swap_ms := ((Unix.gettimeofday () -. t0) *. 1000.) :: !swap_ms
    done;
    let swap_mean =
      List.fold_left ( +. ) 0. !swap_ms /. float_of_int (List.length !swap_ms)
    in
    let swap_max = List.fold_left max 0. !swap_ms in
    Fmt.pr
      "%4d tenants: published+built in %.2fs; %d flow requests = %.0f req/s, \
       p99 %.2fms; hot swap %.1fms mean / %.1fms max; %d errors@."
      count publish_dt !requests rps p99 swap_mean swap_max !errors;
    Pet_pet.Json.Obj
      [
        ("tenants", Pet_pet.Json.Int count);
        ("publish_build_s", Pet_pet.Json.Float publish_dt);
        ( "builds_per_s",
          Pet_pet.Json.Float (float_of_int count /. publish_dt) );
        ("requests", Pet_pet.Json.Int !requests);
        ("errors", Pet_pet.Json.Int !errors);
        ("requests_per_s", Pet_pet.Json.Float rps);
        ("p99_ms", Pet_pet.Json.Float p99);
        ("hot_swap_mean_ms", Pet_pet.Json.Float swap_mean);
        ("hot_swap_max_ms", Pet_pet.Json.Float swap_max);
      ]
  in
  let small = case 100 2_000 in
  let large = case 1_000 2_000 in
  merge_json "BENCH_server.json"
    [ ("tenants", Pet_pet.Json.Obj [ ("at_100", small); ("at_1000", large) ]) ]

(* --- Obs: instrumentation overhead ---------------------------------------------------------------- *)

(* The price of the observability layer, measured on the server workload
   it instruments most densely: the H-cov request loop with metrics off
   (the library default) vs fully on. The per-request accounting record
   behind [stats] is made in both arms, so the ratio prices what the
   switch turns on. The service runs on the wall clock, and the enabled
   run's snapshot is dumped, so CI trends the same counters, latency
   histograms and SLO windows the [metrics] endpoint serves. Uses an ABBA run schedule so machine drift cancels out of a
   ratio whose acceptance bound is 6% (it was 3% before the compiled
   fast path: the absolute instrumentation cost per request is
   unchanged, but compiled serving roughly halved the per-request time
   it is measured against). *)
let obs () =
  section "Obs: instrumentation overhead and metrics snapshot";
  let module Obs = Pet_obs.Metrics in
  Obs.set_clock Unix.gettimeofday;
  (* Wall-clock service latencies, so the histograms and SLO windows in
     the snapshot below are real measurements. *)
  let current = Atomic.make None in
  let workload name =
    server_case ~now:Unix.gettimeofday
      ~on_create:(fun s -> Atomic.set current (Some s))
      name (Lazy.force hcov) 1560
  in
  (* Run-to-run throughput on this workload drifts by ±10% (heap
     growth, frequency scaling), dwarfing the effect we measure, so the
     schedule must cancel drift rather than hope it averages out: ABBA
     blocks (on,off,off,on) cancel any linear drift exactly, and the
     ratio compares total time over all runs, not best-of. Each block
     ends on an enabled run, so the registry still holds that run's
     samples when we snapshot it below. *)
  let blocks = 3 in
  let t_off = ref 0. and t_on = ref 0. in
  let service = ref None in
  let run enabled tag =
    if enabled then Obs.enable () else Obs.disable ();
    Obs.reset ();
    Pet_obs.Span.reset ();
    let _, rps, s = workload tag in
    (* Every run issues the same request count, so summing 1/rps sums
       per-request time. *)
    if enabled then begin
      t_on := !t_on +. (1. /. rps);
      service := Some s
    end
    else t_off := !t_off +. (1. /. rps)
  in
  for _ = 1 to blocks do
    run true "H-cov (obs on)";
    run false "H-cov (obs off)";
    run false "H-cov (obs off)";
    run true "H-cov (obs on)"
  done;
  let rps_off = float_of_int (2 * blocks) /. !t_off in
  let rps_on = float_of_int (2 * blocks) /. !t_on in
  let service = Option.get !service in
  let payload =
    Pet_server.Service.metrics_payload service ~now:(Unix.gettimeofday ())
      Pet_server.Proto.Mjson
  in
  let overhead = 1. -. (rps_on /. rps_off) in
  Fmt.pr
    "obs overhead on H-cov: %.0f req/s off, %.0f req/s on = %.2f%% \
     (acceptance < 6%%)@."
    rps_off rps_on (100. *. overhead);
  (* Flight recorder on top: same ABBA cancellation against a fresh
     baseline, with a real-time ticker thread journaling delta
     snapshots into a throwaway segment family every 50 ms — the
     deployment shape of [pet serve --flight], minus the WAL (whose
     cost the store bench owns). The gate is the same 6%: the recorder
     must be cheap enough to leave on. *)
  let flight_dir = tcp_temp_dir () in
  Unix.mkdir flight_dir 0o755;
  let fl =
    match Pet_store.Flight_log.open_dir flight_dir with
    | Ok fl -> fl
    | Error m -> failwith ("flight bench: " ^ m)
  in
  let fenc = Pet_obs.Flight.create () in
  let stop = Atomic.make false in
  let ticker =
    Thread.create
      (fun () ->
        while not (Atomic.get stop) do
          Thread.delay 0.05;
          match Atomic.get current with
          | Some service when Obs.enabled () -> (
            (* the serving core's flight snapshot: the one [Service.snapshot] *)
            let snapshot =
              Pet_server.Service.snapshot service ~now:(Unix.gettimeofday ())
            in
            try
              Pet_store.Flight_log.append fl
                (Pet_obs.Flight.snap fenc ~now:(Obs.now ()) snapshot)
            with Sys_error _ -> ())
          | _ -> ()
        done)
      ()
  in
  let t_off2 = ref 0. and t_flight = ref 0. in
  let run_flight enabled tag =
    if enabled then Obs.enable () else Obs.disable ();
    Obs.reset ();
    Pet_obs.Span.reset ();
    let _, rps, _ = workload tag in
    if enabled then t_flight := !t_flight +. (1. /. rps)
    else t_off2 := !t_off2 +. (1. /. rps)
  in
  let flight_blocks = 2 in
  for _ = 1 to flight_blocks do
    run_flight true "H-cov (obs+flight on)";
    run_flight false "H-cov (obs off)";
    run_flight false "H-cov (obs off)";
    run_flight true "H-cov (obs+flight on)"
  done;
  Atomic.set stop true;
  Thread.join ticker;
  let flight_records, flight_bytes = Pet_store.Flight_log.stats fl in
  Pet_store.Flight_log.close fl;
  ignore
    (Sys.command (Printf.sprintf "rm -rf %s" (Filename.quote flight_dir)));
  Obs.disable ();
  let rps_off2 = float_of_int (2 * flight_blocks) /. !t_off2 in
  let rps_flight = float_of_int (2 * flight_blocks) /. !t_flight in
  let flight_overhead = 1. -. (rps_flight /. rps_off2) in
  Fmt.pr
    "obs+flight overhead on H-cov: %.0f req/s off, %.0f req/s on = %.2f%% \
     (%d records, %d bytes journaled; acceptance < 6%%)@."
    rps_off2 rps_flight
    (100. *. flight_overhead)
    flight_records flight_bytes;
  write_json "BENCH_obs.json"
    (Pet_pet.Json.Obj
       [
         ("case", Pet_pet.Json.String "H-cov");
         ("requests_per_s_disabled", Pet_pet.Json.Float rps_off);
         ("requests_per_s_enabled", Pet_pet.Json.Float rps_on);
         ("overhead", Pet_pet.Json.Float overhead);
         ( "flight",
           Pet_pet.Json.Obj
             [
               ("requests_per_s_flight", Pet_pet.Json.Float rps_flight);
               ("flight_overhead", Pet_pet.Json.Float flight_overhead);
               ("records", Pet_pet.Json.Int flight_records);
               ("bytes", Pet_pet.Json.Int flight_bytes);
             ] );
         ("metrics", payload);
       ])

(* --- Store: append and recovery throughput ------------------------------------------------------- *)

(* The durability tax and the restart cost: events/second through the
   write-ahead log (with and without fsync) and the wall-clock to
   recover a 100k-event log — the figure that bounds restart time. *)
let store () =
  section "Store: write-ahead-log append and recovery";
  let module Persist = Pet_server.Persist in
  let module Store = Pet_store.Store in
  let rec remove_tree path =
    if Sys.file_exists path then
      if Sys.is_directory path then begin
        Array.iter
          (fun entry -> remove_tree (Filename.concat path entry))
          (Sys.readdir path);
        Sys.rmdir path
      end
      else Sys.remove path
  in
  let event i =
    (* A realistic mix: mostly session transitions, a grant every forth
       event, a fresh rule set every 10k. *)
    let id = Printf.sprintf "s%d" (i / 4) in
    match i mod 4 with
    | 0 ->
      Persist.Session_created
        { id; digest = "bench"; tenant = None; at = float_of_int i }
    | 1 ->
      Persist.Session_chosen
        { id; mas = "0_1_10_0__1_"; benefits = [ "b1"; "b2" ]; at = float_of_int i }
    | 2 ->
      Persist.Grant
        {
          digest = "bench";
          grant_id = i / 4;
          form = "0_1_10_0__1_";
          benefits = [ "b1" ];
          session = Some id;
          tenant = None;
          revoked = false;
        }
    | _ ->
      if i mod 10_000 = 3 then
        Persist.Rules
          { digest = Printf.sprintf "d%d" i; text = String.make 400 'r' }
      else Persist.Session_submitted { id; grant_id = i / 4; at = float_of_int i }
  in
  let appends ~fsync ~count =
    let dir =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "pet_bench_store_%d_%b" (Unix.getpid ()) fsync)
    in
    remove_tree dir;
    match Store.open_dir ~fsync ~auto_compact_segments:0 dir with
    | Error m -> failwith m
    | Ok (st, _) ->
      let _, dt =
        time_once (fun () ->
            for i = 0 to count - 1 do
              Store.append st (event i)
            done)
      in
      Store.close st;
      (dir, dt)
  in
  (* fsync-per-append is the durable configuration; a small run keeps
     the benchmark tolerable on slow disks. *)
  let fsync_count = 2_000 in
  let fsync_dir, fsync_dt = appends ~fsync:true ~count:fsync_count in
  remove_tree fsync_dir;
  Fmt.pr "append (fsync each): %d events in %.3fs = %.0f appends/s@."
    fsync_count fsync_dt
    (float_of_int fsync_count /. fsync_dt);
  let count = 100_000 in
  let dir, dt = appends ~fsync:false ~count in
  Fmt.pr "append (buffered):   %d events in %.3fs = %.0f appends/s@." count dt
    (float_of_int count /. dt);
  let log_bytes =
    Array.fold_left
      (fun acc f ->
        acc + (Unix.stat (Filename.concat dir f)).Unix.st_size)
      0 (Sys.readdir dir)
  in
  let recovery, recovery_dt =
    time_once (fun () ->
        match Store.read dir with Ok r -> r | Error m -> failwith m)
  in
  Fmt.pr
    "recovery:            %d events (%d segments, %.1f MiB) in %.3fs = %.1f \
     ms per 10k events@."
    (List.length recovery.Store.events)
    recovery.Store.files
    (float_of_int log_bytes /. 1048576.)
    recovery_dt
    (recovery_dt *. 1000. /. (float_of_int count /. 10_000.));
  remove_tree dir;
  (* BENCH_store.json is co-owned with the [audit] section. *)
  merge_json "BENCH_store.json"
       [
         ("fsync_appends", Pet_pet.Json.Int fsync_count);
         ( "fsync_appends_per_s",
           Pet_pet.Json.Float (float_of_int fsync_count /. fsync_dt) );
         ("appends", Pet_pet.Json.Int count);
         ("appends_per_s", Pet_pet.Json.Float (float_of_int count /. dt));
         ("log_bytes", Pet_pet.Json.Int log_bytes);
         ("recovered_events", Pet_pet.Json.Int (List.length recovery.Store.events));
         ("recovery_ms", Pet_pet.Json.Float (recovery_dt *. 1000.));
       ]

(* --- Audit: offline compliance-replay throughput ------------------------------------------- *)

(* How fast `pet audit` proves a log compliant: drive a real durable
   service through full lifecycles (including revocations and expiry
   horizons), then replay the directory through the offline auditor —
   every record re-framed, re-checksummed, and every grant re-proved
   minimal and accurate against the log's own rule text. *)
let audit_bench () =
  section "Audit: offline WAL compliance replay";
  let rec remove_tree path =
    if Sys.file_exists path then
      if Sys.is_directory path then begin
        Array.iter
          (fun entry -> remove_tree (Filename.concat path entry))
          (Sys.readdir path);
        Sys.rmdir path
      end
      else Sys.remove path
  in
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "pet_bench_audit_%d" (Unix.getpid ()))
  in
  remove_tree dir;
  let config =
    {
      Pet_rules.Generate.predicates = 10;
      benefits = 2;
      conjunctions = 2;
      width = 2;
      implications = 1;
    }
  in
  let exposure = Pet_rules.Generate.exposure ~config ~seed:7 () in
  let text = Pet_rules.Spec.to_string exposure in
  (match Pet_store.Store.open_dir ~fsync:false dir with
  | Error m -> failwith m
  | Ok (store, _) ->
    let service =
      Pet_server.Service.create ~durable:true
        ~resolve:(fun _ -> None)
        ~now:(Pet_obs.Metrics.logical_clock ())
        ()
    in
    Pet_server.Service.set_sink service (Pet_store.Store.sink store);
    let next_id = ref 0 in
    let feed method_ params =
      incr next_id;
      ignore
        (Pet_server.Service.handle_line service
           (Pet_pet.Json.to_string
              (Pet_pet.Json.Obj
                 [
                   ("pet", Pet_pet.Json.Int 1);
                   ("id", Pet_pet.Json.Int !next_id);
                   ("method", Pet_pet.Json.String method_);
                   ("params", Pet_pet.Json.Obj params);
                 ])))
    in
    feed "publish_rules" [ ("rules", Pet_pet.Json.String text) ];
    let rng = Random.State.make [| 0xbe7c |] in
    let sessions = 2_000 in
    for i = 0 to sessions - 1 do
      let sid = Printf.sprintf "s%d" i in
      feed "new_session" [ ("rules", Pet_pet.Json.String text) ];
      let v =
        String.init config.Pet_rules.Generate.predicates (fun _ ->
            if Random.State.bool rng then '1' else '0')
      in
      feed "get_report"
        [
          ("session", Pet_pet.Json.String sid);
          ("valuation", Pet_pet.Json.String v);
        ];
      feed "choose_option"
        [ ("session", Pet_pet.Json.String sid); ("option", Pet_pet.Json.Int 0) ];
      feed "submit_form" [ ("session", Pet_pet.Json.String sid) ];
      (match i mod 10 with
      | 0 -> feed "revoke" [ ("session", Pet_pet.Json.String sid) ]
      | 1 ->
        feed "expire"
          [
            ("session", Pet_pet.Json.String sid);
            ("after", Pet_pet.Json.Float 50.);
          ]
      | _ -> ())
    done;
    Pet_store.Store.close store);
  let report, dt =
    time_once (fun () ->
        match Pet_audit.Audit.run dir with
        | Ok report -> report
        | Error m -> failwith m)
  in
  remove_tree dir;
  let records = report.Pet_audit.Audit.records in
  if not (Pet_audit.Audit.pass report) then failwith "audit bench log failed";
  Fmt.pr
    "audit: %d records (%d files) in %.3fs = %.0f records/s, all six \
     properties PASS@."
    records report.Pet_audit.Audit.files dt
    (float_of_int records /. dt);
  merge_json "BENCH_store.json"
    [
      ("audit_records", Pet_pet.Json.Int records);
      ("audit_records_per_s", Pet_pet.Json.Float (float_of_int records /. dt));
      ("audit_ms", Pet_pet.Json.Float (dt *. 1000.));
    ]

(* --- Check: correctness-harness throughput --------------------------------------------------- *)

(* How much cross-validation a CI minute buys: differential + metamorphic
   + oracle checks per second on generated problems, and mutated protocol
   requests per second against an in-process service. *)
let check () =
  section "Check: correctness harness & fuzz throughput";
  let seeds = List.init 25 (fun i -> i + 1) in
  let results, dt =
    time_once (fun () -> Pet_check.Harness.run seeds)
  in
  let checks =
    List.fold_left
      (fun acc (_, (r : Pet_check.Finding.report)) -> acc + r.Pet_check.Finding.checks)
      0 results
  in
  let failed =
    List.filter (fun (_, r) -> not (Pet_check.Finding.ok r)) results
  in
  Fmt.pr
    "harness: %d seeds, %d checks in %.3fs = %.0f checks/s; %d seeds failing@."
    (List.length seeds) checks dt
    (float_of_int checks /. dt)
    (List.length failed);
  let stats, fuzz_dt =
    time_once (fun () -> Pet_check.Fuzz.run ~seed:0 ~count:20_000 ())
  in
  Fmt.pr
    "fuzz: %d requests in %.3fs = %.0f requests/s; %d ok, %d structured \
     errors, %d invalid, %d crashes@."
    stats.Pet_check.Fuzz.requests fuzz_dt
    (float_of_int stats.Pet_check.Fuzz.requests /. fuzz_dt)
    stats.Pet_check.Fuzz.ok stats.Pet_check.Fuzz.errors
    (Pet_check.Fuzz.count Invalid_response stats)
    (Pet_check.Fuzz.count Crash stats)

(* --- Main ---------------------------------------------------------------------------------------- *)

let () =
  let sections =
    [
      ("tables", fun () -> table1 (); table2 (); table3 (); table4 ());
      ("figures", figures);
      ("solidarity", solidarity);
      ("ablations", fun () -> ablation_modes (); ablation_baseline ());
      ("timings", timings);
      ("sweep", sweep);
      ("provider", provider_gc);
      ("symbolic", symbolic);
      ("server", server);
      ("tenants", tenants);
      ("obs", obs);
      ("store", store);
      ("audit", audit_bench);
      ("check", check);
    ]
  in
  (* "all" expands to every section wherever it appears, so one
     invocation runs every scenario and writes every BENCH_*.json. *)
  let requested =
    match List.tl (Array.to_list Sys.argv) with
    | [] -> List.map fst sections
    | args ->
      List.concat_map
        (fun arg -> if arg = "all" then List.map fst sections else [ arg ])
        args
  in
  List.iter
    (fun name ->
      match List.assoc_opt name sections with
      | Some f -> f ()
      | None ->
        Fmt.epr "unknown section %S; available: %s all@." name
          (String.concat " " (List.map fst sections));
        exit 2)
    requested
