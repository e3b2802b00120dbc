(* The PET command-line interface: validate rule files, minimize a user's
   form, produce consent reports, export the paper's figures and simulate
   whole populations. *)

module Universe = Pet_valuation.Universe
module Total = Pet_valuation.Total
module Partial = Pet_valuation.Partial
module Exposure = Pet_rules.Exposure
module Engine = Pet_rules.Engine
module Spec = Pet_rules.Spec
module A1 = Pet_minimize.Algorithm1
module Atlas = Pet_minimize.Atlas
module Lattice = Pet_minimize.Lattice
module Dot = Pet_minimize.Dot
module Profile = Pet_game.Profile
module Payoff = Pet_game.Payoff
module Strategy = Pet_game.Strategy
module Equilibrium = Pet_game.Equilibrium
module Solidarity = Pet_game.Solidarity
module Report = Pet_pet.Report
module Json = Pet_pet.Json
module Workflow = Pet_pet.Workflow

open Cmdliner

(* --- Sources: a rule file or a built-in case study ------------------------ *)

let load_exposure source =
  match source with
  | "running" -> Ok (Pet_casestudies.Running.exposure ())
  | "hcov" -> Ok (Pet_casestudies.Hcov.exposure ())
  | "rsa" -> Ok (Pet_casestudies.Rsa.exposure ())
  | "loan" -> Ok (Pet_casestudies.Loan.exposure ())
  | path -> (
    match In_channel.with_open_text path In_channel.input_all with
    | contents -> Spec.parse contents
    | exception Sys_error m -> Error m)

let source_arg =
  let doc =
    "Rule file to load, or one of the built-in case studies: $(b,running) \
     (the paper's district-council example), $(b,hcov) (complementary \
     health coverage, Section 5), $(b,rsa) (active solidarity income, \
     Section 5) or $(b,loan) (consumer-loan underwriting)."
  in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"RULES" ~doc)

let backend_names =
  [
    ("brute", Engine.Brute);
    ("sat", Engine.Sat);
    ("bdd", Engine.Bdd);
    ("compiled", Engine.Compiled);
  ]

let backend_arg =
  let doc =
    "Entailment backend: $(b,brute), $(b,sat), $(b,bdd) or $(b,compiled)."
  in
  Arg.(value & opt (enum backend_names) Engine.Bdd & info [ "backend" ] ~doc)

let payoff_arg =
  let payoffs = [ ("blank", Payoff.Blank); ("sm", Payoff.Sm) ] in
  let doc = "Privacy payoff function: $(b,blank) (PO_blank) or $(b,sm) (PO_SM)." in
  Arg.(value & opt (enum payoffs) Payoff.Blank & info [ "payoff" ] ~doc)

let weights_arg =
  let doc =
    "Per-predicate sensitivity weight, e.g. $(b,--weight p12=5). \
     Repeatable; unlisted predicates weigh 1. Selects the weighted \
     PO_blank of Section 4.2 (overrides $(b,--payoff))."
  in
  let weight_conv =
    let parse s =
      match String.index_opt s '=' with
      | Some i -> (
        let name = String.sub s 0 i in
        let value = String.sub s (i + 1) (String.length s - i - 1) in
        match float_of_string_opt value with
        | Some w when w >= 0. -> Ok (name, w)
        | _ -> Error (`Msg ("invalid weight in " ^ s)))
      | None -> Error (`Msg ("expected PREDICATE=WEIGHT, got " ^ s))
    in
    let print ppf (name, w) = Fmt.pf ppf "%s=%g" name w in
    Arg.conv (parse, print)
  in
  Arg.(value & opt_all weight_conv [] & info [ "weight" ] ~docv:"P=W" ~doc)

(* Combine --payoff and --weight into the effective payoff function. *)
let effective_payoff exposure payoff weights =
  match weights with
  | [] -> Ok payoff
  | _ -> (
    match
      List.find_opt
        (fun (name, _) -> not (Universe.mem (Exposure.xp exposure) name))
        weights
    with
    | Some (name, _) -> Error ("--weight: unknown predicate " ^ name)
    | None ->
      let weight name =
        match List.assoc_opt name weights with Some w -> w | None -> 1.0
      in
      Ok (Payoff.Weighted weight))

let mode_arg =
  let modes =
    [ ("chain", A1.Chain); ("entail", A1.Entail); ("exact", A1.Exact) ]
  in
  let doc =
    "MAS closure mode: $(b,chain) (the paper's forward chaining), \
     $(b,entail) (full logical closure) or $(b,exact) (set-inclusion \
     minimality, exponential)."
  in
  Arg.(value & opt (enum modes) A1.Chain & info [ "mode" ] ~doc)

let valuation_arg =
  let doc = "The fully filled form, e.g. 011 (one character per predicate)." in
  Arg.(
    required
    & opt (some string) None
    & info [ "v"; "valuation" ] ~docv:"BITS" ~doc)

let json_arg =
  let doc = "Emit machine-readable JSON instead of text." in
  Arg.(value & flag & info [ "json" ] ~doc)

let with_exposure source f =
  match load_exposure source with
  | Error m -> `Error (false, m)
  | Ok exposure -> f exposure

let parse_valuation exposure s f =
  match Total.of_string (Exposure.xp exposure) s with
  | v -> f v
  | exception Invalid_argument m -> `Error (false, m)

(* Turn the library's [Invalid_argument] diagnostics (oversized forms,
   malformed valuations) into clean CLI errors. *)
let guarded f = match f () with r -> r | exception Invalid_argument m -> `Error (false, m)

(* --- check ------------------------------------------------------------------ *)

let check_cmd =
  let source_opt_arg =
    let doc =
      "Rule file to load, or one of the built-in case studies ($(b,running), \
       $(b,hcov), $(b,rsa), $(b,loan)). Optional when $(b,--seeds) or \
       $(b,--fuzz) is given."
    in
    Arg.(value & pos 0 (some string) None & info [] ~docv:"RULES" ~doc)
  in
  let seeds_arg =
    let doc =
      "Run the correctness harness — differential testing of the brute, \
       sat and bdd backends, metamorphic transformations and \
       definition-level oracles — on randomly generated problems, one per \
       seed. $(docv) is a comma-separated list of integers and inclusive \
       ranges, e.g. $(b,1-50) or $(b,3,7,20-25). Failures are shrunk to a \
       minimal rule-DSL reproducer."
    in
    Arg.(value & opt (some string) None & info [ "seeds" ] ~docv:"SPEC" ~doc)
  in
  let fuzz_arg =
    let doc =
      "Feed $(docv) mutated, truncated and malformed protocol lines into \
       an in-process collection service and verify every one gets a \
       well-formed response — a result or a structured error, never a \
       crash."
    in
    Arg.(value & opt (some int) None & info [ "fuzz" ] ~docv:"N" ~doc)
  in
  let fuzz_seed_arg =
    let doc =
      "Seed for the $(b,--fuzz), $(b,--fuzz-store), $(b,--fuzz-corpus) and \
       $(b,--fuzz-consent) streams."
    in
    Arg.(value & opt int 0 & info [ "fuzz-seed" ] ~docv:"SEED" ~doc)
  in
  let fuzz_store_arg =
    let doc =
      "Generate $(docv) write-ahead logs, corrupt them (bit flips, \
       truncations, zeroed ranges, spliced bytes) and verify the \
       durable store's recovery contract: recovery never crashes, \
       in-place damage yields a clean prefix, losses are localized with \
       byte offsets, and the log stays appendable."
    in
    Arg.(value & opt (some int) None & info [ "fuzz-store" ] ~docv:"N" ~doc)
  in
  let fuzz_corpus_arg =
    let doc =
      "Drive $(docv) tenant-lifecycle requests from the realistic form \
       corpus — publishes, hot rule updates, sessions, reports, \
       submissions and hostile tenant traffic — through an in-process \
       service, and verify the multi-tenant contract: every line gets a \
       structured response, oversized forms fail their background build \
       cleanly, and sessions pinned to a version keep answering \
       byte-identically across hot swaps."
    in
    Arg.(value & opt (some int) None & info [ "fuzz-corpus" ] ~docv:"N" ~doc)
  in
  let fuzz_consent_arg =
    let doc =
      "Run $(docv) consent-lifecycle rounds: drive a durable service \
       through submissions, revocations and expiries, kill it without \
       shutdown (torn active segment), and verify that the offline \
       compliance audit passes the healthy log, recovery resurrects no \
       tombstone, and a forged post-revocation grant appended behind the \
       service's back is caught with a byte offset."
    in
    Arg.(value & opt (some int) None & info [ "fuzz-consent" ] ~docv:"N" ~doc)
  in
  let samples_arg =
    let doc = "Differential entailment samples per problem." in
    Arg.(
      value
      & opt int Pet_check.Diff.default_samples
      & info [ "samples" ] ~docv:"N" ~doc)
  in
  let full_arg =
    let doc =
      "With $(i,RULES): run the full correctness harness on the loaded \
       problem instead of only validating it. The oracles recheck every \
       published MAS against brute force, so this is exponential in the \
       form size — intended for small and medium problems."
    in
    Arg.(value & flag & info [ "full" ] ~doc)
  in
  let validate exposure =
    let xp = Exposure.xp exposure in
    Fmt.pr "%a@." Spec.print exposure;
    Fmt.pr "# %d predicates, %d benefits, %d rules, %d constraints@."
      (Universe.size xp)
      (Universe.size (Exposure.xb exposure))
      (List.length (Exposure.rules exposure))
      (List.length (Exposure.constraints exposure));
    let used =
      List.concat_map
        (fun (r : Pet_rules.Rule.t) -> Pet_logic.Dnf.vars r.dnf)
        (Exposure.rules exposure)
    in
    List.iter
      (fun p ->
        if not (List.mem p used) then
          Fmt.pr "# warning: predicate %s is collected but never used@." p)
      (Universe.names xp);
    Fmt.pr "# %d realistic valuations, %d eligible@."
      (List.length (Exposure.realistic exposure))
      (List.length (Exposure.eligible exposure))
  in
  (* A harness crash (e.g. the atlas refusing a 30-predicate form) is
     itself a reportable finding, not a CLI backtrace. *)
  let guarded_report f =
    match f () with
    | r -> r
    | exception Invalid_argument m ->
      {
        Pet_check.Finding.checks = 1;
        findings = [ { Pet_check.Finding.stage = "harness/crash"; detail = m } ];
      }
  in
  let run source seeds fuzz fuzz_store fuzz_corpus fuzz_consent fuzz_seed
      samples payoff full =
    let config = { Pet_check.Harness.default_config with samples; payoff } in
    let failures = ref 0 in
    let print_report ~label ?exposure (r : Pet_check.Finding.report) =
      if Pet_check.Finding.ok r then Fmt.pr "%s: ok (%d checks)@." label r.checks
      else begin
        incr failures;
        Fmt.pr "%s: FAILED (%d of %d checks)@." label
          (List.length r.findings)
          r.checks;
        List.iter (fun f -> Fmt.pr "  %a@." Pet_check.Finding.pp f) r.findings;
        Option.iter
          (fun e ->
            match Pet_check.Harness.reproduce ~config e with
            | None -> ()
            | Some (_, dsl) ->
              Fmt.pr "  minimal reproducer:@.";
              List.iter
                (fun l -> if String.trim l <> "" then Fmt.pr "    %s@." l)
                (String.split_on_char '\n' dsl))
          exposure
      end
    in
    let ( let* ) r f = match r with Ok v -> f v | Error _ as e -> e in
    (* The fuzz modes, in the order their summaries print. *)
    let fuzzers =
      Pet_check.Fuzz.
        [
          (fuzz, run ~seed:fuzz_seed);
          (fuzz_store, run_store ~seed:fuzz_seed);
          (fuzz_corpus, run_corpus ~seed:fuzz_seed);
          (fuzz_consent, run_consent ~seed:fuzz_seed);
        ]
    in
    let result =
      if
        source = None && seeds = None
        && List.for_all (fun (count, _) -> count = None) fuzzers
      then
        Error
          ( true,
            "expected a RULES source, --seeds, --fuzz, --fuzz-store, \
             --fuzz-corpus or --fuzz-consent" )
      else
        let* () =
          match source with
          | None -> Ok ()
          | Some src -> (
            match load_exposure src with
            | Error m -> Error (false, m)
            | Ok exposure ->
              if full then
                print_report ~label:src ~exposure
                  (guarded_report (fun () ->
                       Pet_check.Harness.check_exposure ~config exposure))
              else validate exposure;
              Ok ())
        in
        let* () =
          match seeds with
          | None -> Ok ()
          | Some spec -> (
            match Pet_check.Harness.seeds_of_string spec with
            | Error m -> Error (false, "--seeds: " ^ m)
            | Ok seeds ->
              List.iter
                (fun seed ->
                  let exposure, report =
                    Pet_check.Harness.run_seed ~config seed
                  in
                  print_report
                    ~label:(Printf.sprintf "seed %d" seed)
                    ~exposure report)
                seeds;
              Ok ())
        in
        List.iter
          (fun (count, run) ->
            Option.iter
              (fun count ->
                let summary = run ~count () in
                Fmt.pr "%a@." Pet_check.Fuzz.pp summary;
                if not (Pet_check.Fuzz.passed summary) then incr failures)
              count)
          fuzzers;
        if !failures = 0 then Ok ()
        else
          Error
            ( false,
              Printf.sprintf "%d check run%s failed" !failures
                (if !failures = 1 then "" else "s") )
    in
    match result with Ok () -> `Ok () | Error e -> `Error e
  in
  let doc =
    "Validate a rule file and report basic statistics; with $(b,--seeds), \
     $(b,--fuzz) or $(b,--full), run the self-check harness: differential \
     testing across the four entailment backends, metamorphic \
     transformations, definition-level oracles for accuracy, minimality \
     and Nash equilibria, with failing problems shrunk to minimal \
     reproducers, and protocol fuzzing of the collection service."
  in
  Cmd.v (Cmd.info "check" ~doc)
    Term.(
      ret
        (const run $ source_opt_arg $ seeds_arg $ fuzz_arg $ fuzz_store_arg
       $ fuzz_corpus_arg $ fuzz_consent_arg $ fuzz_seed_arg
       $ samples_arg $ payoff_arg $ full_arg))

(* --- minimize ----------------------------------------------------------------- *)

let minimize_cmd =
  let run source bits backend mode =
    with_exposure source (fun exposure ->
        parse_valuation exposure bits (fun v ->
            let engine = Engine.create ~backend exposure in
            match A1.mas_of ~mode engine v with
            | choices ->
              List.iter
                (fun (c : A1.choice) ->
                  Fmt.pr "%a  proves {%a}@." Partial.pp c.A1.mas
                    Fmt.(list ~sep:(any ", ") string)
                    c.A1.benefits)
                choices;
              `Ok ()
            | exception Invalid_argument m -> `Error (false, m)))
  in
  let doc =
    "Compute the minimal accurate subvaluations (Algorithm 1) of a fully \
     filled form."
  in
  Cmd.v
    (Cmd.info "minimize" ~doc)
    Term.(ret (const run $ source_arg $ valuation_arg $ backend_arg $ mode_arg))

(* --- inform -------------------------------------------------------------------- *)

let inform_cmd =
  let run source bits backend payoff weights json =
    with_exposure source (fun exposure ->
        match effective_payoff exposure payoff weights with
        | Error m -> `Error (false, m)
        | Ok payoff ->
          parse_valuation exposure bits (fun v ->
              guarded @@ fun () ->
              let provider = Workflow.provider ~backend ~payoff exposure in
              match Workflow.report_for provider v with
              | Error m -> `Error (false, m)
              | Ok report ->
                if json then
                  Fmt.pr "%s@." (Json.to_string (Report.to_json report))
                else Fmt.pr "%a@." Report.pp report;
                `Ok ()))
  in
  let doc =
    "Produce the informed-consent report for an applicant: their choices \
     (MAS), the privacy payoff of each, what is revealed and what an \
     attacker deduces anyway, and the recommended choice (Algorithm 2)."
  in
  Cmd.v
    (Cmd.info "inform" ~doc)
    Term.(
      ret
        (const run $ source_arg $ valuation_arg $ backend_arg $ payoff_arg
       $ weights_arg $ json_arg))

(* --- atlas ----------------------------------------------------------------------- *)

let atlas_cmd =
  let run source backend payoff =
    with_exposure source (fun exposure ->
        guarded @@ fun () ->
        let engine = Engine.create ~backend exposure in
        let atlas = Atlas.build engine in
        Fmt.pr "%a@." Atlas.pp_summary atlas;
        let profile = Strategy.compute ~payoff atlas in
        Fmt.pr "@.%-20s %9s %8s %8s %9s@." "MAS" "potential" "forced"
          "plays" "payoff";
        for m = 0 to Atlas.mas_count atlas - 1 do
          let crowd = Profile.crowd profile m in
          Fmt.pr "%-20s %9d %8d %8d %9.0f@."
            (Partial.to_string (Atlas.mas atlas m).A1.mas)
            (List.length (Atlas.players_of_mas atlas m))
            (List.length (Atlas.forced_players_of_mas atlas m))
            (List.length crowd)
            (Payoff.value atlas payoff ~mas:m ~crowd)
        done;
        `Ok ())
  in
  let doc =
    "Build the full valuation/MAS bipartite graph and print the Table-2 \
     and Table-3 style statistics."
  in
  Cmd.v
    (Cmd.info "atlas" ~doc)
    Term.(ret (const run $ source_arg $ backend_arg $ payoff_arg))

(* --- graph ------------------------------------------------------------------------- *)

let graph_cmd =
  let figure_arg =
    let doc =
      "Which figure to export: $(b,lattice) (Figure 1) or $(b,choices) \
       (Figure 2, requires --valuation)."
    in
    Arg.(
      value
      & opt (enum [ ("lattice", `Lattice); ("choices", `Choices) ]) `Lattice
      & info [ "figure" ] ~doc)
  in
  let opt_valuation =
    Arg.(value & opt (some string) None & info [ "v"; "valuation" ] ~docv:"BITS")
  in
  let run source backend figure bits =
    with_exposure source (fun exposure ->
        guarded @@ fun () ->
        let engine = Engine.create ~backend exposure in
        let atlas = Atlas.build engine in
        match figure with
        | `Lattice -> (
          match Lattice.build atlas with
          | lattice ->
            print_string (Dot.lattice lattice);
            `Ok ()
          | exception Invalid_argument m -> `Error (false, m))
        | `Choices -> (
          match bits with
          | None -> `Error (true, "--figure choices requires --valuation")
          | Some bits ->
            parse_valuation exposure bits (fun v ->
                match Dot.choices atlas v with
                | dot ->
                  print_string dot;
                  `Ok ()
                | exception Invalid_argument m -> `Error (false, m))))
  in
  let doc = "Export the paper's figures as Graphviz (DOT) graphs." in
  Cmd.v
    (Cmd.info "graph" ~doc)
    Term.(
      ret (const run $ source_arg $ backend_arg $ figure_arg $ opt_valuation))

(* --- simulate ------------------------------------------------------------------------ *)

let simulate_cmd =
  let solidarity_arg =
    let doc = "Also look for solidarity improvements (Section 7)." in
    Arg.(value & flag & info [ "solidarity" ] ~doc)
  in
  let run source backend payoff solidarity =
    with_exposure source (fun exposure ->
        guarded @@ fun () ->
        let engine = Engine.create ~backend exposure in
        let atlas = Atlas.build engine in
        let profile = Strategy.compute ~payoff atlas in
        let refined, converged = Equilibrium.refine profile payoff in
        let n = Atlas.player_count atlas in
        let xp_size = Universe.size (Exposure.xp exposure) in
        let blanks =
          List.fold_left
            (fun acc i ->
              acc
              + Partial.blank_count
                  (Atlas.mas atlas (Profile.move_of refined i)).A1.mas)
            0 (List.init n Fun.id)
        in
        Fmt.pr "population: %d eligible valuations@." n;
        Fmt.pr "equilibrium: Algorithm 2%s, Nash: %b@."
          (if Profile.equal profile refined then ""
           else " + best-response refinement")
          (converged && Equilibrium.is_nash refined payoff);
        Fmt.pr "average minimization: %.1f%% of the form left blank@."
          (100. *. float_of_int blanks /. float_of_int (n * xp_size));
        if solidarity then
          for m = 0 to Atlas.mas_count atlas - 1 do
            match Solidarity.improve refined ~mas:m with
            | Some r -> Fmt.pr "solidarity: %a@." Solidarity.pp r
            | None -> ()
          done;
        `Ok ())
  in
  let doc =
    "Simulate the whole eligible population playing the game and report \
     aggregate privacy statistics."
  in
  Cmd.v
    (Cmd.info "simulate" ~doc)
    Term.(
      ret (const run $ source_arg $ backend_arg $ payoff_arg $ solidarity_arg))

(* --- audit ------------------------------------------------------------------------ *)

let audit_cmd =
  (* [pet audit <data-dir>]: offline WAL compliance replay — prove that
     everything a (possibly crashed) durable service left on disk is
     minimal, accurate and respects every revocation and expiry horizon
     in the log itself. Exit 1 on violations so CI can gate on it. *)
  let run_store ~json dir =
    match Pet_audit.Audit.run dir with
    | Error m -> `Error (false, m)
    | Ok report ->
      if json then
        print_endline (Json.to_string (Pet_audit.Audit.to_json report))
      else Pet_audit.Audit.pp Format.std_formatter report;
      if Pet_audit.Audit.pass report then `Ok ()
      else `Error (false, "compliance audit failed")
  in
  let run source json =
    if Sys.file_exists source && Sys.is_directory source then
      run_store ~json source
    else
    with_exposure source (fun exposure ->
        match Pet_minimize.Symbolic.build exposure with
        | exception Invalid_argument m -> `Error (false, m)
        | sym ->
          let stats = Pet_minimize.Symbolic.stats sym in
          let xp = Exposure.xp exposure in
          Fmt.pr "%d MAS over %d valuations@."
            (Pet_minimize.Symbolic.mas_count sym)
            (Pet_minimize.Symbolic.valuation_count sym);
          Fmt.pr "@.%-24s %8s %18s@." "predicate" "in MAS" "players needing it";
          let never = ref [] in
          List.iter
            (fun name ->
              let needing =
                List.filter
                  (fun (s : Pet_minimize.Symbolic.mas_stats) ->
                    Partial.defines s.mas name)
                  stats
              in
              let players =
                List.fold_left
                  (fun acc (s : Pet_minimize.Symbolic.mas_stats) ->
                    acc + s.potential)
                  0 needing
              in
              if needing = [] then never := name :: !never;
              Fmt.pr "%-24s %8d %18d@." name (List.length needing) players)
            (Universe.names xp);
          (match List.rev !never with
          | [] -> Fmt.pr "@.every predicate is needed by some minimized proof@."
          | never ->
            Fmt.pr
              "@.over-collection: %d of %d predicates are never required by \
               any minimized proof:@.  %s@."
              (List.length never) (Universe.size xp)
              (String.concat ", " never));
          `Ok ())
  in
  let doc =
    "Audit a rule set for over-collection, or — given a data directory — \
     replay its write-ahead log offline and prove compliance: every \
     persisted record is a minimal accurate form, no record outlives its \
     revocation or expiry horizon, nothing resurrects a tombstone, and \
     no raw valuation ever reached disk. Violations are reported with \
     their byte offsets; the exit status is nonzero if any are found."
  in
  Cmd.v (Cmd.info "audit" ~doc) Term.(ret (const run $ source_arg $ json_arg))

(* --- fill ------------------------------------------------------------------------- *)

let form_of_source = function
  | "running" -> Ok (Pet_casestudies.Running.form ())
  | "hcov" -> Ok (Pet_casestudies.Hcov.form ())
  | "rsa" -> Ok (Pet_casestudies.Rsa.form ())
  | "loan" -> Ok (Pet_casestudies.Loan.form ())
  | other ->
    Error
      (other
     ^ ": typed questionnaires exist for the built-in case studies only \
        (running, hcov, rsa, loan)")

let parse_answer (question : Pet_pet.Form.question) raw =
  let raw = String.trim raw in
  match question.Pet_pet.Form.kind with
  | Pet_pet.Form.Kint -> (
    match int_of_string_opt raw with
    | Some n -> Ok (Pet_pet.Form.Aint n)
    | None -> Error (Printf.sprintf "%s: expected a number" question.key))
  | Pet_pet.Form.Kbool -> (
    match String.lowercase_ascii raw with
    | "y" | "yes" | "true" | "1" -> Ok (Pet_pet.Form.Abool true)
    | "n" | "no" | "false" | "0" -> Ok (Pet_pet.Form.Abool false)
    | _ -> Error (Printf.sprintf "%s: expected yes or no" question.key))
  | Pet_pet.Form.Kchoice options ->
    if List.mem raw options then Ok (Pet_pet.Form.Achoice raw)
    else
      Error
        (Printf.sprintf "%s: expected one of: %s" question.key
           (String.concat ", " options))

(* Answers come either from stdin lines "key = value" (piped mode) or
   from interactive prompts when stdin is a terminal. *)
let read_answers form =
  let questions = Pet_pet.Form.questions form in
  let interactive = Unix.isatty Unix.stdin in
  if interactive then
    List.fold_left
      (fun acc (q : Pet_pet.Form.question) ->
        match acc with
        | Error _ as e -> e
        | Ok answers ->
          let rec ask () =
            Fmt.pr "%s @?" q.text;
            match In_channel.input_line stdin with
            | None -> Error "unexpected end of input"
            | Some line -> (
              match parse_answer q line with
              | Ok a -> Ok ((q.key, a) :: answers)
              | Error m ->
                Fmt.pr "%s@." m;
                ask ())
          in
          ask ())
      (Ok []) questions
  else begin
    let rec go acc =
      match In_channel.input_line stdin with
      | None -> Ok acc
      | Some line -> (
        let line = String.trim line in
        if line = "" || line.[0] = '#' then go acc
        else
          match String.index_opt line '=' with
          | None -> Error (Printf.sprintf "expected KEY = VALUE, got %S" line)
          | Some i -> (
            let key = String.trim (String.sub line 0 i) in
            let raw = String.sub line (i + 1) (String.length line - i - 1) in
            match
              List.find_opt
                (fun (q : Pet_pet.Form.question) -> q.key = key)
                questions
            with
            | None -> Error (Printf.sprintf "unknown question %S" key)
            | Some q -> (
              match parse_answer q raw with
              | Ok a -> go ((key, a) :: acc)
              | Error m -> Error m)))
    in
    go []
  end

let fill_cmd =
  let run source payoff weights json =
    match form_of_source source with
    | Error m -> `Error (false, m)
    | Ok form -> (
      let exposure = Pet_pet.Form.exposure form in
      match effective_payoff exposure payoff weights with
      | Error m -> `Error (false, m)
      | Ok payoff -> (
        match read_answers form with
        | Error m -> `Error (false, m)
        | Ok answers -> (
          match Pet_pet.Form.valuation form answers with
          | Error m -> `Error (false, m)
          | Ok v -> (
            guarded @@ fun () ->
            let provider = Workflow.provider ~payoff exposure in
            match Workflow.report_for provider v with
            | Error m -> `Error (false, m)
            | Ok report ->
              if json then
                Fmt.pr "%s@." (Json.to_string (Report.to_json report))
              else Fmt.pr "%a@." Report.pp report;
              `Ok ()))))
  in
  let doc =
    "Fill a built-in case study's typed questionnaire (interactively, or \
     from KEY = VALUE lines on stdin) and get the consent report. The \
     raw answers are compiled to predicates and immediately discarded."
  in
  Cmd.v
    (Cmd.info "fill" ~doc)
    Term.(ret (const run $ source_arg $ payoff_arg $ weights_arg $ json_arg))

(* --- serve ------------------------------------------------------------------------ *)

module Log = Pet_obs.Log

let serve_cmd =
  let deterministic_arg =
    let doc =
      "Use a logical clock (advancing 1s per clock read) instead of wall \
       time, making latencies and expiry reproducible for testing."
    in
    Arg.(value & flag & info [ "deterministic" ] ~doc)
  in
  let cache_arg =
    let doc = "Capacity of the compiled-engine LRU cache (at least 1)." in
    Arg.(value & opt int 16 & info [ "cache" ] ~docv:"N" ~doc)
  in
  let ttl_arg =
    let doc = "Session idle timeout in seconds (0 disables expiry)." in
    Arg.(value & opt float 3600. & info [ "ttl" ] ~docv:"SECONDS" ~doc)
  in
  let tenant_quota_arg =
    let doc =
      "Default cap on concurrently active sessions per tenant (0 = \
       unlimited). A tenant's own $(b,quota) parameter on publish_rules \
       or update_rules overrides it."
    in
    Arg.(value & opt int 0 & info [ "tenant-quota" ] ~docv:"N" ~doc)
  in
  let data_dir_arg =
    let doc =
      "Persist every rule set, session transition and grant to a \
       write-ahead log in $(docv), and recover the pre-crash state from \
       it on start. Without it the service is purely in-memory."
    in
    Arg.(value & opt (some string) None & info [ "data-dir" ] ~docv:"DIR" ~doc)
  in
  let no_fsync_arg =
    let doc =
      "Do not fsync each append (benchmarks only: an OS crash may then \
       lose acknowledged records; a process crash still cannot)."
    in
    Arg.(value & flag & info [ "no-fsync" ] ~doc)
  in
  let trace_slow_arg =
    let doc =
      "Also keep any request lasting at least $(docv) milliseconds in \
       the slow-trace ring (0 keeps every request there). Tracing itself \
       is always on under serve — every response carries a trace id and \
       the $(b,trace) protocol method reads the captures back; this flag \
       only sets the slow threshold (default: nothing is classified \
       slow)."
    in
    Arg.(value & opt (some float) None & info [ "trace-slow" ] ~docv:"MS" ~doc)
  in
  let log_level_arg =
    let doc =
      "Minimum level for structured log events on standard error: \
       $(b,debug), $(b,info), $(b,warn) or $(b,error)."
    in
    Arg.(value & opt string "info" & info [ "log-level" ] ~docv:"LEVEL" ~doc)
  in
  let log_json_arg =
    let doc =
      "Emit log events as JSON objects (ts, level, event, trace id, \
       fields) instead of the human-readable shape."
    in
    Arg.(value & flag & info [ "log-json" ] ~doc)
  in
  let stdio_arg =
    let doc =
      "Serve requests over standard input/output, one JSON line each way \
       (the default transport): the same serving core as $(b,--tcp), as \
       one shard with one connection. End of input, or a bare $(b,quit) \
       line, stops the service once every reply is written."
    in
    Arg.(value & flag & info [ "stdio" ] ~doc)
  in
  let tcp_arg =
    let doc =
      "Serve requests over TCP on 127.0.0.1:$(docv) instead of standard \
       input/output ($(docv) 0 picks an ephemeral port; see \
       $(b,--port-file)). Same line protocol; a bare $(b,quit) line \
       closes the connection."
    in
    Arg.(value & opt (some int) None & info [ "tcp" ] ~docv:"PORT" ~doc)
  in
  let domains_arg =
    let doc =
      "Number of worker domains for the TCP server. Sessions are sharded \
       by respondent-id hash, one shard per domain; all write-ahead-log \
       appends go through a single writer domain that group-commits \
       across shards."
    in
    Arg.(value & opt int 1 & info [ "domains" ] ~docv:"N" ~doc)
  in
  let port_file_arg =
    let doc =
      "Write the bound TCP port (one decimal line) to $(docv) once the \
       server is listening — how scripts find an ephemeral $(b,--tcp 0) \
       port."
    in
    Arg.(value & opt (some string) None & info [ "port-file" ] ~docv:"FILE" ~doc)
  in
  let flight_arg =
    let doc =
      "Attach the flight recorder: append identifier-only telemetry \
       records (delta-encoded metric snapshots, SLO burn rates, slow-trace \
       headers, log events, lifecycle marks) to $(b,flight-NNNNNN.log) \
       segments in the $(b,--data-dir) directory — flushed, never fsynced, \
       torn-tail tolerant. Read them back with $(b,pet flight report)."
    in
    Arg.(value & flag & info [ "flight" ] ~doc)
  in
  let run payoff deterministic cache ttl tenant_quota data_dir no_fsync
      trace_slow log_level log_json stdio tcp domains port_file flight =
    (* The deterministic clocks are atomic so the shards share one
       logical timeline. *)
    let now =
      if deterministic then (
        let tick = Atomic.make 0 in
        fun () -> float_of_int (Atomic.fetch_and_add tick 1 + 1))
      else Unix.gettimeofday
    in
    (* Observability is always on under [serve]. It gets its own clock:
       in deterministic mode a separate logical counter, so instrumented
       code reading the obs clock (store appends, spans) cannot perturb
       the service clock that request latencies, session expiry and the
       cram transcripts depend on. *)
    Pet_obs.Metrics.enable ();
    if deterministic then (
      let tick = Atomic.make 0 in
      Pet_obs.Metrics.set_clock (fun () ->
          float_of_int (Atomic.fetch_and_add tick 1 + 1)))
    else Pet_obs.Metrics.set_clock Unix.gettimeofday;
    (* Tracing rides on the obs clock above: always on under serve, one
       capture per request, the slow threshold set from --trace-slow. *)
    Pet_obs.Trace.enable ();
    Option.iter
      (fun ms -> Pet_obs.Trace.set_slow_threshold (ms /. 1000.))
      trace_slow;
    Log.set_json log_json;
    match Log.level_of_string log_level with
    | None ->
      `Error
        ( false,
          Printf.sprintf
            "--log-level %s: expected debug, info, warn or error" log_level )
    | Some level ->
    Log.set_level level;
    let resolve name =
      match load_exposure name with
      | Ok exposure when List.mem name [ "running"; "hcov"; "rsa"; "loan" ] ->
        Some (Spec.to_string exposure)
      | _ -> None
    in
    if cache < 1 then
      `Error (false, Printf.sprintf "--cache %d: expected at least 1" cache)
    else if stdio && tcp <> None then
      `Error (false, "--stdio and --tcp are mutually exclusive")
    else if tcp = None && domains <> 1 then
      `Error (false, "--domains only applies to the TCP server (--tcp)")
    else if flight && data_dir = None then
      `Error
        ( false,
          "--flight requires --data-dir (the journal lives in the data \
           directory)" )
    else
    let opened =
      match data_dir with
      | None -> Ok (None, None, None)
      | Some dir -> (
        match Pet_store.Store.open_dir ~fsync:(not no_fsync) dir with
        | Error m -> Error (Printf.sprintf "--data-dir %s: %s" dir m)
        | Ok (store, recovery) ->
          if not flight then Ok (Some store, Some recovery, None)
          else
            match Pet_store.Flight_log.open_dir dir with
            | Ok fl -> Ok (Some store, Some recovery, Some fl)
            | Error m ->
              Pet_store.Store.close store;
              Error (Printf.sprintf "--flight: %s" m))
    in
    match opened with
    | Error m -> `Error (false, m)
    | Ok (store, recovery, fl) ->
    let close () =
      Option.iter Pet_store.Flight_log.close fl;
      Option.iter Pet_store.Store.close store
    in
    let listen =
      match tcp with
      | Some port -> Pet_net.Server.Tcp port
      | None -> Pet_net.Server.Stdio (stdin, stdout)
    in
    match
      Pet_net.Server.start ~payoff ~capacity:cache ~ttl
        ~tenant_quota ~resolve ?store ?recovery
        ~sweep_interval:(if deterministic then 0. else 1.)
        ?flight:fl ~domains ~listen ~now ()
    with
    | Error m ->
      close ();
      `Error (false, m)
    | Ok server ->
      Option.iter
        (fun file ->
          Out_channel.with_open_text file (fun oc ->
              Printf.fprintf oc "%d\n" (Pet_net.Server.port server)))
        port_file;
      let result = Pet_net.Server.wait server in
      Pet_net.Server.stop server;
      close ();
      match result with
      | Ok () -> `Ok ()
      | Error m -> `Error (false, m)
  in
  let doc =
    "Run the collection service: read one JSON request per line from \
     standard input, write one JSON response per line to standard output \
     (methods: publish_rules, update_rules, new_session, get_report, \
     choose_option, submit_form, revoke, expire, audit, tenant, stats, \
     metrics, trace, watch). \
     Compiled rule engines are cached across \
     sessions; sessions expire after $(b,--ttl) idle seconds; raw \
     valuations are erased the moment an option is chosen. Forms published \
     with a $(b,tenant) parameter become versioned tenants: updates \
     rebuild in the background and hot-swap atomically, while open \
     sessions keep the version they started on. With \
     $(b,--data-dir) the service is durable: every state change is \
     appended to a checksummed write-ahead log before it is acknowledged, \
     and a restart recovers the rule sets, sessions and consent archive \
     (ids continuing where they left off); the log is compacted as it \
     grows. With $(b,--tcp) the same protocol is served over localhost \
     TCP by $(b,--domains) worker domains (sessions sharded by id, log \
     appends group-committed through a single writer domain)."
  in
  Cmd.v
    (Cmd.info "serve" ~doc)
    Term.(
      ret
        (const run $ payoff_arg $ deterministic_arg $ cache_arg $ ttl_arg
       $ tenant_quota_arg $ data_dir_arg $ no_fsync_arg $ trace_slow_arg
       $ log_level_arg $ log_json_arg $ stdio_arg $ tcp_arg $ domains_arg
       $ port_file_arg $ flight_arg))

(* --- ping ------------------------------------------------------------------------- *)

let ping_cmd =
  let addr_arg =
    let doc = "Server address, e.g. 127.0.0.1:7464." in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"HOST:PORT" ~doc)
  in
  let run addr =
    match Pet_net.Dial.connect addr with
    | Error m -> `Error (false, m)
    | Ok fd ->
      let ic = Unix.in_channel_of_descr fd in
      let oc = Unix.out_channel_of_descr fd in
      (* One request line in, one response line out — the transport's
         own contract — so interleaving stays lockstep and transcripts
         are deterministic. *)
      let rec pump () =
        match In_channel.input_line stdin with
        | None -> `Ok ()
        | Some line ->
          if String.trim line = "" then pump ()
          else begin
            output_string oc line;
            output_char oc '\n';
            flush oc;
            if String.trim line = "quit" then `Ok ()
            else
              match In_channel.input_line ic with
              | Some response ->
                print_endline response;
                flush stdout;
                pump ()
              | None ->
                `Error (false, "server closed the connection")
          end
      in
      let result =
        try pump () with
        | Sys_error m -> `Error (false, m)
        | End_of_file -> `Error (false, "server closed the connection")
      in
      close_out_noerr oc;
      result
  in
  let doc =
    "Line-protocol smoke client for $(b,pet serve --tcp): connect, \
     forward each standard-input line as a request, print each response \
     line; a bare $(b,quit) line closes the connection."
  in
  Cmd.v (Cmd.info "ping" ~doc) Term.(ret (const run $ addr_arg))

(* --- corpus ----------------------------------------------------------------------- *)

module Corpus = Pet_corpus.Corpus

let corpus_cmd =
  let seed_arg =
    let doc = "Corpus seed; every output is a pure function of it." in
    Arg.(value & opt int 0 & info [ "seed" ] ~docv:"N" ~doc)
  in
  let lo_arg =
    let doc = "Smallest form size (predicates) to generate." in
    Arg.(value & opt int Corpus.min_size & info [ "lo" ] ~docv:"N" ~doc)
  in
  let hi_arg =
    let doc =
      "Largest form size to generate. Above 24 predicates a form \
       publishes but its background build fails (the atlas enumeration \
       bound) — included in the default band on purpose."
    in
    Arg.(value & opt int Corpus.max_size & info [ "hi" ] ~docv:"N" ~doc)
  in
  let count_arg =
    let doc = "Number of tenants in the scenario." in
    Arg.(value & opt int 20 & info [ "count"; "tenants" ] ~docv:"N" ~doc)
  in
  let digest_of text =
    match Spec.parse text with
    | Ok exposure -> Pet_server.Registry.digest (Spec.to_string exposure)
    | Error m -> Printf.sprintf "<parse error: %s>" m
  in
  let form_cmd =
    let index_arg =
      let doc = "Tenant index (0-based)." in
      Arg.(required & pos 0 (some int) None & info [] ~docv:"INDEX" ~doc)
    in
    let size_arg =
      let doc = "Exact form size, overriding the seeded size draw." in
      Arg.(value & opt (some int) None & info [ "size" ] ~docv:"N" ~doc)
    in
    let revision_arg =
      let doc =
        "Rule revision (1-based): same fields, re-rolled rule bodies — \
         what an $(b,update_rules) publishes."
      in
      Arg.(value & opt int 1 & info [ "revision" ] ~docv:"N" ~doc)
    in
    let run seed size revision index =
      guarded @@ fun () ->
      let form = Corpus.form ~seed ?size ~revision index in
      print_string form.Corpus.text;
      `Ok ()
    in
    let doc =
      "Print one corpus form's rule text (the $(b,publish_rules) \
       payload) to standard output."
    in
    Cmd.v (Cmd.info "form" ~doc)
      Term.(ret (const run $ seed_arg $ size_arg $ revision_arg $ index_arg))
  in
  let scenario_cmd =
    let run seed lo hi count =
      guarded @@ fun () ->
      let scenario = Corpus.scenario ~seed ~lo ~hi ~count () in
      Array.iteri
        (fun i (form : Corpus.form) ->
          Fmt.pr "%-28s size=%-2d share=%5.1f%% digest=%s@." form.Corpus.name
            form.Corpus.size
            (100. *. scenario.Corpus.popularity.(i))
            (digest_of form.Corpus.text))
        scenario.Corpus.forms;
      `Ok ()
    in
    let doc =
      "List a scenario's tenants: name, form size, Zipf traffic share \
       and rule digest, one line each."
    in
    Cmd.v (Cmd.info "scenario" ~doc)
      Term.(ret (const run $ seed_arg $ lo_arg $ hi_arg $ count_arg))
  in
  let drive_cmd =
    let addr_arg =
      let doc = "Server address, e.g. 127.0.0.1:7464." in
      Arg.(
        required & pos 0 (some string) None & info [] ~docv:"HOST:PORT" ~doc)
    in
    let sessions_arg =
      let doc = "Number of respondent sessions to run." in
      Arg.(value & opt int 200 & info [ "sessions" ] ~docv:"N" ~doc)
    in
    let update_every_arg =
      let doc =
        "Between sessions, publish a rule update to a Zipf-picked tenant \
         every $(docv) sessions (0 disables updates)."
      in
      Arg.(value & opt int 0 & info [ "update-every" ] ~docv:"K" ~doc)
    in
    let run seed lo hi count sessions update_every addr =
      match Pet_net.Dial.connect addr with
      | Error m -> `Error (false, m)
      | Ok fd -> (
        let ic = Unix.in_channel_of_descr fd in
        let oc = Unix.out_channel_of_descr fd in
        (* Lockstep request/response over one connection: a drive
           measures the mix, not concurrency (the bench harness does
           that). *)
        let call request =
          output_string oc (Json.to_string request);
          output_char oc '\n';
          flush oc;
          match In_channel.input_line ic with
          | Some line -> Json.parse_exn line
          | None -> failwith "server closed the connection"
        in
        let req method_ params =
          Json.Obj
            [
              ("pet", Json.Int 1);
              ("method", Json.String method_);
              ("params", Json.Obj params);
            ]
        in
        let error_code response =
          match Json.member "error" response with
          | Some e ->
            Option.bind (Json.member "code" e) Json.string_opt
          | None -> None
        in
        let result_field response name =
          Option.bind (Json.member "ok" response) (Json.member name)
        in
        let scenario = Corpus.scenario ~seed ~lo ~hi ~count () in
        let forms = Array.map (fun f -> ref f) scenario.Corpus.forms in
        let rng = Random.State.make [| seed; 11 |] in
        let published = ref 0
        and build_failures = ref 0
        and updates = ref 0
        and opened = ref 0
        and ineligible = ref 0
        and quota_refused = ref 0
        and submitted = ref 0
        and unexpected = ref [] in
        let expect kind response allowed =
          match error_code response with
          | None -> true
          | Some code ->
            if List.mem code allowed then false
            else begin
              unexpected := Printf.sprintf "%s: %s" kind code :: !unexpected;
              false
            end
        in
        let barrier name =
          (* tenant+wait blocks until the tenant's builds settle; the
             response's state tells whether the build survived. *)
          let response =
            call
              (req "tenant"
                 [ ("name", Json.String name); ("wait", Json.Bool true) ])
          in
          match Option.bind (result_field response "state") Json.string_opt with
          | Some "failed" -> `Failed
          | Some _ -> `Ready
          | None -> `Ready
        in
        (match
           for i = 0 to count - 1 do
             let form = !(forms.(i)) in
             let response =
               call
                 (req "publish_rules"
                    [
                      ("rules", Json.String form.Corpus.text);
                      ("tenant", Json.String form.Corpus.name);
                    ])
             in
             if expect "publish_rules" response [] then begin
               incr published;
               match barrier form.Corpus.name with
               | `Failed -> incr build_failures
               | `Ready -> ()
             end
           done;
           for r = 0 to sessions - 1 do
             if update_every > 0 && r mod update_every = update_every - 1
             then begin
               let i = Corpus.pick rng scenario.Corpus.popularity in
               let next = Corpus.update ~seed !(forms.(i)) in
               let response =
                 call
                   (req "update_rules"
                      [
                        ("tenant", Json.String next.Corpus.name);
                        ("rules", Json.String next.Corpus.text);
                      ])
               in
               if expect "update_rules" response [] then begin
                 forms.(i) := next;
                 incr updates;
                 ignore (barrier next.Corpus.name)
               end
             end;
             let i = Corpus.pick rng scenario.Corpus.popularity in
             let form = !(forms.(i)) in
             let response =
               call
                 (req "new_session"
                    [ ("tenant", Json.String form.Corpus.name) ])
             in
             (match error_code response with
             | Some "quota_exceeded" -> incr quota_refused
             | Some "build_failed" -> ()
               (* oversized corpus forms fail their build by design *)
             | Some code ->
               unexpected :=
                 Printf.sprintf "new_session: %s" code :: !unexpected
             | None -> (
               incr opened;
               match
                 Option.bind (result_field response "session")
                   Json.string_opt
               with
               | None -> unexpected := "new_session: no id" :: !unexpected
               | Some session ->
                 let response =
                   call
                     (req "get_report"
                        [
                          ("session", Json.String session);
                          ( "valuation",
                            Json.String (Corpus.valuation ~seed form r) );
                        ])
                 in
                 if
                   expect "get_report" response [ "ineligible" ]
                 then begin
                   let response =
                     call
                       (req "choose_option"
                          [
                            ("session", Json.String session);
                            ("option", Json.Int 0);
                          ])
                   in
                   if expect "choose_option" response [] then
                     let response =
                       call
                         (req "submit_form"
                            [ ("session", Json.String session) ])
                     in
                     if expect "submit_form" response [] then incr submitted
                 end
                 else if error_code response = Some "ineligible" then
                   incr ineligible))
           done
         with
        | () ->
          close_out_noerr oc;
          Fmt.pr "tenants    %d published, %d build failures@." !published
            !build_failures;
          Fmt.pr "updates    %d@." !updates;
          Fmt.pr
            "sessions   %d opened, %d ineligible, %d quota refusals, %d \
             submitted@."
            !opened !ineligible !quota_refused !submitted;
          let unexpected = List.sort_uniq compare !unexpected in
          if unexpected = [] then `Ok ()
          else begin
            List.iter (Fmt.epr "unexpected error: %s@.") unexpected;
            `Error (false, "the drive hit unexpected protocol errors")
          end
        | exception Failure m ->
          close_out_noerr oc;
          `Error (false, m)
        | exception Sys_error m ->
          close_out_noerr oc;
          `Error (false, m)
        | exception End_of_file ->
          close_out_noerr oc;
          `Error (false, "server closed the connection")))
    in
    let doc =
      "Drive a corpus scenario against a running $(b,pet serve --tcp): \
       publish every tenant, then run a Zipf-weighted session mix \
       (new_session, get_report, choose first option, submit_form) with \
       optional interleaved rule updates, and print the outcome counts. \
       Exits non-zero on any protocol error other than the expected \
       $(b,ineligible), $(b,quota_exceeded) and oversized-form \
       $(b,build_failed) answers."
    in
    Cmd.v (Cmd.info "drive" ~doc)
      Term.(
        ret
          (const run $ seed_arg $ lo_arg $ hi_arg $ count_arg $ sessions_arg
         $ update_every_arg $ addr_arg))
  in
  let doc =
    "Work with the seeded realistic form corpus (contact, demographic, \
     financial and health field families; sizes 8-40; Zipf tenant \
     popularity). The same seed reproduces the same forms everywhere: \
     print them, list scenarios, or drive one against a live server."
  in
  Cmd.group
    (Cmd.info "corpus" ~doc)
    [ form_cmd; scenario_cmd; drive_cmd ]

(* --- store ------------------------------------------------------------------------ *)

let store_dir_arg =
  let doc = "The data directory of a durable collection service." in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"DIR" ~doc)

let store_inspect_cmd =
  let run dir =
    match Pet_store.Store.scan dir with
    | Error m -> `Error (false, m)
    | Ok reports ->
      let records = ref 0 and bytes = ref 0 and kinds = Hashtbl.create 8 in
      List.iter
        (fun (r : Pet_store.Store.file_report) ->
          records := !records + r.Pet_store.Store.records;
          bytes := !bytes + r.Pet_store.Store.bytes;
          List.iter
            (fun (kind, n) ->
              Hashtbl.replace kinds kind
                (n + Option.value ~default:0 (Hashtbl.find_opt kinds kind)))
            r.Pet_store.Store.kinds;
          Fmt.pr "%-16s %8d bytes %6d record(s)%s@." r.Pet_store.Store.file
            r.Pet_store.Store.bytes r.Pet_store.Store.records
            (match r.Pet_store.Store.damage with
            | [] -> ""
            | damage -> Printf.sprintf "  %d damaged" (List.length damage)))
        reports;
      Fmt.pr "total: %d file(s), %d bytes, %d record(s)@." (List.length reports)
        !bytes !records;
      Hashtbl.fold (fun kind n acc -> (kind, n) :: acc) kinds []
      |> List.sort compare
      |> List.iter (fun (kind, n) -> Fmt.pr "  %-18s %6d@." kind n);
      `Ok ()
  in
  let doc = "List the snapshot and segments with record and event counts." in
  Cmd.v (Cmd.info "inspect" ~doc) Term.(ret (const run $ store_dir_arg))

let store_verify_cmd =
  let run dir =
    match Pet_store.Store.scan dir with
    | Error m -> `Error (false, m)
    | Ok reports ->
      let records =
        List.fold_left
          (fun acc (r : Pet_store.Store.file_report) ->
            acc + r.Pet_store.Store.records)
          0 reports
      in
      let faults =
        List.concat_map
          (fun (r : Pet_store.Store.file_report) ->
            List.map (fun d -> ("damage", d)) r.Pet_store.Store.damage
            @ List.map (fun v -> ("R2 violation", v)) r.Pet_store.Store.r2)
          reports
      in
      List.iter
        (fun (label, (d : Pet_store.Store.damage)) ->
          Fmt.pr "%s: %s at byte %d: %s@." label d.Pet_store.Store.file
            d.Pet_store.Store.offset d.Pet_store.Store.reason)
        faults;
      if faults = [] then begin
        Fmt.pr
          "ok: %d record(s) in %d file(s); every checksum holds and no \
           decoded event carries a raw valuation (R2 on disk)@."
          records (List.length reports);
        `Ok ()
      end
      else
        `Error
          ( false,
            Printf.sprintf "%d fault(s) in %d file(s)" (List.length faults)
              (List.length reports) )
  in
  let doc =
    "Check every record: framing, CRC-32 checksums (damage is reported \
     with its byte offset, torn tails included) and the R2-on-disk \
     invariant that no decoded event contains a full valuation."
  in
  Cmd.v (Cmd.info "verify" ~doc) Term.(ret (const run $ store_dir_arg))

let store_replay_cmd =
  let run dir =
    match Pet_store.Store.read dir with
    | Error m -> `Error (false, m)
    | Ok recovery ->
      List.iter
        (fun event ->
          print_endline (Json.to_string (Pet_server.Persist.to_json event)))
        recovery.Pet_store.Store.events;
      (match recovery.Pet_store.Store.damage with
      | [] -> `Ok ()
      | (d : Pet_store.Store.damage) :: _ ->
        `Error
          ( false,
            Printf.sprintf "replay stopped at byte %d of %s: %s"
              d.Pet_store.Store.offset d.Pet_store.Store.file
              d.Pet_store.Store.reason ))
  in
  let doc =
    "Print the recovered event stream (the longest clean prefix) as one \
     JSON object per line, without modifying the directory."
  in
  Cmd.v (Cmd.info "replay" ~doc) Term.(ret (const run $ store_dir_arg))

let store_compact_cmd =
  let ttl_arg =
    let doc =
      "Drop sessions idle longer than $(docv) seconds (relative to the \
       newest event in the log; 0 keeps every session). Grants and rule \
       sets are always kept."
    in
    Arg.(value & opt float 3600. & info [ "ttl" ] ~docv:"SECONDS" ~doc)
  in
  let run dir ttl =
    match Pet_store.Store.open_dir dir with
    | Error m -> `Error (false, m)
    | Ok (store, _) -> (
      let warn (d : Pet_store.Store.damage) =
        Fmt.epr
          "warning: replay stopped at byte %d of %s (%s); compacting the \
           clean prefix@."
          d.Pet_store.Store.offset d.Pet_store.Store.file
          d.Pet_store.Store.reason
      in
      let result = Pet_store.Store.compact_chain ~ttl ~on_damage:warn store in
      Pet_store.Store.close store;
      match result with
      | Error m -> `Error (false, m)
      | Ok c ->
        Fmt.pr "compacted %d event(s) into a snapshot of %d; %d file(s) retired@."
          c.Pet_store.Store.read c.Pet_store.Store.kept c.Pet_store.Store.retired;
        `Ok ())
  in
  let doc =
    "Squash the log into a snapshot (rule sets, grants and surviving \
     sessions) and retire the replaced segments."
  in
  Cmd.v (Cmd.info "compact" ~doc) Term.(ret (const run $ store_dir_arg $ ttl_arg))

let store_cmd =
  let doc =
    "Inspect, verify, replay or compact the write-ahead log behind a \
     durable collection service ($(b,pet serve --data-dir))."
  in
  Cmd.group
    (Cmd.info "store" ~doc)
    [ store_inspect_cmd; store_verify_cmd; store_replay_cmd; store_compact_cmd ]

(* --- profile ----------------------------------------------------------------------- *)

let profile_cmd =
  let samples_arg =
    let doc =
      "Build a consent report for at most $(docv) eligible applicants \
       (0 profiles the construction phases only)."
    in
    Arg.(value & opt int 50 & info [ "samples" ] ~docv:"N" ~doc)
  in
  let run source backend payoff samples =
    match load_exposure source with
    | Error m -> `Error (false, m)
    | Ok exposure ->
      Pet_obs.Metrics.enable ();
      let wall0 = Unix.gettimeofday () in
      (* Everything measurable runs under one root span, so the tree's
         per-phase totals account for the whole profiled wall-clock (the
         residue outside the root is the harness's own bookkeeping). *)
      let provider = ref None in
      Pet_obs.Span.enter "profile" (fun () ->
          let p = Workflow.provider ~backend ~payoff exposure in
          provider := Some p;
          let atlas = Workflow.atlas p in
          let n = min samples (Pet_minimize.Atlas.player_count atlas) in
          Pet_obs.Span.enter "reports" (fun () ->
              for i = 0 to n - 1 do
                ignore
                  (Workflow.report_for p (Pet_minimize.Atlas.player atlas i))
              done));
      let wall = Unix.gettimeofday () -. wall0 in
      Option.iter (fun p -> Engine.sync_obs (Workflow.engine p)) !provider;
      let profiled = Pet_obs.Span.total () in
      Fmt.pr "profile %s (backend %s)@." source (Engine.backend_name backend);
      Fmt.pr "%s" (Pet_obs.Span.render ~out_total:wall ());
      Fmt.pr "profiled %.6fs of %.6fs wall-clock (%.1f%%)@." profiled wall
        (if wall > 0. then 100. *. profiled /. wall else 100.);
      Fmt.pr "counters: %s@."
        (Pet_obs.Export.line (Pet_obs.Metrics.snapshot ()));
      `Ok ()
  in
  let doc =
    "Profile the PET pipeline on a rule set: compile the engine, build \
     the MAS atlas (Algorithm 1 per applicant), compute the equilibrium \
     profile (Algorithm 2) and build consent reports, then print the \
     span-tree cost breakdown with per-phase totals, self-times and \
     shares of wall-clock, plus the solver/engine counters."
  in
  Cmd.v
    (Cmd.info "profile" ~doc)
    Term.(
      ret (const run $ source_arg $ backend_arg $ payoff_arg $ samples_arg))

(* --- trace ------------------------------------------------------------------------- *)

let trace_cmd =
  let chrome_arg =
    let doc =
      "Also write the capture as Chrome trace_event JSON to $(docv) \
       (load it in chrome://tracing or Perfetto)."
    in
    Arg.(value & opt (some string) None & info [ "chrome" ] ~docv:"FILE" ~doc)
  in
  let deterministic_arg =
    let doc =
      "Time the capture with a logical clock (1s per clock read) instead \
       of wall time, making the output byte-stable for tests."
    in
    Arg.(value & flag & info [ "deterministic" ] ~doc)
  in
  let run source backend payoff chrome deterministic =
    match load_exposure source with
    | Error m -> `Error (false, m)
    | Ok exposure -> (
      Pet_obs.Metrics.enable ();
      Pet_obs.Trace.enable ();
      if deterministic then (
        let tick = ref 0 in
        Pet_obs.Metrics.set_clock (fun () ->
            incr tick;
            float_of_int !tick))
      else Pet_obs.Metrics.set_clock Unix.gettimeofday;
      let module Trace = Pet_obs.Trace in
      let id = Trace.generate_id () in
      Trace.run ~id (fun () ->
          Trace.annotate "source" (Trace.String source);
          Trace.annotate "backend"
            (Trace.String (Engine.backend_name backend));
          let p = Workflow.provider ~backend ~payoff exposure in
          let atlas = Workflow.atlas p in
          if Pet_minimize.Atlas.player_count atlas > 0 then
            ignore (Workflow.report_for p (Pet_minimize.Atlas.player atlas 0)));
      match Trace.find id with
      | None -> `Error (false, "the capture was not recorded")
      | Some tr ->
        Fmt.pr "%s" (Trace.render tr);
        (match chrome with
        | None -> ()
        | Some file ->
          Out_channel.with_open_bin file (fun oc ->
              Out_channel.output_string oc (Trace.chrome tr);
              Out_channel.output_char oc '\n');
          Fmt.pr "wrote %s@." file);
        `Ok ())
  in
  let doc =
    "Run the full PET pipeline once on a rule set — compile the engine, \
     build the MAS atlas, produce one consent report — under a \
     request-scoped trace capture, and print the span tree with exact \
     per-entry timings (what happened, in order — where $(b,pet \
     profile) prints aggregates). The capture carries only identifiers \
     (source name, backend), never form data."
  in
  Cmd.v
    (Cmd.info "trace" ~doc)
    Term.(
      ret
        (const run $ source_arg $ backend_arg $ payoff_arg $ chrome_arg
       $ deterministic_arg))

(* --- flight ----------------------------------------------------------------------- *)

module Flight_view = Pet_store.Flight_view

let flight_report_cmd =
  let dir_arg =
    let doc = "The data directory holding the flight-NNNNNN.log segments." in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"DIR" ~doc)
  in
  let json_arg =
    let doc = "Emit the reconstruction as one JSON object." in
    Arg.(value & flag & info [ "json" ] ~doc)
  in
  let run dir json =
    match Flight_view.report dir with
    | Error m -> `Error (false, Printf.sprintf "%s: %s" dir m)
    | Ok report when json ->
      print_endline (Json.to_string report);
      `Ok ()
    | Ok report ->
      let get key j = Option.value ~default:Json.Null (Json.member key j) in
      let num key j =
        match get key j with Json.Int i -> float_of_int i | Json.Float f -> f | _ -> 0.
      in
      let int key j = int_of_float (num key j) in
      let str key j = match get key j with Json.String s -> s | _ -> "" in
      let list key = match get key report with Json.List l -> l | _ -> [] in
      let kind k = int k (get "kinds" report) in
      Fmt.pr "flight journal %s: %d records (%d snap, %d log, %d trace, %d \
              meta)@."
        dir (int "records" report) (kind "snap") (kind "log") (kind "trace")
        (kind "meta");
      if int "records" report > 0 then
        Fmt.pr "  time range t=%g..%g@." (num "t_min" report) (num "t_max" report);
      if int "unparsed" report > 0 then
        Fmt.pr "  unparsed records: %d@." (int "unparsed" report);
      List.iter
        (fun d ->
          Fmt.pr "  damage %s:%d %s@." (str "file" d) (int "offset" d) (str "reason" d))
        (list "damage");
      List.iter
        (fun e -> Fmt.pr "  lifecycle %s at t=%g@." (str "event" e) (num "t" e))
        (list "lifecycle");
      (match get "wal" report with
      | Json.Null -> ()
      | w ->
        Fmt.pr "  wal frontier %s:%d at t=%g (byte offsets as in pet audit \
                --json)@."
          (str "file" w) (int "off" w) (num "t" w));
      List.iter
        (fun (title, rows, label) ->
          if rows <> [] then begin
            Fmt.pr "%s@." title;
            List.iter
              (fun r ->
                Fmt.pr "  %-16s %8d requests  p99 <= %gs@." (str label r)
                  (int "requests" r) (num "p99_s" r))
              rows
          end)
        [
          ("per-method latency (reconstructed):", list "methods", "method");
          ("per-tenant latency (reconstructed):", list "tenants", "tenant");
        ];
      if list "slo" <> [] then Fmt.pr "slo (last window seen / peak burn):@.";
      List.iter
        (fun r ->
          Fmt.pr
            "  %-24s %6d req  p99=%gs err=%.4f  burn err=%.2f (peak %.2f) \
             lat=%.2f (peak %.2f)%s@."
            (str "key" r) (int "window_requests" r) (num "p99_s" r)
            (num "error_ratio" r) (num "error_burn" r) (num "error_burn_max" r)
            (num "latency_burn" r) (num "latency_burn_max" r)
            (if get "breached" r = Json.Bool true then "  BREACHED" else ""))
        (list "slo");
      `Ok ()
  in
  let doc =
    "Reconstruct the story a flight journal tells: record counts and \
     damage, lifecycle marks, per-method and per-tenant latency \
     distributions summed back from the snapshot deltas, SLO burn-rate \
     series, and the last write-ahead-log frontier stamp (the same byte \
     offsets $(b,pet audit --json) and $(b,pet store inspect) use)."
  in
  Cmd.v (Cmd.info "report" ~doc) Term.(ret (const run $ dir_arg $ json_arg))

let flight_replay_cmd =
  let dir_arg =
    let doc = "The data directory holding the flight-NNNNNN.log segments." in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"DIR" ~doc)
  in
  let run dir =
    match
      Pet_store.Flight_log.fold dir ~init:() (fun () r ->
          Printf.printf "%s:%d %s\n" r.Pet_store.Flight_log.file
            r.Pet_store.Flight_log.offset r.Pet_store.Flight_log.payload)
    with
    | Error m -> `Error (false, Printf.sprintf "%s: %s" dir m)
    | Ok ((), damage) ->
      List.iter
        (fun (d : Pet_store.Flight_log.damage) ->
          Printf.eprintf "damage %s:%d %s\n" d.Pet_store.Flight_log.dfile
            d.Pet_store.Flight_log.doffset d.Pet_store.Flight_log.dreason)
        damage;
      `Ok ()
  in
  let doc =
    "Print every readable flight record in order, prefixed with its \
     $(b,file:offset) coordinate (torn tails are truncated silently, \
     mid-journal damage goes to standard error and scanning continues)."
  in
  Cmd.v (Cmd.info "replay" ~doc) Term.(ret (const run $ dir_arg))

let flight_cmd =
  let doc =
    "Read the flight-recorder journal written by $(b,pet serve --flight): \
     delta-encoded metric snapshots, SLO burn rates, slow-trace headers, \
     log events and lifecycle marks, identifier-only by construction."
  in
  Cmd.group (Cmd.info "flight" ~doc) [ flight_report_cmd; flight_replay_cmd ]

(* --- top -------------------------------------------------------------------------- *)

let top_cmd =
  let addr_arg =
    let doc = "Server address, e.g. 127.0.0.1:7464." in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"HOST:PORT" ~doc)
  in
  let interval_arg =
    let doc = "Seconds between frames." in
    Arg.(value & opt float 1.0 & info [ "interval" ] ~docv:"SECONDS" ~doc)
  in
  let frames_arg =
    let doc = "Stop after $(docv) frames (0 streams until interrupted)." in
    Arg.(value & opt int 0 & info [ "frames" ] ~docv:"N" ~doc)
  in
  let run addr interval frames =
    match Pet_net.Dial.connect addr with
    | Error m -> `Error (false, m)
    | Ok fd ->
      let ic = Unix.in_channel_of_descr fd in
      let oc = Unix.out_channel_of_descr fd in
      output_string oc
        (Printf.sprintf
           "{\"pet\":1,\"id\":1,\"method\":\"watch\",\"params\":{\"interval\":%g,\"frames\":%d}}\n"
           interval frames);
      flush oc;
      (* Each frame is a full snapshot (the server starts a fresh
         delta encoder per frame), so rates are the difference of
         consecutive frames over their timestamps. *)
      let render frame_no prev (frame : Flight_view.frame) =
        if Unix.isatty Unix.stdout then print_string "\027[H\027[2J";
        let dt =
          match prev with
          | Some (p : Flight_view.frame) when frame.t -. p.t > 0. -> Some (frame.t -. p.t)
          | _ -> None
        in
        let rate cur_v prev_v =
          match dt with
          | Some dt -> Printf.sprintf "%8.1f/s" ((cur_v -. prev_v) /. dt)
          | None -> "       --"
        in
        let counter = Flight_view.sample frame.counters in
        let gauge = Flight_view.sample frame.gauges in
        let prev_counter =
          Flight_view.sample
            (match prev with Some p -> p.Flight_view.counters | None -> [])
        in
        let total = counter "pet_server_requests_total" in
        let errors = counter "pet_server_errors_total" in
        Fmt.pr "pet top %s — frame %d, t=%g@." addr frame_no frame.t;
        Fmt.pr "requests %8.0f %s   errors %8.0f %s@." total
          (rate total (prev_counter "pet_server_requests_total"))
          errors
          (rate errors (prev_counter "pet_server_errors_total"));
        Fmt.pr
          "sessions active %g   commit queue %g   tenants %g   uptime %gs@."
          (gauge "pet_sessions_active")
          (gauge "pet_net_commit_queue_depth")
          (gauge "pet_tenants")
          (gauge "pet_process_uptime_seconds");
        (* Per-method rows from the request-latency histograms: the
           frame-to-frame count delta is the rate, the bucket deltas give
           the interval p99 (full-frame p99 on the first frame). *)
        let methods = Flight_view.method_latency ?prev frame in
        if methods <> [] then begin
          Fmt.pr "per-method:@.";
          List.iter
            (fun (m, n, pn, p99) ->
              Fmt.pr "  %-16s %8.0f req %s  p99 <= %gs@." m n (rate n pn) p99)
            methods
        end;
        (* Per-tenant and SLO rows ride the same gauge/counter
           families the Prometheus export serves. *)
        let tenants =
          Flight_view.series "pet_tenant_requests_total" "tenant"
            frame.counters
        in
        if tenants <> [] then begin
          Fmt.pr "per-tenant:@.";
          List.iter
            (fun (tn, name, v) ->
              Fmt.pr "  %-16s %8.0f req %s@." tn v (rate v (prev_counter name)))
            tenants
        end;
        let slos =
          Flight_view.series "pet_slo_window_requests" "slo" frame.gauges
        in
        if slos <> [] then begin
          Fmt.pr "slo:@.";
          List.iter
            (fun (key, _, _) ->
              let g family = gauge (Printf.sprintf "%s{slo=\"%s\"}" family key) in
              Fmt.pr
                "  %-24s %6.0f req  p99=%gs err=%.4f  burn lat=%.2f \
                 err=%.2f%s@."
                key
                (g "pet_slo_window_requests")
                (g "pet_slo_p99_seconds")
                (g "pet_slo_error_ratio")
                (g "pet_slo_latency_burn")
                (g "pet_slo_error_burn")
                (if g "pet_slo_breached" > 0. then "  BREACHED" else ""))
            slos
        end
      in
      let rec pump frame_no prev =
        if frames > 0 && frame_no > frames then `Ok ()
        else
          match In_channel.input_line ic with
          | None -> if frames = 0 then `Ok () else `Error (false, "server closed the connection")
          | Some line -> (
            match Flight_view.frame line with
            | None ->
              `Error
                (false, Printf.sprintf "unexpected response: %s" line)
            | Some frame ->
              render frame_no prev frame;
              pump (frame_no + 1) (Some frame))
      in
      let result =
        try pump 1 None with
        | Sys_error m -> `Error (false, m)
        | End_of_file -> `Error (false, "server closed the connection")
      in
      close_out_noerr oc;
      result
  in
  let doc =
    "Live operations view over a running $(b,pet serve --tcp) server: \
     subscribe to the $(b,watch) protocol method and render request and \
     error rates, per-method latency quantiles, per-tenant rates, queue \
     depths and SLO burn rates, refreshed every $(b,--interval) seconds."
  in
  Cmd.v
    (Cmd.info "top" ~doc)
    Term.(ret (const run $ addr_arg $ interval_arg $ frames_arg))

(* --- bench diff -------------------------------------------------------------------- *)

let bench_cmd =
  let diff_cmd =
    let file_arg index docv which =
      let doc = Printf.sprintf "The %s BENCH_*.json file." which in
      Arg.(required & pos index (some string) None & info [] ~docv ~doc)
    in
    let threshold_arg =
      let doc =
        "Fractional change (in percent) past which a directional value \
         counts as a regression."
      in
      Arg.(value & opt float 25. & info [ "threshold" ] ~docv:"PCT" ~doc)
    in
    let run old_file new_file threshold =
      let load file =
        match In_channel.with_open_text file In_channel.input_all with
        | exception Sys_error m -> Error m
        | contents -> (
          match Json.parse contents with
          | Ok json -> Ok json
          | Error m -> Error (Printf.sprintf "%s: %s" file m))
      in
      match (load old_file, load new_file) with
      | Error m, _ | _, Error m -> `Error (false, m)
      | Ok old_json, Ok new_json ->
        let findings =
          Pet_pet.Benchdiff.diff ~threshold:(threshold /. 100.) old_json
            new_json
        in
        Fmt.pr "%s" (Pet_pet.Benchdiff.render findings);
        if Pet_pet.Benchdiff.has_regression findings then
          `Error (false, "performance regression past the threshold")
        else `Ok ()
    in
    let doc =
      "Compare two bench summaries (BENCH_*.json) and exit non-zero if \
       any throughput dropped or any cost grew by more than \
       $(b,--threshold) percent. Keys are classified by name: \
       $(i,…per_s…)/$(i,…rate…) must not drop; $(i,…_s), $(i,…_ms), \
       $(i,…seconds…), $(i,…overhead…), $(i,…latency…), $(i,…errors…) \
       must not grow; everything else is informational."
    in
    Cmd.v
      (Cmd.info "diff" ~doc)
      Term.(
        ret
          (const run
          $ file_arg 0 "OLD" "baseline"
          $ file_arg 1 "NEW" "candidate"
          $ threshold_arg))
  in
  let doc =
    "Work with the bench harness's machine-readable output (the \
     BENCH_*.json files written by $(b,dune exec bench/main.exe))."
  in
  Cmd.group (Cmd.info "bench" ~doc) [ diff_cmd ]

(* --- main -------------------------------------------------------------------------- *)

let () =
  let doc =
    "A privacy-enhancing technology for data collection via forms with \
     data minimization, full accuracy and informed consent (EDBT 2024)."
  in
  let info = Cmd.info "pet" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            check_cmd; minimize_cmd; inform_cmd; fill_cmd; audit_cmd;
            atlas_cmd;
            graph_cmd;
            simulate_cmd;
            serve_cmd;
            ping_cmd;
            corpus_cmd;
            store_cmd;
            profile_cmd;
            trace_cmd;
            flight_cmd;
            top_cmd;
            bench_cmd;
          ]))
