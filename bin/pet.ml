(* The PET command-line interface: validate rule files, minimize a user's
   form, produce consent reports, export the paper's figures and simulate
   whole populations. Every subcommand parses its arguments, calls the
   library function that owns the work, and maps the result to an exit
   status. *)

module Exposure = Pet_rules.Exposure
module Engine = Pet_rules.Engine
module Spec = Pet_rules.Spec
module A1 = Pet_minimize.Algorithm1
module Payoff = Pet_game.Payoff
module Catalog = Pet_casestudies.Catalog
module Report = Pet_pet.Report
module Json = Pet_pet.Json
module Form = Pet_pet.Form
module Workflow = Pet_pet.Workflow
module Metrics = Pet_obs.Metrics
module Store = Pet_store.Store
module Flight_view = Pet_store.Flight_view
module Dial = Pet_net.Dial

open Cmdliner

(* --- Arguments, sources and results --------------------------------------- *)

let opt_arg ?docv kind default names doc =
  Arg.(value & opt kind default & info names ?docv ~doc)

let flag_arg name doc = Arg.(value & flag & info [ name ] ~doc)

let pos_arg docv doc = Arg.(required & pos 0 (some string) None & info [] ~docv ~doc)

let cmd name doc term = Cmd.v (Cmd.info name ~doc) Term.(ret term)

let cli = function Ok () -> `Ok () | Error m -> `Error (false, m)

(* Turn the library's [Invalid_argument] diagnostics (oversized forms,
   malformed valuations) into clean CLI errors. *)
let guarded f = match f () with r -> r | exception Invalid_argument m -> `Error (false, m)

let with_exposure source f =
  match Catalog.load source with Error m -> `Error (false, m) | Ok exposure -> f exposure

let parse_valuation exposure s f =
  match Pet_valuation.Total.of_string (Exposure.xp exposure) s with
  | v -> f v
  | exception Invalid_argument m -> `Error (false, m)

let source_arg =
  pos_arg "RULES"
    "Rule file to load, or one of the built-in case studies: $(b,running) (the paper's \
     district-council example), $(b,hcov) (complementary health coverage, Section 5), $(b,rsa) \
     (active solidarity income, Section 5) or $(b,loan) (consumer-loan underwriting)."

let backend_arg =
  opt_arg
    (Arg.enum
       Engine.[ ("brute", Brute); ("sat", Sat); ("bdd", Bdd); ("compiled", Compiled) ])
    Engine.Bdd [ "backend" ]
    "Entailment backend: $(b,brute), $(b,sat), $(b,bdd) or $(b,compiled)."

let payoff_arg =
  opt_arg
    (Arg.enum [ ("blank", Payoff.Blank); ("sm", Payoff.Sm) ])
    Payoff.Blank [ "payoff" ]
    "Privacy payoff function: $(b,blank) (PO_blank) or $(b,sm) (PO_SM)."

let weights_arg =
  let parse s = Result.map_error (fun m -> `Msg m) (Payoff.weight_of_string s) in
  let print ppf (name, w) = Fmt.pf ppf "%s=%g" name w in
  let doc =
    "Per-predicate sensitivity weight, e.g. $(b,--weight p12=5). Repeatable; unlisted \
     predicates weigh 1. Selects the weighted PO_blank of Section 4.2 (overrides \
     $(b,--payoff))."
  in
  Arg.(value & opt_all (conv (parse, print)) [] & info [ "weight" ] ~docv:"P=W" ~doc)

(* Combine --payoff and --weight into the effective payoff function. *)
let effective_payoff exposure payoff = function
  | [] -> Ok payoff
  | weights ->
    Result.map_error (( ^ ) "--weight: ") (Payoff.weighted (Exposure.xp exposure) weights)

let mode_arg =
  opt_arg
    (Arg.enum [ ("chain", A1.Chain); ("entail", A1.Entail); ("exact", A1.Exact) ])
    A1.Chain [ "mode" ]
    "MAS closure mode: $(b,chain) (the paper's forward chaining), $(b,entail) (full logical \
     closure) or $(b,exact) (set-inclusion minimality, exponential)."

let valuation_arg =
  let doc = "The fully filled form, e.g. 011 (one character per predicate)." in
  Arg.(required & opt (some string) None & info [ "v"; "valuation" ] ~docv:"BITS" ~doc)

let json_arg = flag_arg "json" "Emit machine-readable JSON instead of text."

let addr_arg = pos_arg "HOST:PORT" "Server address, e.g. 127.0.0.1:7464."

(* The deterministic clock of serve and trace: a logical one, else wall time. *)
let clock deterministic = if deterministic then Metrics.logical_clock () else Unix.gettimeofday

(* --- check ---------------------------------------------------------------- *)

let check_cmd =
  let module Check = Pet_check in
  let source_opt_arg =
    let doc =
      "Rule file to load, or one of the built-in case studies ($(b,running), $(b,hcov), \
       $(b,rsa), $(b,loan)). Optional when $(b,--seeds) or $(b,--fuzz) is given."
    in
    Arg.(value & pos 0 (some string) None & info [] ~docv:"RULES" ~doc)
  in
  let count_arg name doc = opt_arg ~docv:"N" Arg.(some int) None [ name ] doc in
  let seeds_arg =
    opt_arg ~docv:"SPEC" Arg.(some string) None [ "seeds" ]
      "Run the correctness harness — differential testing of the brute, sat and bdd backends, \
       metamorphic transformations and definition-level oracles — on randomly generated \
       problems, one per seed. $(docv) is a comma-separated list of integers and inclusive \
       ranges, e.g. $(b,1-50) or $(b,3,7,20-25). Failures are shrunk to a minimal rule-DSL \
       reproducer."
  in
  let fuzz_arg =
    count_arg "fuzz"
      "Feed $(docv) mutated, truncated and malformed protocol lines into an in-process \
       collection service and verify every one gets a well-formed response — a result or a \
       structured error, never a crash."
  in
  let fuzz_seed_arg =
    opt_arg ~docv:"SEED" Arg.int 0 [ "fuzz-seed" ]
      "Seed for the $(b,--fuzz), $(b,--fuzz-store), $(b,--fuzz-corpus) and $(b,--fuzz-consent) \
       streams."
  in
  let fuzz_store_arg =
    count_arg "fuzz-store"
      "Generate $(docv) write-ahead logs, corrupt them (bit flips, truncations, zeroed ranges, \
       spliced bytes) and verify the durable store's recovery contract: recovery never \
       crashes, in-place damage yields a clean prefix, losses are localized with byte offsets, \
       and the log stays appendable."
  in
  let fuzz_corpus_arg =
    count_arg "fuzz-corpus"
      "Drive $(docv) tenant-lifecycle requests from the realistic form corpus — publishes, hot \
       rule updates, sessions, reports, submissions and hostile tenant traffic — through an \
       in-process service, and verify the multi-tenant contract: every line gets a structured \
       response, oversized forms fail their background build cleanly, and sessions pinned to a \
       version keep answering byte-identically across hot swaps."
  in
  let fuzz_consent_arg =
    count_arg "fuzz-consent"
      "Run $(docv) consent-lifecycle rounds: drive a durable service through submissions, \
       revocations and expiries, kill it without shutdown (torn active segment), and verify \
       that the offline compliance audit passes the healthy log, recovery resurrects no \
       tombstone, and a forged post-revocation grant appended behind the service's back is \
       caught with a byte offset."
  in
  let samples_arg =
    opt_arg ~docv:"N" Arg.int Check.Diff.default_samples [ "samples" ]
      "Differential entailment samples per problem."
  in
  let full_arg =
    flag_arg "full"
      "With $(i,RULES): run the full correctness harness on the loaded problem instead of only \
       validating it. The oracles recheck every published MAS against brute force, so this is \
       exponential in the form size — intended for small and medium problems."
  in
  let run source seeds fuzz fuzz_store fuzz_corpus fuzz_consent fuzz_seed samples payoff full =
    let config = { Check.Harness.default_config with samples; payoff } in
    let ppf = Format.std_formatter in
    (* The fuzz modes, in the order their summaries print. *)
    let modes =
      List.filter_map
        (fun (mode, count) -> Option.map (fun count -> (mode, count)) count)
        Check.Fuzz.
          [ (Protocol, fuzz); (Store, fuzz_store); (Corpus, fuzz_corpus); (Consent, fuzz_consent) ]
    in
    let ( let* ) = Result.bind in
    if source = None && seeds = None && modes = [] then
      `Error
        ( true,
          "expected a RULES source, --seeds, --fuzz, --fuzz-store, --fuzz-corpus or \
           --fuzz-consent" )
    else
      cli
        (let* on_source =
           match source with
           | None -> Ok 0
           | Some label ->
             Result.map (Check.Suite.problem ppf ~config ~full ~label) (Catalog.load label)
         in
         let* on_seeds =
           match Option.map Check.Harness.seeds_of_string seeds with
           | None -> Ok 0
           | Some (Error m) -> Error ("--seeds: " ^ m)
           | Some (Ok seeds) -> Ok (Check.Suite.seeds ppf ~config seeds)
         in
         match on_source + on_seeds + Check.Suite.fuzz ppf ~seed:fuzz_seed modes with
         | 0 -> Ok ()
         | n -> Error (Printf.sprintf "%d check run%s failed" n (if n = 1 then "" else "s")))
  in
  cmd "check"
    "Validate a rule file and report basic statistics; with $(b,--seeds), $(b,--fuzz) or \
     $(b,--full), run the self-check harness: differential testing across the four entailment \
     backends, metamorphic transformations, definition-level oracles for accuracy, minimality \
     and Nash equilibria, with failing problems shrunk to minimal reproducers, and protocol \
     fuzzing of the collection service."
    Term.(
      const run $ source_opt_arg $ seeds_arg $ fuzz_arg $ fuzz_store_arg $ fuzz_corpus_arg
      $ fuzz_consent_arg $ fuzz_seed_arg $ samples_arg $ payoff_arg $ full_arg)

(* --- One applicant: minimize, inform, fill -------------------------------- *)

let minimize_cmd =
  let run source bits backend mode =
    with_exposure source (fun exposure ->
        parse_valuation exposure bits (fun v ->
            let engine = Engine.create ~backend exposure in
            match A1.mas_of ~mode engine v with
            | exception Invalid_argument m -> `Error (false, m)
            | choices ->
              List.iter (Fmt.pr "%a@." A1.pp_choice) choices;
              `Ok ()))
  in
  cmd "minimize"
    "Compute the minimal accurate subvaluations (Algorithm 1) of a fully filled form."
    Term.(const run $ source_arg $ valuation_arg $ backend_arg $ mode_arg)

let print_report ~backend ~payoff ~json exposure v =
  guarded @@ fun () ->
  match Workflow.report_for (Workflow.provider ~backend ~payoff exposure) v with
  | Error m -> `Error (false, m)
  | Ok report ->
    if json then Fmt.pr "%s@." (Json.to_string (Report.to_json report))
    else Fmt.pr "%a@." Report.pp report;
    `Ok ()

let inform_cmd =
  let run source bits backend payoff weights json =
    with_exposure source (fun exposure ->
        match effective_payoff exposure payoff weights with
        | Error m -> `Error (false, m)
        | Ok payoff ->
          parse_valuation exposure bits (print_report ~backend ~payoff ~json exposure))
  in
  cmd "inform"
    "Produce the informed-consent report for an applicant: their choices (MAS), the privacy \
     payoff of each, what is revealed and what an attacker deduces anyway, and the recommended \
     choice (Algorithm 2)."
    Term.(
      const run $ source_arg $ valuation_arg $ backend_arg $ payoff_arg $ weights_arg $ json_arg)

let form_of_source source =
  Option.to_result (Catalog.form source)
    ~none:
      (source
     ^ ": typed questionnaires exist for the built-in case studies only (running, hcov, rsa, \
        loan)")

(* Answers come either from stdin lines "key = value" (piped mode) or
   from interactive prompts when stdin is a terminal. *)
let read_answers form =
  let next_line () = In_channel.input_line stdin in
  if not (Unix.isatty Unix.stdin) then Form.parse_answers form next_line
  else
    Form.ask form ~retry:(fun m -> Fmt.pr "%s@." m) ~prompt:(fun text ->
        Fmt.pr "%s @?" text;
        next_line ())

let fill_cmd =
  let run source payoff weights json =
    let ( let* ) = Result.bind in
    let checked =
      let* form = form_of_source source in
      let exposure = Form.exposure form in
      let* payoff = effective_payoff exposure payoff weights in
      let* answers = read_answers form in
      Result.map (fun v -> (exposure, payoff, v)) (Form.valuation form answers)
    in
    match checked with
    | Error m -> `Error (false, m)
    | Ok (exposure, payoff, v) -> print_report ~backend:Engine.Bdd ~payoff ~json exposure v
  in
  cmd "fill"
    "Fill a built-in case study's typed questionnaire (interactively, or from KEY = VALUE \
     lines on stdin) and get the consent report. The raw answers are compiled to predicates \
     and immediately discarded."
    Term.(const run $ source_arg $ payoff_arg $ weights_arg $ json_arg)

(* --- The whole rule set: atlas, graph, simulate, audit -------------------- *)

let atlas_cmd =
  let run source backend payoff =
    with_exposure source (fun exposure ->
        guarded @@ fun () ->
        Workflow.pp_atlas Format.std_formatter (Workflow.provider ~backend ~payoff exposure);
        `Ok ())
  in
  cmd "atlas"
    "Build the full valuation/MAS bipartite graph and print the Table-2 and Table-3 style \
     statistics."
    Term.(const run $ source_arg $ backend_arg $ payoff_arg)

let graph_cmd =
  let figure_arg =
    opt_arg
      (Arg.enum [ ("lattice", `Lattice); ("choices", `Choices) ])
      `Lattice [ "figure" ]
      "Which figure to export: $(b,lattice) (Figure 1) or $(b,choices) (Figure 2, requires \
       --valuation)."
  in
  let opt_valuation =
    Arg.(value & opt (some string) None & info [ "v"; "valuation" ] ~docv:"BITS")
  in
  let run source backend figure bits =
    with_exposure source (fun exposure ->
        guarded @@ fun () ->
        let atlas = Pet_minimize.Atlas.build (Engine.create ~backend exposure) in
        match (figure, bits) with
        | `Lattice, _ ->
          print_string (Pet_minimize.Dot.lattice (Pet_minimize.Lattice.build atlas));
          `Ok ()
        | `Choices, None -> `Error (true, "--figure choices requires --valuation")
        | `Choices, Some bits ->
          parse_valuation exposure bits (fun v ->
              print_string (Pet_minimize.Dot.choices atlas v);
              `Ok ()))
  in
  cmd "graph" "Export the paper's figures as Graphviz (DOT) graphs."
    Term.(const run $ source_arg $ backend_arg $ figure_arg $ opt_valuation)

let simulate_cmd =
  let solidarity_arg =
    flag_arg "solidarity" "Also look for solidarity improvements (Section 7)."
  in
  let run source backend payoff solidarity =
    with_exposure source (fun exposure ->
        guarded @@ fun () ->
        Workflow.pp_population ~solidarity Format.std_formatter
          (Workflow.provider ~backend ~payoff exposure);
        `Ok ())
  in
  cmd "simulate"
    "Simulate the whole eligible population playing the game and report aggregate privacy \
     statistics."
    Term.(const run $ source_arg $ backend_arg $ payoff_arg $ solidarity_arg)

(* [pet audit <data-dir>]: offline WAL compliance replay — prove that
   everything a (possibly crashed) durable service left on disk is
   minimal, accurate and respects every revocation and expiry horizon
   in the log itself. Exit 1 on violations so CI can gate on it. *)
let audit_cmd =
  let module Audit = Pet_audit.Audit in
  let run source json =
    if Sys.file_exists source && Sys.is_directory source then
      match Audit.run source with
      | Error m -> `Error (false, m)
      | Ok report ->
        if json then print_endline (Json.to_string (Audit.to_json report))
        else Audit.pp Format.std_formatter report;
        if Audit.pass report then `Ok () else `Error (false, "compliance audit failed")
    else
      with_exposure source (fun exposure ->
          guarded @@ fun () ->
          let sym = Pet_minimize.Symbolic.build exposure in
          Pet_minimize.Symbolic.pp_over_collection Format.std_formatter sym;
          `Ok ())
  in
  cmd "audit"
    "Audit a rule set for over-collection, or — given a data directory — replay its \
     write-ahead log offline and prove compliance: every persisted record is a minimal \
     accurate form, no record outlives its revocation or expiry horizon, nothing resurrects a \
     tombstone, and no raw valuation ever reached disk. Violations are reported with their \
     byte offsets; the exit status is nonzero if any are found."
    Term.(const run $ source_arg $ json_arg)

(* --- The service: serve and ping ------------------------------------------ *)

let serve_cmd =
  let deterministic_arg =
    flag_arg "deterministic"
      "Use a logical clock (advancing 1s per clock read) instead of wall time, making \
       latencies and expiry reproducible for testing."
  in
  let cache_arg =
    opt_arg ~docv:"N" Arg.int 16 [ "cache" ]
      "Capacity of the compiled-engine LRU cache (at least 1)."
  in
  let ttl_arg =
    opt_arg ~docv:"SECONDS" Arg.float 3600. [ "ttl" ]
      "Session idle timeout in seconds (0 disables expiry)."
  in
  let tenant_quota_arg =
    opt_arg ~docv:"N" Arg.int 0 [ "tenant-quota" ]
      "Default cap on concurrently active sessions per tenant (0 = unlimited). A tenant's own \
       $(b,quota) parameter on publish_rules or update_rules overrides it."
  in
  let data_dir_arg =
    opt_arg ~docv:"DIR" Arg.(some string) None [ "data-dir" ]
      "Persist every rule set, session transition and grant to a write-ahead log in $(docv), \
       and recover the pre-crash state from it on start. Without it the service is purely \
       in-memory."
  in
  let no_fsync_arg =
    flag_arg "no-fsync"
      "Do not fsync each append (benchmarks only: an OS crash may then lose acknowledged \
       records; a process crash still cannot)."
  in
  let trace_slow_arg =
    opt_arg ~docv:"MS" Arg.(some float) None [ "trace-slow" ]
      "Also keep any request lasting at least $(docv) milliseconds in the slow-trace ring (0 \
       keeps every request there). Tracing itself is always on under serve — every response \
       carries a trace id and the $(b,trace) protocol method reads the captures back; this \
       flag only sets the slow threshold (default: nothing is classified slow)."
  in
  let log_level_arg =
    opt_arg ~docv:"LEVEL" Arg.string "info" [ "log-level" ]
      "Minimum level for structured log events on standard error: $(b,debug), $(b,info), \
       $(b,warn) or $(b,error)."
  in
  let log_json_arg =
    flag_arg "log-json"
      "Emit log events as JSON objects (ts, level, event, trace id, fields) instead of the \
       human-readable shape."
  in
  let stdio_arg =
    flag_arg "stdio"
      "Serve requests over standard input/output, one JSON line each way (the default \
       transport): the same serving core as $(b,--tcp), as one shard with one connection. End \
       of input, or a bare $(b,quit) line, stops the service once every reply is written."
  in
  let tcp_arg =
    opt_arg ~docv:"PORT" Arg.(some int) None [ "tcp" ]
      "Serve requests over TCP on 127.0.0.1:$(docv) instead of standard input/output ($(docv) \
       0 picks an ephemeral port; see $(b,--port-file)). Same line protocol; a bare $(b,quit) \
       line closes the connection."
  in
  let domains_arg =
    opt_arg ~docv:"N" Arg.int 1 [ "domains" ]
      "Number of domains for the TCP server, one shard each; the first shard runs on the main \
       domain. Sessions are sharded by respondent-id hash. The shards group-commit the \
       write-ahead-log appends of every shard themselves, with no domain of their own for it."
  in
  let port_file_arg =
    opt_arg ~docv:"FILE" Arg.(some string) None [ "port-file" ]
      "Write the bound TCP port (one decimal line) to $(docv) once the server is listening — \
       how scripts find an ephemeral $(b,--tcp 0) port."
  in
  let flight_arg =
    flag_arg "flight"
      "Attach the flight recorder: append identifier-only telemetry records (delta-encoded \
       metric snapshots, SLO burn rates, slow-trace headers, log events, lifecycle marks) to \
       $(b,flight-NNNNNN.log) segments in the $(b,--data-dir) directory — flushed, never \
       fsynced, torn-tail tolerant. Read them back with $(b,pet flight report)."
  in
  let run payoff deterministic cache ttl tenant_quota data_dir no_fsync trace_slow log_level
      log_json stdio tcp domains port_file flight =
    (* The deterministic clocks are atomic so the shards share one
       logical timeline. Observability is always on under [serve] and
       gets its own clock, so instrumented code reading the obs clock
       (store appends, spans) cannot perturb the service clock that
       request latencies, session expiry and the cram transcripts
       depend on. Tracing rides on the obs clock: one capture per
       request, the slow threshold set from --trace-slow. *)
    let now = clock deterministic in
    Metrics.enable ();
    Metrics.set_clock (clock deterministic);
    Pet_obs.Trace.enable ();
    Option.iter (fun ms -> Pet_obs.Trace.set_slow_threshold (ms /. 1000.)) trace_slow;
    Pet_obs.Log.set_json log_json;
    let resolve name = Option.map Spec.to_string (Catalog.exposure name) in
    let ( let* ) = Result.bind in
    let checked =
      let* level =
        Option.to_result (Pet_obs.Log.level_of_string log_level)
          ~none:(Printf.sprintf "--log-level %s: expected debug, info, warn or error" log_level)
      in
      Pet_obs.Log.set_level level;
      if cache < 1 then Error (Printf.sprintf "--cache %d: expected at least 1" cache)
      else if stdio && tcp <> None then Error "--stdio and --tcp are mutually exclusive"
      else if tcp = None && domains <> 1 then
        Error "--domains only applies to the TCP server (--tcp)"
      else if flight && data_dir = None then
        Error "--flight requires --data-dir (the journal lives in the data directory)"
      else
        match data_dir with
        | None -> Ok (None, None, None)
        | Some dir -> (
          let* store, recovery =
            Result.map_error (Printf.sprintf "--data-dir %s: %s" dir)
              (Store.open_dir ~fsync:(not no_fsync) dir)
          in
          if not flight then Ok (Some store, Some recovery, None)
          else
            match Pet_store.Flight_log.open_dir dir with
            | Ok fl -> Ok (Some store, Some recovery, Some fl)
            | Error m ->
              Store.close store;
              Error ("--flight: " ^ m))
    in
    cli
      (let* store, recovery, fl = checked in
       let listen =
         Pet_net.Server.(match tcp with Some port -> Tcp port | None -> Stdio (stdin, stdout))
       in
       let result =
         Result.bind
           (Pet_net.Server.start ~payoff ~capacity:cache ~ttl ~tenant_quota ~resolve ?store
              ?recovery ~sweep_interval:(if deterministic then 0. else 1.) ?flight:fl ~domains
              ~listen ~now ())
           (fun server ->
             Option.iter
               (fun file ->
                 Out_channel.with_open_text file (fun oc ->
                     Printf.fprintf oc "%d\n" (Pet_net.Server.port server)))
               port_file;
             let result = Pet_net.Server.run server in
             Pet_net.Server.stop server;
             result)
       in
       Option.iter Pet_store.Flight_log.close fl;
       Option.iter Store.close store;
       result)
  in
  cmd "serve"
    "Run the collection service: read one JSON request per line from standard input, write one \
     JSON response per line to standard output (methods: publish_rules, update_rules, \
     new_session, get_report, choose_option, submit_form, revoke, expire, audit, tenant, \
     stats, metrics, trace, watch). Compiled rule engines are cached across sessions; sessions \
     expire after $(b,--ttl) idle seconds; raw valuations are erased the moment an option is \
     chosen. Forms published with a $(b,tenant) parameter become versioned tenants: updates \
     rebuild in the background and hot-swap atomically, while open sessions keep the version \
     they started on. With $(b,--data-dir) the service is durable: every state change is \
     appended to a checksummed write-ahead log before it is acknowledged, and a restart \
     recovers the rule sets, sessions and consent archive (ids continuing where they left \
     off); the log is compacted as it grows. With $(b,--tcp) the same protocol is served over \
     localhost TCP by $(b,--domains) shard domains, the main domain among them (sessions \
     sharded by id, log appends group-committed across shards by the shards themselves)."
    Term.(
      const run $ payoff_arg $ deterministic_arg $ cache_arg $ ttl_arg $ tenant_quota_arg
      $ data_dir_arg $ no_fsync_arg $ trace_slow_arg $ log_level_arg $ log_json_arg $ stdio_arg
      $ tcp_arg $ domains_arg $ port_file_arg $ flight_arg)

let ping_cmd =
  let run addr =
    cli
    @@ Dial.with_lines addr (fun c ->
           Ok
             (Dial.relay c
                (fun () -> In_channel.input_line stdin)
                (fun response ->
                  print_endline response;
                  flush stdout)))
  in
  cmd "ping"
    "Line-protocol smoke client for $(b,pet serve --tcp): connect, forward each standard-input \
     line as a request, print each response line; a bare $(b,quit) line closes the connection."
    Term.(const run $ addr_arg)

(* --- corpus --------------------------------------------------------------- *)

let corpus_cmd =
  let module Corpus = Pet_corpus.Corpus in
  let seed_arg =
    opt_arg ~docv:"N" Arg.int 0 [ "seed" ] "Corpus seed; every output is a pure function of it."
  in
  let lo_arg =
    opt_arg ~docv:"N" Arg.int Corpus.min_size [ "lo" ]
      "Smallest form size (predicates) to generate."
  in
  let hi_arg =
    opt_arg ~docv:"N" Arg.int Corpus.max_size [ "hi" ]
      "Largest form size to generate. Above 24 predicates a form publishes but its background \
       build fails (the atlas enumeration bound) — included in the default band on purpose."
  in
  let count_arg =
    opt_arg ~docv:"N" Arg.int 20 [ "count"; "tenants" ] "Number of tenants in the scenario."
  in
  let form_cmd =
    let index_arg =
      let doc = "Tenant index (0-based)." in
      Arg.(required & pos 0 (some int) None & info [] ~docv:"INDEX" ~doc)
    in
    let size_arg =
      opt_arg ~docv:"N" Arg.(some int) None [ "size" ]
        "Exact form size, overriding the seeded size draw."
    in
    let revision_arg =
      opt_arg ~docv:"N" Arg.int 1 [ "revision" ]
        "Rule revision (1-based): same fields, re-rolled rule bodies — what an \
         $(b,update_rules) publishes."
    in
    let run seed size revision index =
      guarded @@ fun () ->
      print_string (Corpus.form ~seed ?size ~revision index).Corpus.text;
      `Ok ()
    in
    cmd "form"
      "Print one corpus form's rule text (the $(b,publish_rules) payload) to standard output."
      Term.(const run $ seed_arg $ size_arg $ revision_arg $ index_arg)
  in
  let scenario_cmd =
    let digest_of text =
      match Spec.parse text with
      | Ok exposure -> Pet_server.Registry.digest (Spec.to_string exposure)
      | Error m -> Printf.sprintf "<parse error: %s>" m
    in
    let run seed lo hi count =
      guarded @@ fun () ->
      let scenario = Corpus.scenario ~seed ~lo ~hi ~count () in
      Array.iteri
        (fun i (form : Corpus.form) ->
          Fmt.pr "%-28s size=%-2d share=%5.1f%% digest=%s@." form.Corpus.name form.Corpus.size
            (100. *. scenario.Corpus.popularity.(i))
            (digest_of form.Corpus.text))
        scenario.Corpus.forms;
      `Ok ()
    in
    cmd "scenario"
      "List a scenario's tenants: name, form size, Zipf traffic share and rule digest, one \
       line each."
      Term.(const run $ seed_arg $ lo_arg $ hi_arg $ count_arg)
  in
  let drive_cmd =
    let sessions_arg =
      opt_arg ~docv:"N" Arg.int 200 [ "sessions" ] "Number of respondent sessions to run."
    in
    let update_every_arg =
      opt_arg ~docv:"K" Arg.int 0 [ "update-every" ]
        "Between sessions, publish a rule update to a Zipf-picked tenant every $(docv) \
         sessions (0 disables updates)."
    in
    (* Lockstep request/response over one connection: a drive measures
       the mix, not concurrency (the bench harness does that). *)
    let run seed lo hi count sessions update_every addr =
      match
        Dial.with_lines addr (fun c ->
            Ok (Pet_check.Drive.run ~seed ~lo ~hi ~count ~sessions ~update_every (Dial.call c)))
      with
      | Error m -> `Error (false, m)
      | Ok outcome ->
        Pet_check.Drive.pp Format.std_formatter outcome;
        List.iter (Fmt.epr "unexpected error: %s@.") outcome.unexpected;
        if outcome.unexpected = [] then `Ok ()
        else `Error (false, "the drive hit unexpected protocol errors")
    in
    cmd "drive"
      "Drive a corpus scenario against a running $(b,pet serve --tcp): publish every tenant, \
       then run a Zipf-weighted session mix (new_session, get_report, choose first option, \
       submit_form) with optional interleaved rule updates, and print the outcome counts. \
       Exits non-zero on any protocol error other than the expected $(b,ineligible), \
       $(b,quota_exceeded) and oversized-form $(b,build_failed) answers."
      Term.(
        const run $ seed_arg $ lo_arg $ hi_arg $ count_arg $ sessions_arg $ update_every_arg
        $ addr_arg)
  in
  Cmd.group
    (Cmd.info "corpus"
       ~doc:
         "Work with the seeded realistic form corpus (contact, demographic, financial and \
          health field families; sizes 8-40; Zipf tenant popularity). The same seed reproduces \
          the same forms everywhere: print them, list scenarios, or drive one against a live \
          server.")
    [ form_cmd; scenario_cmd; drive_cmd ]

(* --- store ---------------------------------------------------------------- *)

let store_cmd =
  let dir_arg = pos_arg "DIR" "The data directory of a durable collection service." in
  let scanned f dir = cli (Result.bind (Store.scan dir) (f Format.std_formatter)) in
  let inspect_cmd =
    cmd "inspect" "List the snapshot and segments with record and event counts."
      Term.(const (scanned (fun ppf r -> Ok (Store.inspect ppf r))) $ dir_arg)
  in
  let verify_cmd =
    cmd "verify"
      "Check every record: framing, CRC-32 checksums (damage is reported with its byte offset; \
       a torn tail on the last segment is crash damage that recovery truncates, noted but not \
       a fault) and the R2-on-disk invariant that no decoded event contains a full valuation."
      Term.(const (scanned Store.verify) $ dir_arg)
  in
  let replay_cmd =
    cmd "replay"
      "Print the recovered event stream (the longest clean prefix) as one JSON object per \
       line, without modifying the directory."
      Term.(const (fun dir -> cli (Store.replay Format.std_formatter dir)) $ dir_arg)
  in
  let compact_cmd =
    let ttl_arg =
      opt_arg ~docv:"SECONDS" Arg.float 3600. [ "ttl" ]
        "Drop sessions idle longer than $(docv) seconds (relative to the newest event in the \
         log; 0 keeps every session). Grants and rule sets are always kept."
    in
    let run dir ttl =
      let warn (d : Store.damage) =
        Fmt.epr "warning: replay stopped at byte %d of %s (%s); compacting the clean prefix@."
          d.offset d.file d.reason
      in
      cli
      @@ Result.map
           (fun (c : Store.compaction) ->
             Fmt.pr "compacted %d event(s) into a snapshot of %d; %d file(s) retired@." c.read
               c.kept c.retired)
           (Store.compact_dir ~ttl ~on_damage:warn dir)
    in
    cmd "compact"
      "Squash the log into a snapshot (rule sets, grants and surviving sessions) and retire \
       the replaced segments."
      Term.(const run $ dir_arg $ ttl_arg)
  in
  Cmd.group
    (Cmd.info "store"
       ~doc:
         "Inspect, verify, replay or compact the write-ahead log behind a durable collection \
          service ($(b,pet serve --data-dir)).")
    [ inspect_cmd; verify_cmd; replay_cmd; compact_cmd ]

(* --- Observability: profile, trace, flight, top --------------------------- *)

let profile_cmd =
  let samples_arg =
    opt_arg ~docv:"N" Arg.int 50 [ "samples" ]
      "Build a consent report for at most $(docv) eligible applicants (0 profiles the \
       construction phases only)."
  in
  let run source backend payoff samples =
    with_exposure source (fun exposure ->
        Workflow.span_profile Format.std_formatter ~source ~backend ~payoff ~samples exposure;
        `Ok ())
  in
  cmd "profile"
    "Profile the PET pipeline on a rule set: compile the engine, build the MAS atlas \
     (Algorithm 1 per applicant), compute the equilibrium profile (Algorithm 2) and build \
     consent reports, then print the span-tree cost breakdown with per-phase totals, \
     self-times and shares of wall-clock, plus the solver/engine counters."
    Term.(const run $ source_arg $ backend_arg $ payoff_arg $ samples_arg)

let trace_cmd =
  let module Trace = Pet_obs.Trace in
  let chrome_arg =
    opt_arg ~docv:"FILE" Arg.(some string) None [ "chrome" ]
      "Also write the capture as Chrome trace_event JSON to $(docv) (load it in \
       chrome://tracing or Perfetto)."
  in
  let deterministic_arg =
    flag_arg "deterministic"
      "Time the capture with a logical clock (1s per clock read) instead of wall time, making \
       the output byte-stable for tests."
  in
  let run source backend payoff chrome deterministic =
    with_exposure source (fun exposure ->
        Metrics.enable ();
        Trace.enable ();
        Metrics.set_clock (clock deterministic);
        match Workflow.trace_once ~source ~backend ~payoff exposure with
        | None -> `Error (false, "the capture was not recorded")
        | Some tr ->
          Fmt.pr "%s" (Trace.render tr);
          Option.iter
            (fun file ->
              Out_channel.with_open_bin file (fun oc ->
                  Out_channel.output_string oc (Trace.chrome tr);
                  Out_channel.output_char oc '\n');
              Fmt.pr "wrote %s@." file)
            chrome;
          `Ok ())
  in
  cmd "trace"
    "Run the full PET pipeline once on a rule set — compile the engine, build the MAS atlas, \
     produce one consent report — under a request-scoped trace capture, and print the span \
     tree with exact per-entry timings (what happened, in order — where $(b,pet profile) \
     prints aggregates). The capture carries only identifiers (source name, backend), never \
     form data."
    Term.(const run $ source_arg $ backend_arg $ payoff_arg $ chrome_arg $ deterministic_arg)

let flight_cmd =
  let dir_arg = pos_arg "DIR" "The data directory holding the flight-NNNNNN.log segments." in
  let report_cmd =
    let json_arg = flag_arg "json" "Emit the reconstruction as one JSON object." in
    let run dir json =
      match Flight_view.report dir with
      | Error m -> `Error (false, Printf.sprintf "%s: %s" dir m)
      | Ok report ->
        if json then print_endline (Json.to_string (Flight_view.to_json report))
        else Flight_view.pp_report Format.std_formatter report;
        `Ok ()
    in
    cmd "report"
      "Reconstruct the story a flight journal tells: record counts and damage, lifecycle \
       marks, per-method and per-tenant latency distributions summed back from the snapshot \
       deltas, SLO burn-rate series, and the last write-ahead-log frontier stamp (the same \
       byte offsets $(b,pet audit --json) and $(b,pet store inspect) use)."
      Term.(const run $ dir_arg $ json_arg)
  in
  let replay_cmd =
    let module Log = Pet_store.Flight_log in
    let run dir =
      match
        Log.fold dir ~init:() (fun () (r : Log.record) ->
            Printf.printf "%s:%d %s\n" r.file r.offset r.payload)
      with
      | Error m -> `Error (false, Printf.sprintf "%s: %s" dir m)
      | Ok ((), damage) ->
        List.iter
          (fun (d : Pet_store.Segment.damage) ->
            Printf.eprintf "damage %s:%d %s\n" d.file d.offset d.reason)
          damage;
        `Ok ()
    in
    cmd "replay"
      "Print every readable flight record in order, prefixed with its $(b,file:offset) \
       coordinate (torn tails are truncated silently, mid-journal damage goes to standard \
       error and scanning continues)."
      Term.(const run $ dir_arg)
  in
  Cmd.group
    (Cmd.info "flight"
       ~doc:
         "Read the flight-recorder journal written by $(b,pet serve --flight): delta-encoded \
          metric snapshots, SLO burn rates, slow-trace headers, log events and lifecycle \
          marks, identifier-only by construction.")
    [ report_cmd; replay_cmd ]

let top_cmd =
  let interval_arg =
    opt_arg ~docv:"SECONDS" Arg.float 1.0 [ "interval" ] "Seconds between frames."
  in
  let frames_arg =
    opt_arg ~docv:"N" Arg.int 0 [ "frames" ]
      "Stop after $(docv) frames (0 streams until interrupted)."
  in
  let run addr interval frames =
    cli
    @@ Dial.with_lines addr (fun c ->
           Dial.watch c ~interval ~frames (fun frame_no prev frame ->
               if Unix.isatty Unix.stdout then print_string "\027[H\027[2J";
               Flight_view.pp_frame ~addr ~frame_no ?prev Format.std_formatter frame))
  in
  cmd "top"
    "Live operations view over a running $(b,pet serve --tcp) server: subscribe to the \
     $(b,watch) protocol method and render request and error rates, per-method latency \
     quantiles, per-tenant rates, queue depths and SLO burn rates, refreshed every \
     $(b,--interval) seconds."
    Term.(const run $ addr_arg $ interval_arg $ frames_arg)

(* --- bench diff ----------------------------------------------------------- *)

let bench_cmd =
  let file_arg index docv which =
    let doc = Printf.sprintf "The %s BENCH_*.json file." which in
    Arg.(required & pos index (some string) None & info [] ~docv ~doc)
  in
  let threshold_arg =
    opt_arg ~docv:"PCT" Arg.float 25. [ "threshold" ]
      "Fractional change (in percent) past which a directional value counts as a regression."
  in
  let run old_file new_file threshold =
    cli
    @@ Result.bind
         (Pet_pet.Benchdiff.diff_files ~threshold:(threshold /. 100.) old_file new_file)
         (fun findings ->
           Fmt.pr "%s" (Pet_pet.Benchdiff.render findings);
           if Pet_pet.Benchdiff.has_regression findings then
             Error "performance regression past the threshold"
           else Ok ())
  in
  let diff_cmd =
    cmd "diff"
      "Compare two bench summaries (BENCH_*.json) and exit non-zero if any throughput dropped \
       or any cost grew by more than $(b,--threshold) percent. Keys are classified by name: \
       $(i,…per_s…)/$(i,…rate…) must not drop; $(i,…_s), $(i,…_ms), $(i,…seconds…), \
       $(i,…overhead…), $(i,…latency…), $(i,…errors…) must not grow; everything else is \
       informational."
      Term.(
        const run $ file_arg 0 "OLD" "baseline" $ file_arg 1 "NEW" "candidate" $ threshold_arg)
  in
  Cmd.group
    (Cmd.info "bench"
       ~doc:
         "Work with the bench harness's machine-readable output (the BENCH_*.json files \
          written by $(b,dune exec bench/main.exe)).")
    [ diff_cmd ]

(* --- main ----------------------------------------------------------------- *)

let () =
  let doc =
    "A privacy-enhancing technology for data collection via forms with data minimization, full \
     accuracy and informed consent (EDBT 2024)."
  in
  exit
    (Cmd.eval
       (Cmd.group
          (Cmd.info "pet" ~version:"1.0.0" ~doc)
          [
            check_cmd; minimize_cmd; inform_cmd; fill_cmd; audit_cmd; atlas_cmd; graph_cmd;
            simulate_cmd; serve_cmd; ping_cmd; corpus_cmd; store_cmd; profile_cmd; trace_cmd;
            flight_cmd; top_cmd; bench_cmd;
          ]))
