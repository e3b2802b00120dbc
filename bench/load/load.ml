(* The open-loop service benchmark: one workload per run.

     load.exe --workload W --seed N --seconds S --trace 0|1

   With --trace 0 it measures the end-to-end metrics with tracing off;
   with --trace 1 the per-layer ledger. Either way it
   prints every metric it measured by name with its unit, checks the
   outputs, and ends with one JSON line carrying the metrics
   BENCHMARK.json declares for that mode. A failed check exits non-zero
   without that line. README.md has the workloads, the metrics and how
   to read them. *)

let metric = Phase.metric

(* --- Plans ------------------------------------------------------------------------ *)

(* How the measured seconds of one run are spent. End to end: a warm-up
   and a window at the lo rate, then the same at the hi rate, each on a
   fresh server; set-up is timed [setups] times and its median reported.
   Traced: lo and hi with client spans, hi again without them, and a few
   knee probes, each on a fresh server — the rest of the ledger is a
   fixed amount of work. *)
type plan = {
  warm : float;
  lo : float;
  hi : float;
  setups : int;
  probe_warm : float;
  probe : float;
  probes : int;
}

(* Set-ups timed in an end-to-end run: a single one varies by a quarter
   from run to run. Fleet's and substrate's take about a second and half
   a second each, H-cov's 60 ms. *)
let setups = function "fleet" | "substrate" -> 5 | _ -> 9

let plan ~smoke ~traced ~workload seconds =
  match (smoke, traced) with
  | true, _ -> { warm = 0.1; lo = 0.3; hi = 0.4; setups = 1; probe_warm = 0.05; probe = 0.2; probes = 1 }
  | false, false ->
    {
      warm = 0.1 *. seconds;
      lo = 0.3 *. seconds;
      hi = 0.5 *. seconds;
      setups = setups workload;
      probe_warm = 0.;
      probe = 0.;
      probes = 0;
    }
  | false, true ->
    {
      warm = 0.05 *. seconds;
      lo = 0.25 *. seconds;
      hi = 0.15 *. seconds;
      setups = 1;
      probe_warm = 0.02 *. seconds;
      probe = 0.06 *. seconds;
      probes = 4;
    }

(* Flows replayed in process by the traced run, observability on; as
   many again run with it off. Enough for every method's p90. *)
let replay_flows = function "browse" -> 600 | _ -> 300

(* --- Summaries ------------------------------------------------------------------------ *)

let ms = Phase.percentile ~unit:"ms"

let latency_metrics ~expected ~prefix (p : Phase.t) =
  let lat = Phase.latencies_ms ~expected p in
  let report = Phase.latencies_ms ~meth:"get_report" ~expected p in
  let submit = Phase.latencies_ms ~meth:"submit_form" ~expected p in
  List.filter_map Fun.id
    [
      ms (prefix ^ "_report_p50_ms") report 0.5;
      ms (prefix ^ "_report_p90_ms") report 0.9;
      ms (prefix ^ "_submit_p50_ms") submit 0.5;
      ms (prefix ^ "_submit_p90_ms") submit 0.9;
      ms (prefix ^ "_p50_ms") lat 0.5;
      ms (prefix ^ "_p90_ms") lat 0.9;
      ms (prefix ^ "_p99_ms") lat 0.99;
      ms (prefix ^ "_p999_ms") lat 0.999;
      ms (prefix ^ "_flow_p99_ms") (Phase.flow_waits_ms p) 0.99;
    ]

exception Void of string

(* A run whose generator fell behind its schedule (see [Phase.late_ok])
   over its lo and hi phases measured the generator, not the server: it
   is void. *)
let check_late ~smoke name (lo : Phase.t) (hi : Phase.t) =
  if (not (Phase.late_ok_samples (Array.append lo.late hi.late))) && not smoke then
    raise
      (Void
         (Printf.sprintf "%s: over %.0f%% of sends were more than %.0f ms late" name
            (100. *. Phase.late_share) Phase.late_limit_ms))

(* The generator over every phase of the run: its p99 lateness and the
   most requests it had in flight. *)
let gen_metrics phases =
  let late = Stats.sorted (Array.concat (List.map Phase.late_ms phases)) in
  [
    Phase.percentile_exn ~unit:"ms" "gen.late_p99_ms" late 0.99;
    metric "gen.outstanding_max" "count"
      (float_of_int (List.fold_left (fun m (p : Phase.t) -> max m p.outstanding_max) 0 phases));
  ]

(* CPU time per request while the hi rate was offered, µs. *)
let cpu_per_req ~cpu (p : Phase.t) =
  metric "hi_cpu_us_per_req" "us" (1e6 *. cpu /. float_of_int (max 1 (Array.length p.records)))

let p50 ~expected p = Option.get (Stats.percentile (Phase.latencies_ms ~expected p) 0.5)

(* Traced hi p50 over untraced hi p50, less one. *)
let trace_overhead ~expected ~traced ~untraced =
  metric "trace_overhead" "ratio" ((p50 ~expected traced /. p50 ~expected untraced) -. 1.)

(* The median of (client latency - in-process service time of the same
   method): the socket, shard queue and writer wait the server adds
   around [Service.handle_line]. *)
let residual ~name ~service_p50 ~expected (p : Phase.t) =
  let xs =
    Array.to_list p.records
    |> List.filter_map (fun (r : Phase.record) ->
           match List.assoc_opt r.meth service_p50 with
           | Some s when Phase.in_window p r && Phase.ok ~expected r -> Some (r.reply -. r.due -. s)
           | _ -> None)
  in
  Phase.percentile_exn ~unit:"us" ~scale:1e6 name (Stats.sorted (Array.of_list xs)) 0.5

(* Knee probes start at 1.6 times the hi rate, 0.7 to 0.95 of the knee
   seen at the default seed, so that four probes bracket it. The knee
   reads 0 when no probe passed. *)
let knee ~plan ~expected ~hi probe_at =
  let start = 1.6 *. hi in
  let phases = ref [] in
  let best, _ =
    Knee.search ~max_probes:plan.probes ~start (fun rate ->
        let p = probe_at rate in
        phases := p :: !phases;
        let failure = Phase.knee_failure ~expected p in
        Printf.printf "knee probe %.0f req/s: %s\n" rate (Option.value ~default:"pass" failure);
        failure = None)
  in
  (metric "knee_req_per_s" "req/s" (Option.value ~default:0. best), !phases)

let results_dir = "bench/load/results"

let write_trace name phases =
  Spawn.mkdir_p results_dir;
  let path = Filename.concat results_dir (name ^ "-trace.json") in
  Phase.write_chrome path phases;
  Printf.printf "wrote %s\n" path

(* --- TCP workloads ---------------------------------------------------------------------- *)

let dir_in work (w : Tcp.workload) name =
  let d = Filename.concat work (w.name ^ "-" ^ name) in
  Spawn.rm_rf d;
  d

(* Fleet's rule updates during hi, one every [Flows.update_period]
   seconds whatever the run's length. *)
let side_of ~seed (live : Tcp.live) =
  Option.map
    (fun scenario ->
      let current = Array.copy scenario.Pet_corpus.Corpus.forms in
      (Flows.update_period, fun k -> Flows.update ~seed ~scenario ~current k))
    live.ctx.scenario

(* Fleet's rule updates in hi, from update_rules due to the tenant
   serving the new version. At one every 2 s they are too few for a
   percentile, so the mean is printed, with the count. *)
let swap_metrics hi =
  match Phase.flow_waits_ms ~kind:"update" hi with
  | [||] -> []
  | a ->
    let n = Array.length a in
    [ metric ~samples:n "swap_mean_ms" "ms" (Array.fold_left ( +. ) 0. a /. float_of_int n) ]

let tcp_e2e ~pet ~work ~seed ~plan ~smoke (w : Tcp.workload) =
  let dir = dir_in work w in
  let phase ?side live ~rate ~duration =
    Tcp.phase ?side ~seed live w ~rate ~warmup:plan.warm ~duration
  in
  let lo_dir = dir "lo" and hi_dir = dir "hi" in
  let live = Tcp.start ~pet ~seed ~dir:lo_dir w in
  Tcp.check_reports ~seed live w;
  let lo = phase live ~rate:w.lo ~duration:plan.lo in
  Tcp.stop live;
  let setups = [ live.setup_s ] in
  let live = Tcp.start ~pet ~seed ~dir:hi_dir w in
  let cpu0 = Spawn.cpu_seconds live.server.pid in
  let hi = phase ?side:(side_of ~seed live) live ~rate:w.hi ~duration:plan.hi in
  let cpu = Spawn.cpu_seconds live.server.pid -. cpu0 in
  let rss = Spawn.vmhwm_mib live.server.pid in
  Tcp.stop live;
  let setups =
    live.setup_s :: setups
    @ List.init (max 0 (plan.setups - 2)) (fun k ->
          let live = Tcp.start ~pet ~seed ~dir:(dir (Printf.sprintf "setup%d" k)) w in
          Tcp.stop live;
          live.setup_s)
  in
  check_late ~smoke w.name lo hi;
  let recovery_s = Tcp.recovery ~pet ~dir:hi_dir in
  let audit_s, reordered = Tcp.audit ~pet ~dir:hi_dir ~acked:(Tcp.acked_grants hi) in
  let _, reordered_lo = Tcp.audit ~pet ~dir:lo_dir ~acked:(Tcp.acked_grants lo) in
  List.iter
    (fun (k, n) -> Printf.printf "failed %s x%d\n" k n)
    (Phase.failure_kinds ~expected:w.expected lo @ Phase.failure_kinds ~expected:w.expected hi);
  let attempted = Phase.attempted lo + Phase.attempted hi in
  let failed = Phase.failures ~expected:w.expected lo + Phase.failures ~expected:w.expected hi in
  let metrics =
    [ metric "setup_s" "s" (Stats.median (Array.of_list setups)) ]
    @ latency_metrics ~expected:w.expected ~prefix:"lo" lo
    @ latency_metrics ~expected:w.expected ~prefix:"hi" hi
    @ [
        cpu_per_req ~cpu hi;
        metric "rss_mb" "MiB" rss;
        metric "errors_per_attempt" "ratio" (float_of_int failed /. float_of_int (max 1 attempted));
        metric "recovery_s" "s" recovery_s;
        metric "audit_s" "s" audit_s;
        metric "audit.grants_out_of_order" "count" (float_of_int (reordered + reordered_lo));
        metric "wal_bytes_per_flow" "B"
          (float_of_int (Spawn.dir_bytes hi_dir) /. float_of_int (max 1 (Array.length hi.flows)));
      ]
    @ gen_metrics [ lo; hi ]
    @ swap_metrics hi
  in
  (metrics, attempted, failed)

(* The counters and gauges a [metrics] scrape returns, by name. *)
let scrape (live : Tcp.live) =
  let reply = Client.call live.conns.(0) (Tcp.req "metrics" "") in
  let module J = Pet_pet.Json in
  let ok =
    match Option.bind (Result.to_option (J.parse reply)) (J.member "ok") with
    | Some ok -> ok
    | None -> Tcp.fail "metrics scrape: %s" reply
  in
  let section name =
    match J.member name ok with
    | Some (J.Obj kvs) ->
      List.filter_map
        (fun (k, v) ->
          match v with
          | J.Int i -> Some (k, float_of_int i)
          | J.Float f -> Some (k, f)
          | _ -> None)
        kvs
    | _ -> []
  in
  section "counters" @ section "gauges"

let group_commit ~before ~after =
  let get l k = Option.value ~default:0. (List.assoc_opt k l) in
  let delta k = get after k -. get before k in
  let batches = delta "pet_net_commit_batches_total" in
  [
    metric "group_commit.batches" "count" batches;
    metric "group_commit.events_per_batch" "ratio"
      (if batches > 0. then delta "pet_net_commit_events_total" /. batches else 0.);
    metric "group_commit.batch_max" "count" (get after "pet_net_commit_batch_max");
  ]

let tcp_traced ~pet ~work ~seed ~plan ~smoke (w : Tcp.workload) =
  let dir = dir_in work w in
  let phase ?(traced = true) ?side live ~rate ~duration =
    Tcp.phase ~traced ?side ~seed live w ~rate ~warmup:plan.warm ~duration
  in
  (* 1. client spans: lo and hi, traced; 2. counter scrapes around hi *)
  let live = Tcp.start ~pet ~seed ~dir:(dir "lo") w in
  Tcp.check_reports ~seed live w;
  let lo = phase live ~rate:w.lo ~duration:plan.lo in
  Tcp.stop live;
  let live = Tcp.start ~pet ~seed ~dir:(dir "hi") w in
  let before = scrape live in
  let hi = phase ?side:(side_of ~seed live) live ~rate:w.hi ~duration:plan.hi in
  let after = scrape live in
  Tcp.stop live;
  (* hi without spans, for the tracing overhead; then the knee, each
     probe on a fresh server so that none inherits another's backlog *)
  let live = Tcp.start ~pet ~seed ~dir:(dir "untraced") w in
  let untraced = phase ~traced:false ?side:(side_of ~seed live) live ~rate:w.hi ~duration:plan.hi in
  Tcp.stop live;
  let knee, probes =
    knee ~plan ~expected:w.expected ~hi:w.hi (fun rate ->
        let live = Tcp.start ~pet ~seed ~dir:(dir (Printf.sprintf "knee-%.0f" rate)) w in
        let p = Tcp.phase ~seed live w ~rate ~warmup:plan.probe_warm ~duration:plan.probe in
        Tcp.stop live;
        p)
  in
  check_late ~smoke w.name lo hi;
  write_trace w.name [ (w.name ^ " lo", lo); (w.name ^ " hi", hi) ];
  (* 3. in-process replay *)
  let replay =
    Ledger.replay ~dir:(dir "replay") ~expected:w.expected ~flows:(replay_flows w.name)
      ~setup:(fun svc ->
        w.flow ~seed (Tcp.publish ~seed w (List.map (Pet_server.Service.handle_line svc))))
  in
  let tenants =
    match w.name with
    | "fleet" ->
      List.map
        (fun (f : Pet_corpus.Corpus.form) -> (f.name, f.text))
        (List.filteri (fun i _ -> i < 24) (Array.to_list (Lazy.force Flows.fleet_scenario).forms))
    | _ ->
      let text = Pet_rules.Spec.to_string (Lazy.force Flows.hcov) in
      List.init 5 (fun i -> (Printf.sprintf "hcov-%d" i, text))
  in
  let residual name p = residual ~name ~service_p50:replay.service_p50 ~expected:w.expected p in
  let metrics =
    gen_metrics (lo :: hi :: untraced :: probes)
    @ latency_metrics ~expected:w.expected ~prefix:"lo" lo
    @ latency_metrics ~expected:w.expected ~prefix:"hi" hi
    @ [
        knee;
        trace_overhead ~expected:w.expected ~traced:hi ~untraced;
        residual "net.residual_p50_us.lo" lo;
        residual "net.residual_p50_us.hi" hi;
      ]
    @ group_commit ~before ~after
    @ replay.metrics @ Ledger.tenant_builds tenants @ Ledger.substrate ()
  in
  ( metrics,
    Phase.attempted lo + Phase.attempted hi,
    Phase.failures ~expected:w.expected lo + Phase.failures ~expected:w.expected hi )

(* --- Substrate ------------------------------------------------------------------------------ *)

(* Requests per second, about 0.15 and 0.5 of the in-process knee. *)
let substrate_lo = 6000.
let substrate_hi = 20000.

(* Build every provider [plan.setups] times; the first build and the
   median build time. *)
let substrate_setup ~plan =
  let forms = Substrate.forms () in
  let builds = List.init plan.setups (fun _ -> Ledger.time (fun () -> Substrate.build forms)) in
  (fst (List.hd builds), Stats.median (Array.of_list (List.map snd builds)))

let substrate_e2e ~seed ~plan ~smoke =
  let built, setup_s = substrate_setup ~plan in
  let respondents = Substrate.respondents ~seed built in
  let run ~rate ~duration =
    Substrate.run respondents ~rate ~warmup:plan.warm ~duration
  in
  let lo, checks_lo = run ~rate:substrate_lo ~duration:plan.lo in
  let hi, checks_hi = run ~rate:substrate_hi ~duration:plan.hi in
  List.iter Substrate.check_minimal (checks_lo @ checks_hi);
  check_late ~smoke "substrate" lo hi;
  let metrics =
    [ metric "setup_s" "s" setup_s ]
    @ latency_metrics ~expected:[] ~prefix:"lo" lo
    @ latency_metrics ~expected:[] ~prefix:"hi" hi
    @ [ metric "rss_mb" "MiB" (Spawn.vmhwm_mib (Unix.getpid ())) ]
    @ gen_metrics [ lo; hi ]
  in
  (metrics, Phase.attempted lo + Phase.attempted hi, 0)

let substrate_traced ~work ~seed ~plan ~smoke =
  let built, _ = substrate_setup ~plan in
  let respondents = Substrate.respondents ~seed built in
  let checks = ref [] in
  let run ~rate ~warmup ~duration =
    let p, c = Substrate.run respondents ~rate ~warmup ~duration in
    checks := c @ !checks;
    p
  in
  let lo = run ~rate:substrate_lo ~warmup:plan.warm ~duration:plan.lo in
  let hi = run ~rate:substrate_hi ~warmup:plan.warm ~duration:plan.hi in
  let untraced = run ~rate:substrate_hi ~warmup:plan.warm ~duration:plan.hi in
  let knee, probes =
    knee ~plan ~expected:[] ~hi:substrate_hi (fun rate ->
        run ~rate ~warmup:plan.probe_warm ~duration:plan.probe)
  in
  List.iter Substrate.check_minimal !checks;
  check_late ~smoke "substrate" lo hi;
  write_trace "substrate" [ ("substrate lo", lo); ("substrate hi", hi) ];
  (* the same respondents served through the service layer *)
  let replay =
    Ledger.replay ~dir:(Filename.concat work "substrate-replay") ~expected:[] ~flows:300
      ~setup:(fun svc ->
        let digests =
          List.map
            (fun ((f : Substrate.form), _) ->
              let text = Pet_rules.Spec.to_string f.exposure in
              let reply =
                Pet_server.Service.handle_line svc
                  (Tcp.req "publish_rules" (Printf.sprintf {|"rules":%s|} (Wire.quote text)))
              in
              (f, Option.get (Wire.string_field reply "digest")))
            built
        in
        fun i ->
          let f, _, v = respondents.(i mod Array.length respondents) in
          Flows.submission
            ~opener:(Printf.sprintf {|"digest":%s|} (Wire.quote (List.assq f digests)))
            (Pet_valuation.Total.to_string v))
  in
  (* In process there is no socket, shard queue or group commit: the
     residual is the generator's own queue wait, and no batch is made. *)
  let residual name (p : Phase.t) =
    let xs = Array.map (fun (r : Phase.record) -> r.sent -. r.due) p.records in
    Phase.percentile_exn ~unit:"us" ~scale:1e6 name (Stats.sorted xs) 0.5
  in
  let tenants =
    List.mapi
      (fun i ((f : Substrate.form), _) ->
        (Printf.sprintf "s%02d-%s" i f.case, Pet_rules.Spec.to_string f.exposure))
      built
  in
  let metrics =
    gen_metrics (lo :: hi :: untraced :: probes)
    @ latency_metrics ~expected:[] ~prefix:"lo" lo
    @ latency_metrics ~expected:[] ~prefix:"hi" hi
    @ [
        knee;
        trace_overhead ~expected:[] ~traced:hi ~untraced;
        residual "net.residual_p50_us.lo" lo;
        residual "net.residual_p50_us.hi" hi;
      ]
    @ group_commit ~before:[] ~after:[]
    @ replay.metrics @ Ledger.tenant_builds tenants @ Ledger.substrate ()
  in
  (metrics, Phase.attempted lo + Phase.attempted hi, 0)

(* --- Declared metrics ------------------------------------------------------------------------ *)

(* BENCHMARK.json at the checkout root is the one list of declared
   metrics: the JSON line carries exactly those, with their units. *)
let declared ~traced =
  let module J = Pet_pet.Json in
  let json = J.parse_exn (Spawn.read_file "BENCHMARK.json") in
  let key = if traced then "per_layer" else "end_to_end" in
  match J.member key json with
  | Some (J.List l) ->
    List.map
      (fun m ->
        let field k = Option.get (Option.bind (J.member k m) J.string_opt) in
        (field "name", field "unit"))
      l
  | _ -> failwith ("BENCHMARK.json: no " ^ key ^ " list")

(* Every digit of a measured value. *)
let number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.1f" v else Printf.sprintf "%.17g" v

let result_line ~declared ~attempted ~failed (metrics : Phase.metric list) =
  let entry (name, unit) =
    match List.find_opt (fun (m : Phase.metric) -> m.name = name) metrics with
    | Some m when m.unit = unit ->
      Printf.sprintf {|%s:{"value":%s,"unit":%s}|} (Wire.quote name) (number m.value) (Wire.quote unit)
    | Some m -> failwith (Printf.sprintf "metric %s is in %s, declared in %s" name m.unit unit)
    | None -> failwith (Printf.sprintf "declared metric %s was not measured" name)
  in
  Printf.sprintf {|{"correct":true,"attempted":%d,"failed":%d,"metrics":{%s}}|} attempted failed
    (String.concat "," (List.map entry declared))

(* --- Main ---------------------------------------------------------------------------------------- *)

let () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let workload = ref "journey" and seed = ref 1 and seconds = ref 15. and trace = ref 0 in
  let smoke = ref false and pet = ref "_build/default/bin/pet.exe" and work = ref "bench/load/work" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "W journey, browse, fleet or substrate");
      ("--seed", Arg.Set_int seed, "N the workload seed");
      ("--seconds", Arg.Set_float seconds, "S seconds measured in one run");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
      ("--smoke", Arg.Set smoke, " a run of a few seconds, for tests");
      ("--pet", Arg.Set_string pet, "PATH the pet binary");
      ("--work", Arg.Set_string work, "DIR where data directories go");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "load.exe [--workload W] [--seed N] [--seconds S] [--trace 0|1]";
  let traced = !trace = 1 in
  let plan = plan ~smoke:!smoke ~traced ~workload:!workload !seconds in
  let work = Filename.concat !work (string_of_int (Unix.getpid ())) in
  let code =
    match
      let declared = declared ~traced in
      let tcp w =
        if traced then tcp_traced ~pet:!pet ~work ~seed:!seed ~plan ~smoke:!smoke w
        else tcp_e2e ~pet:!pet ~work ~seed:!seed ~plan ~smoke:!smoke w
      in
      let metrics, attempted, failed =
        match !workload with
        | "journey" -> tcp Tcp.journey
        | "browse" -> tcp Tcp.browse
        | "fleet" -> tcp Tcp.fleet
        | "substrate" when traced -> substrate_traced ~work ~seed:!seed ~plan ~smoke:!smoke
        | "substrate" -> substrate_e2e ~seed:!seed ~plan ~smoke:!smoke
        | w -> failwith ("unknown workload " ^ w)
      in
      List.iter
        (fun (m : Phase.metric) ->
          Printf.printf "%s %s %s %s%s\n" !workload m.name (number m.value) m.unit
            (match m.samples with Some n -> Printf.sprintf " (n=%d)" n | None -> ""))
        metrics;
      result_line ~declared ~attempted ~failed metrics
    with
    | line ->
      print_endline line;
      0
    | exception
        ( Tcp.Failed m | Void m | Substrate.Wrong m | Phase.Missing m | Failure m
        | Client.Timeout m | Sys_error m ) ->
      Printf.eprintf "load: %s\n%!" m;
      1
    | exception e ->
      Printf.eprintf "load: %s\n%!" (Printexc.to_string e);
      1
  in
  Spawn.stop_all ();
  Spawn.rm_rf work;
  exit code
