(* Tests of the benchmark's own arithmetic and of its declaration.

   The smoke cases run the benchmark for a few seconds from the build
   root (where BENCHMARK.json and bin/pet.exe are) and check that the
   JSON line carries every declared metric. *)

let approx = Alcotest.float 1e-9

(* --- Due times and lateness --------------------------------------------------- *)

let test_schedule () =
  let interval = Sched.flow_interval ~rate:1000. ~steps:4. in
  Alcotest.check approx "4-step flows at 1000 req/s arrive every 4 ms" 0.004 interval;
  Alcotest.check approx "flow 3 is due 12 ms in" 10.012 (Sched.flow_due ~t0:10. ~interval 3);
  Alcotest.check approx "the next step is due a think gap after the reply" 5.001
    (Sched.step_due ~reply:5.);
  Alcotest.check approx "a late send counts its delay" 0.002 (Sched.lateness ~due:1. ~sent:1.002);
  Alcotest.check approx "an early send is not late" 0. (Sched.lateness ~due:1. ~sent:0.999);
  (* three steps, each 2 ms from its due time, separated by think gaps *)
  let due1 = 0. in
  let reply1 = due1 +. 0.002 in
  let due2 = Sched.step_due ~reply:reply1 in
  let reply2 = due2 +. 0.002 in
  let due3 = Sched.step_due ~reply:reply2 in
  let reply3 = due3 +. 0.002 in
  Alcotest.check approx "a flow's wait is the sum of its step latencies" 0.006
    (Sched.flow_wait ~first_due:due1 ~last_reply:reply3 ~steps:3)

let test_heap () =
  let h = Sched.Heap.create () in
  List.iter (fun k -> Sched.Heap.push h k (int_of_float k)) [ 5.; 1.; 4.; 2.; 3.; 0.5 ];
  let rec drain acc = if Sched.Heap.is_empty h then List.rev acc else drain (fst (Sched.Heap.pop h) :: acc) in
  Alcotest.(check (list (float 0.))) "pops in due order" [ 0.5; 1.; 2.; 3.; 4.; 5. ] (drain [])

(* --- Percentiles ---------------------------------------------------------------- *)

let test_percentile_rule () =
  let ramp n = Array.init n (fun i -> float_of_int (i + 1)) in
  let check name expected n q =
    Alcotest.(check (option (float 0.))) name expected (Stats.percentile (ramp n) q)
  in
  check "p99 of 1000 samples has 10 beyond it" (Some 990.) 1000 0.99;
  check "p99 of 999 samples is omitted" None 999 0.99;
  check "a median of 20 samples has 10 beyond it" (Some 10.) 20 0.5;
  check "a median of 19 samples is omitted" None 19 0.5;
  check "p99.9 needs 10000 samples" None 9999 0.999;
  Alcotest.check approx "median of an even count" 2.5 (Stats.median [| 4.; 1.; 3.; 2. |])

(* --- Knee search ------------------------------------------------------------------ *)

(* A synthetic server whose p99 stays low up to 1000 req/s. *)
let passes rate = rate <= 1000.

let test_knee_brackets () =
  let best, probes = Knee.search ~max_probes:20 ~start:800. passes in
  let best = Option.get best in
  Alcotest.(check bool) "the knee is a passing rate" true (passes best);
  Alcotest.(check bool) "within 4% of the true knee" true (best >= 1000. /. 1.04);
  Alcotest.(check bool) "steps up first" true ((List.nth probes 1).rate = 1000.);
  let fails = List.filter (fun (p : Knee.probe) -> not p.pass) probes in
  let lowest_fail = List.fold_left (fun m (p : Knee.probe) -> Float.min m p.rate) infinity fails in
  Alcotest.(check bool) "the bracket closed to 4%" true (lowest_fail /. best <= 1.04)

let test_knee_from_above () =
  let best, _ = Knee.search ~max_probes:20 ~start:3000. passes in
  let best = Option.get best in
  Alcotest.(check bool) "steps down to a pass, then bisects" true (best <= 1000. && best >= 1000. /. 1.04)

let test_knee_budget () =
  let best, probes = Knee.search ~max_probes:3 ~start:100. passes in
  Alcotest.(check int) "never more probes than the budget" 3 (List.length probes);
  Alcotest.(check (option (float 1e-9))) "reports the best rate seen" (Some (100. *. 1.25 *. 1.25)) best

(* --- Grant order ------------------------------------------------------------------ *)

let test_grant_order () =
  let check name expected ids =
    Alcotest.(check (result int string)) name expected (Grants.out_of_order ids)
  in
  check "in order" (Ok 0) [ 0; 1; 2; 3 ];
  check "one swapped pair" (Ok 1) [ 0; 2; 1; 3 ];
  check "a swap at each end" (Ok 2) [ 1; 0; 2; 4; 3 ];
  check "one grant two places late" (Ok 1) [ 0; 2; 3; 1; 4 ];
  let fails name ids =
    match Grants.out_of_order ids with
    | Ok n -> Alcotest.failf "%s: accepted with %d out of order" name n
    | Error _ -> ()
  in
  fails "a gap" [ 0; 1; 3; 4 ];
  fails "a swapped pair, then a gap" [ 1; 0; 3 ];
  fails "a repeated id" [ 0; 1; 1; 2 ];
  fails "not starting at 0" [ 1; 2 ]

(* --- The declaration -------------------------------------------------------------- *)

module J = Pet_pet.Json

let declaration = lazy (J.parse_exn (In_channel.with_open_bin "../../BENCHMARK.json" In_channel.input_all))

let metrics key =
  match J.member key (Lazy.force declaration) with
  | Some (J.List l) -> l
  | _ -> Alcotest.failf "BENCHMARK.json has no %s list" key

let field k m = Option.get (Option.bind (J.member k m) J.string_opt)

let valid_name s =
  s <> ""
  && String.for_all
       (fun c -> (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') || String.contains "_.-" c)
       s

(* Every name is [A-Za-z0-9_.-]+, and wherever [pet bench diff]'s name
   heuristic classifies a metric it agrees with the declared direction. *)
let test_names () =
  let all = metrics "end_to_end" @ metrics "per_layer" in
  List.iter
    (fun m ->
      let name = field "name" m in
      if not (valid_name name) then Alcotest.failf "bad metric name %S" name;
      let better = field "better" m in
      match (Pet_pet.Benchdiff.direction_of_key name, better) with
      | Pet_pet.Benchdiff.Info, _ | Higher_better, "higher" | Lower_better, "lower" -> ()
      | _ -> Alcotest.failf "%s is declared %s-is-better; bench diff reads it the other way" name better)
    all;
  List.iter
    (fun w -> if not (valid_name (field "name" w)) then Alcotest.failf "bad workload name")
    (metrics "workloads")

(* --- Smoke ---------------------------------------------------------------------------- *)

let smoke workload trace () =
  let key = if trace = 1 then "per_layer" else "end_to_end" in
  let declared = List.map (field "name") (metrics key) in
  let out = Printf.sprintf "bench/load/smoke-%s-%d.out" workload trace in
  let cmd =
    Printf.sprintf
      "cd ../.. && bench/load/load.exe --smoke --workload %s --trace %d --pet bin/pet.exe --work bench/load/smoke-work > %s"
      workload trace out
  in
  Alcotest.(check int) "exits 0" 0 (Sys.command cmd);
  let lines = In_channel.with_open_bin ("../../" ^ out) In_channel.input_lines in
  let last = J.parse_exn (List.nth lines (List.length lines - 1)) in
  let printed =
    match J.member "metrics" last with
    | Some (J.Obj kvs) -> List.map fst kvs
    | _ -> Alcotest.fail "no metrics object on the last line"
  in
  Alcotest.(check (list string)) "every declared metric, in order" declared printed

let () =
  Alcotest.run "load"
    [
      ("schedule", [ Alcotest.test_case "due times and lateness" `Quick test_schedule; Alcotest.test_case "heap" `Quick test_heap ]);
      ("percentiles", [ Alcotest.test_case "ten samples beyond" `Quick test_percentile_rule ]);
      ( "knee",
        [
          Alcotest.test_case "brackets to 4%" `Quick test_knee_brackets;
          Alcotest.test_case "from above" `Quick test_knee_from_above;
          Alcotest.test_case "probe budget" `Quick test_knee_budget;
        ] );
      ("grants", [ Alcotest.test_case "reordered, never missing" `Quick test_grant_order ]);
      ("declaration", [ Alcotest.test_case "names and directions" `Quick test_names ]);
      ( "smoke",
        [
          Alcotest.test_case "journey end to end" `Slow (smoke "journey" 0);
          Alcotest.test_case "journey traced" `Slow (smoke "journey" 1);
          Alcotest.test_case "substrate end to end" `Slow (smoke "substrate" 0);
        ] );
    ]
