(* Service-level objectives judged over one summed window.

   The windows themselves belong to the per-request accounting cells
   (each keeps a ring of [slices] time-aligned slices); a reader sums
   the slices still inside the window into one histogram plus an error
   count, and this module turns that sum into burn rates.

   Burn rates follow the error-budget convention: a p99 objective
   grants a 1% budget of requests over the target, an error-ratio
   objective grants max_error_ratio — burn = consumption / budget, so
   burn > 1 means the budget is being spent faster than it accrues. *)

type objective = { p99_s : float; max_error_ratio : float; window_s : float }

let default_objective = { p99_s = 0.05; max_error_ratio = 0.01; window_s = 60. }

(* Latency budget fraction behind a p99 objective: 1% of requests may
   exceed the target before the budget is spent. *)
let latency_budget = 0.01

(* Burn rates are capped so a zero budget (or an empty window) cannot
   produce infinities in gauges or JSON. *)
let burn_cap = 1e6

let slices = 12

type report = {
  key : string;
  window_s : float;
  requests : int;
  errors : int;
  error_ratio : float;
  p99_s : float;
  p99_target_s : float;
  over_target : int;
  latency_burn : float;
  error_burn : float;
  breached : bool;
}

let cap b = if b > burn_cap then burn_cap else b

let evaluate ?(objective = default_objective) key ~errors
    (window : Metrics.hist_stats) =
  let o = objective in
  let requests = window.Metrics.count in
  let ratio n = if requests = 0 then 0. else float_of_int n /. float_of_int requests in
  (* Observations over the latency target, at bucket granularity: the
     bucket containing the target counts as within it (optimistic by at
     most one bucket width — buckets double, so the estimate is within
     2x; the same bucketing the p99 itself uses). *)
  let over_target =
    let target = Metrics.bucket_bounds.(Metrics.bucket_of o.p99_s) in
    List.fold_left
      (fun over (bound, n) -> if bound > target then over + n else over)
      0 window.Metrics.buckets
  in
  let error_ratio = ratio errors in
  let latency_burn = cap (ratio over_target /. latency_budget) in
  let error_burn =
    if o.max_error_ratio > 0. then cap (error_ratio /. o.max_error_ratio)
    else if errors > 0 then burn_cap
    else 0.
  in
  {
    key;
    window_s = o.window_s;
    requests;
    errors;
    error_ratio;
    p99_s = Metrics.quantile window 0.99;
    p99_target_s = o.p99_s;
    over_target;
    latency_burn;
    error_burn;
    breached = latency_burn >= 1. || error_burn >= 1.;
  }

let families =
  [
    ( "pet_slo_window_requests",
      "Requests in the SLO rolling window, per objective key." );
    ("pet_slo_error_ratio", "Windowed error ratio, per objective key.");
    ( "pet_slo_p99_seconds",
      "Windowed p99 latency in seconds, per objective key." );
    ( "pet_slo_error_burn",
      "Error-budget burn rate (>1 burns faster than the budget)." );
    ( "pet_slo_latency_burn",
      "Latency-budget burn rate (>1 burns faster than the budget)." );
    ("pet_slo_breached", "1 when either burn rate is >= 1.");
  ]

let () = List.iter (fun (name, help) -> Metrics.set_help name help) families

let gauges r =
  let label = Printf.sprintf "{slo=\"%s\"}" (Metrics.escape_label r.key) in
  List.map2
    (fun (family, _) v -> (family ^ label, v))
    families
    [
      float_of_int r.requests;
      r.error_ratio;
      r.p99_s;
      r.error_burn;
      r.latency_burn;
      (if r.breached then 1. else 0.);
    ]
