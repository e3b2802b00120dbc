(** Service-level objectives (SLOs) and burn rates over one window.

    This module holds no state. The rolling windows live in the
    per-request accounting cells of the service
    ({!Pet_server.Accounting}): each cell keeps a ring of {!slices}
    time-aligned slices over the objective's window, and a reader sums
    the slices still inside the window — across every shard — into one
    {!Metrics.hist_stats} plus an error count. {!evaluate} judges that
    sum against an objective; {!gauges} names the result as the
    [pet_slo_*] gauge series that [metrics], Prometheus, [watch] frames
    and the flight journal carry.

    Burn rates use the error-budget convention: a [p99_s] target grants
    a 1% budget of requests over target, [max_error_ratio] grants
    itself; burn = consumption / budget, capped at [1e6], and a burn
    rate [>= 1] means the budget is being consumed faster than it
    accrues ([breached]). *)

type objective = {
  p99_s : float;  (** latency target: 99% of requests at or under this *)
  max_error_ratio : float;  (** allowed error fraction over the window *)
  window_s : float;  (** rolling window length, seconds *)
}

val default_objective : objective
(** 50 ms p99, 1% errors, 60 s window. *)

val slices : int
(** Slices per window ring (12): a window slides with
    [window_s / slices] granularity, and stale slices age out by
    alignment, without a sweeper. *)

type report = {
  key : string;
  window_s : float;
  requests : int;  (** requests inside the window *)
  errors : int;
  error_ratio : float;
  p99_s : float;  (** windowed p99 ({!Metrics.quantile}: bucket bound, capped at max) *)
  p99_target_s : float;
  over_target : int;  (** observations above the target, bucket-granular *)
  latency_burn : float;
  error_burn : float;
  breached : bool;  (** either burn rate reached 1 *)
}

val evaluate :
  ?objective:objective -> string -> errors:int -> Metrics.hist_stats -> report
(** [evaluate key ~errors window] judges one summed window ([count] is
    the request count, [max] caps the p99) against [objective]
    (default {!default_objective}). *)

val gauges : report -> (string * float) list
(** The report as gauge samples labeled [{slo="KEY"}]:
    [pet_slo_window_requests], [pet_slo_error_ratio],
    [pet_slo_p99_seconds], [pet_slo_error_burn], [pet_slo_latency_burn]
    and [pet_slo_breached], in that order (their help strings are
    registered with {!Metrics.set_help}). *)
