(** Reading flight snapshots back: the analysis behind [pet flight
    report] (a fold over a journal's delta records) and [pet top]
    (full [watch] frames, diffed frame to frame). Both read the record
    shape {!Pet_obs.Flight} writes, keyed by rendered metric names. *)

val metric_labels : string -> string * (string * string) list
(** Split a rendered metric name into family and labels (the inverse of
    the registry's rendering); a malformed label list yields the labels
    parsed before the fault. *)

val le_value : string -> float
(** A bucket key as a bound; ["+Inf"] and unparsable keys are
    [infinity]. *)

val p99 : (float * int) list -> int -> float
(** [p99 buckets total] over per-bucket counts: {!Pet_obs.Metrics.quantile}
    with the largest finite bound present as the maximum, so a p99 in
    the [+Inf] bucket reads as that bound; [0.] when [total <= 0]. *)

val report : string -> (Pet_pet.Json.t, string) result
(** Fold the flight journal in a directory into one report: [dir],
    [records], [kinds] (records per kind), [unparsed], [t_min]/[t_max]
    ([0] without records), [damage], [wal] (the last frontier stamp:
    [file], [off], [t]; or null), [lifecycle] (meta [event]s in order),
    [methods] and [tenants] (per [method]/[tenant]: [requests] and
    [p99_s], summed back from the [pet_server_request_seconds] /
    [pet_tenant_request_seconds] bucket deltas) and [slo] (per [key]:
    [window_requests], [p99_s], [error_ratio], [error_burn],
    [latency_burn] as last seen, their [_max] peaks, and whether it was
    ever [breached]). *)

type frame = {
  t : float;
  counters : (string * float) list;
  gauges : (string * float) list;
  hists : (string * (float * (float * int) list)) list;  (** name -> (count, buckets) *)
}

val frame : string -> frame option
(** Parse one [watch] response line; [None] for anything else. *)

val sample : (string * float) list -> string -> float
(** A sample by full name, [0.] when absent. *)

val series : string -> string -> (string * 'a) list -> (string * string * 'a) list
(** [series family label samples]: the samples of [family] carrying
    [label], as (label value, full name, sample), sorted. *)

val method_latency : ?prev:frame -> frame -> (string * float * float * float) list
(** Per wire method: (method, count, count in [prev], p99). The p99
    covers the interval since [prev] when it is earlier and saw fewer
    requests, else the whole frame. *)
