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

type latency = {
  label : string;  (** the [method] or [tenant] label value *)
  requests : int;
  p99 : float;  (** seconds *)
}

type slo = {
  key : string;
  window_requests : int;  (** as last seen *)
  p99_s : float;
  error_ratio : float;
  error_burn : float;
  error_burn_max : float;  (** peak over the journal *)
  latency_burn : float;
  latency_burn_max : float;
  breached : bool;  (** ever breached *)
}

type report = {
  dir : string;
  records : int;
  kinds : (string * int) list;  (** records per kind: snap, log, trace, meta *)
  unparsed : int;
  t_min : float;  (** [0.] without records *)
  t_max : float;
  damage : Segment.damage list;
  wal : (string * int * float) option;
      (** the last WAL frontier stamp: file, byte offset, time *)
  lifecycle : (string * float) list;  (** meta events in order, with times *)
  methods : latency list;
  tenants : latency list;
  slos : slo list;
}

val report : string -> (report, string) result
(** Fold the flight journal in a directory into one report. Per-method
    and per-tenant [requests] and [p99] are summed back from the
    [pet_server_request_seconds] / [pet_tenant_request_seconds] bucket
    deltas; gauges keep their last-seen value and their peak. *)

val to_json : report -> Pet_pet.Json.t
(** The [pet flight report --json] object: [dir], [records], [kinds],
    [unparsed], [t_min]/[t_max], [damage], [wal] ([file], [off], [t];
    or null), [lifecycle] ([event], [t]), [methods] and [tenants]
    (per [method]/[tenant]: [requests] and [p99_s]) and [slo] (per
    [key]: [window_requests], [p99_s], [error_ratio], [error_burn],
    [latency_burn], their [_max] peaks, and [breached]). *)

val pp_report : Format.formatter -> report -> unit
(** The text view of [pet flight report]: one line per fact. *)

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

val pp_frame :
  addr:string -> frame_no:int -> ?prev:frame -> Format.formatter -> frame -> unit
(** One [pet top] frame: request and error rates against [prev],
    process gauges, per-method rows ({!method_latency}), per-tenant
    rates and SLO burn rows. *)
