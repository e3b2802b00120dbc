(** The metrics core of the observability layer: monotonic counters,
    gauges and log-bucketed latency histograms behind a single global
    on/off switch.

    The registry is process-global and disabled by default, so the
    instrumented hot paths (SAT propagation, BDD [ite], the store append
    loop) pay one boolean load per event when observability is off —
    effectively free. {!enable} turns every instrument on at once; the
    CLI does so for [pet serve], [pet profile] and the [obs] bench
    scenario.

    Metrics are identified by a [name] plus optional [labels] (rendered
    Prometheus-style, e.g. [pet_server_request_seconds{method="stats"}]).
    Registration is idempotent: calling {!counter} twice with the same
    identity returns the same instrument, so call sites may register at
    module-initialization time or lazily.

    Instruments are domain-safe: counters are atomic, histograms and
    the registry are mutex-guarded, and gauges are single-word float
    stores (concurrent writers race only to last-writer-wins — shards
    wanting distinct values use per-shard labels). The sharded TCP
    server ({!Pet_net}) increments the same instruments from every
    worker domain. *)

val enabled : unit -> bool
val enable : unit -> unit
val disable : unit -> unit

val set_clock : (unit -> float) -> unit
(** Replace the time source used by {!time} and {!Span.enter}
    (default [Unix.gettimeofday]). Tests and [pet serve --deterministic]
    install a logical clock here so latency histograms and span trees
    are byte-for-byte reproducible. *)

val now : unit -> float
(** Read the current clock (regardless of {!enabled}). *)

val logical_clock : unit -> unit -> float
(** A fresh logical clock: [1.] on its first reading and one more on
    each later one. Readings are atomic, so domains sharing one clock
    share one timeline. *)

val escape_label : string -> string
(** Prometheus label-value escaping: backslash, double quote and
    newline become backslash-escaped sequences; everything else passes
    through. Values without those characters are returned unchanged
    (same string). *)

val set_help : string -> string -> unit
(** Attach a one-line help string to a metric family (the bare name,
    without labels). First writer wins; the Prometheus exporter emits it
    as the family's [# HELP] line. *)

val help : string -> string option
(** Look up a family's help string. *)

(** {1 Counters} *)

type counter

val counter : ?labels:(string * string) list -> ?help:string -> string -> counter
(** Register (or look up) a monotonic counter. By convention names end
    in [_total]. [?help] records the family's help string (see
    {!set_help}). *)

val incr : counter -> unit
(** Add 1 when enabled; no-op otherwise. *)

val add : counter -> int -> unit
(** Add [n] (>= 0) when enabled; no-op otherwise. *)

val counter_value : counter -> int

(** {1 Gauges} *)

type gauge

val gauge : ?labels:(string * string) list -> ?help:string -> string -> gauge

val set_gauge : gauge -> float -> unit
(** Set the current value when enabled; no-op otherwise. *)

val gauge_value : gauge -> float

(** {1 Histograms} *)

type histogram

val histogram :
  ?labels:(string * string) list -> ?help:string -> string -> histogram
(** Register a log-bucketed histogram intended for latencies in
    seconds. Bucket upper bounds are [1e-6 * 2^i] for [i = 0..38]
    (1 microsecond up to ~4.7 minutes) plus a final overflow bucket;
    see {!bucket_bounds}. *)

val observe : histogram -> float -> unit
(** Record one value when enabled; no-op otherwise. Negative values
    clamp to 0 (and land in the first bucket). *)

val time : histogram -> (unit -> 'a) -> 'a
(** Run the thunk, recording its duration on the {!now} clock when
    enabled. When disabled the clock is not even read. Exceptions
    propagate after the observation. *)

val time_wall : histogram -> (unit -> 'a) -> 'a
(** {!time} on the wall clock, whatever {!set_clock} installed: for work
    whose number of runs depends on scheduling (the WAL writer's batched
    appends and fsyncs), where reading a logical clock would make every
    later reading depend on how the work happened to be batched. *)

val bucket_bounds : float array
(** The shared upper bounds, ascending; the last element is
    [infinity]. Exposed for tests and exporters. *)

val bucket_of : float -> int
(** Index into {!bucket_bounds} of the bucket a value lands in
    (negative values clamp to 0). Exposed so {!Slo} windows share the
    histogram's bucketing exactly. *)

(** {1 Snapshots} *)

type hist_stats = {
  count : int;
  sum : float;
  max : float;
  buckets : (float * int) list;
      (** (upper bound, count in that bucket), non-empty buckets only,
          ascending by bound *)
}

val quantile : hist_stats -> float -> float
(** [quantile h q] estimates the [q]-quantile ([0 < q <= 1]) as the
    upper bound of the first bucket whose cumulative count reaches
    [ceil (q * count)], capped at the maximum observed value (so the
    estimate never exceeds reality). Returns [0.] for an empty
    histogram. *)

type snapshot = {
  counters : (string * int) list;
  gauges : (string * float) list;
  histograms : (string * hist_stats) list;
}
(** All sequences are sorted by rendered metric name, so equal recorded
    histories yield byte-identical exports — snapshot determinism is a
    tested property. *)

val snapshot : unit -> snapshot

val reset : unit -> unit
(** Zero every registered instrument (registrations survive). Does not
    change {!enabled} or the clock. *)
