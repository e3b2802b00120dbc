(** Per-request accounting: one set of cells per shard, the single
    record behind [stats], the request metrics, the SLO windows, [watch]
    frames and flight snapshots.

    A cell holds a request count, an error count, a latency sum and
    max, the {!Pet_obs.Metrics.bucket_bounds} counts, and a ring of
    {!Pet_obs.Slo.slices} time-aligned SLO slices. A set has one cell
    per wire method (an array indexed by a static match on the
    request), one per tenant it has served, and the shard's arrival
    count. A tally (a cell's total, or one slice) allocates its bucket
    counts on its first record, so a tenant's cell that recorded in one
    slice takes about 200 words, not 650; readers take a tally that
    never recorded as empty.

    Only the owning shard records into its set, so recording takes no
    lock. Readers on other domains ({!snapshot}) read the cells racily:
    every read is word-sized and memory-safe, but a view may lag
    requests still being recorded, and a slice being recycled for a new
    period may read as partly reset. The tenant table is an immutable
    map replaced whole on insert, so a reader always sees all of it. *)

type t

val create : unit -> t

val methods : string array
(** The wire method names in byte order, plus ["invalid"] for lines
    that did not decode. *)

val invalid : int
(** The index of ["invalid"] in {!methods}. *)

val method_index : Proto.request -> int
(** The index of [Proto.method_name request] in {!methods}. *)

val arrive : t -> unit
(** Count one request on arrival, before it is decoded. *)

val record :
  t ->
  meth:int ->
  tenant:string option ->
  now:float ->
  latency:float ->
  error:bool ->
  unit
(** Record one answered request: one bucket lookup, then the method's
    cell and, with [tenant], that tenant's cell (created on first use).
    [now] places it in the SLO ring; negative latencies clamp to 0. *)

val record_hold : t -> float -> unit
(** Record how long (seconds) a rendered reply was held before it was
    written: the commit wait of a durable server. Negative values clamp
    to 0. *)

val requests_json : t -> Pet_pet.Json.t
(** This set's [stats] "requests" section: [total] arrivals and, per
    method answered at least once, [count], [errors] and [latency_s]
    [total]/[max]. *)

val snapshot :
  t list ->
  now:float ->
  Pet_obs.Metrics.snapshot ->
  Pet_obs.Metrics.snapshot
(** Add the series merged from the sets to a snapshot, every list kept
    sorted by name: counters [pet_server_requests_total] (arrivals),
    [pet_server_errors_total], [pet_net_shard_requests_total{domain="I"}]
    (the [I]th set's arrivals), [pet_tenant_requests_total{tenant}] and,
    once that tenant failed a request, [pet_tenant_errors_total{tenant}];
    histograms
    [pet_server_request_seconds{method}] for every method and
    [pet_tenant_request_seconds{tenant}] and, once a reply was held,
    [pet_net_reply_hold_seconds]; and the {!Pet_obs.Slo.gauges}
    of every key that recorded a request, windowed at [now]. *)
