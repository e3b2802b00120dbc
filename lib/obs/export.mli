(** Text exporters for {!Metrics.snapshot}.

    Neither function touches the global registry — pass them a snapshot
    — so exporting is side-effect free and easy to test. *)

val prometheus : Metrics.snapshot -> string
(** Prometheus text exposition (version 0.0.4 subset): one
    [# HELP name text] + [# TYPE name kind] comment pair per metric
    family (help from {!Metrics.help}, with a generic fallback so every
    family is annotated), counters as [_total] samples, gauges as plain
    samples, histograms expanded into cumulative [name_bucket{le="..."}]
    samples plus [name_sum] and [name_count]. Names with labels merge
    the [le] label into the existing label set; label values are escaped
    by {!Metrics.escape_label} at registration time. Sorted input yields
    byte-stable output. *)

val line : Metrics.snapshot -> string
(** A compact single-line [k=v] summary (counters and gauges verbatim,
    histograms as [name.count/.p50/.p99]), for log lines and test
    output. Zero counters and
    never-observed histograms are omitted — the quiet parts of the
    system don't drown the active ones; gauges are always shown. No
    trailing newline. *)
