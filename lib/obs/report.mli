(** The run report: a JSON snapshot of every observability source.

    Shape (["phases"] only when the flight recorder timed any phase):
    {v
    { "version": 1,
      "metrics": { "<name>": {"type": "counter", ...}, ... },
      "spans":   { "<name>": {"count", "total_s"}, ... },
      "span_domains": { "<domain-id>": { "<name>": {...} }, ... },
      "gc":      { "stat", "minor_words", ..., "live_words" },
      "phases":  { "<name>": {"count", "total_s"}, ... } }
    v}

    Spans and phases are both read from the {!Flight} totals; a name
    appears under ["spans"] when [Span.with_] timed it and under
    ["phases"] when a flight phase did, never under both.
    [span_domains] breaks the span totals out by recording domain
    (domain 0 is the main domain) — under a [Par] pool it shows how a
    parallel section's time split across the workers. *)

(** [make ()] snapshots the registry (default: {!Metrics.Registry.default}),
    the span and phase totals and the GC.

    GC fields come from [Gc.quick_stat] — no heap walk: allocation
    totals and collection counts are exact, [live_words] and
    [heap_words] are as of the last major collection (may lag by one
    cycle). The [gc.stat] field says ["quick"]. *)
val make : ?registry:Metrics.Registry.t -> unit -> Json.t

(** The report's ["spans"] and ["span_domains"] members alone. *)
val spans_json : unit -> Json.t

val span_domains_json : unit -> Json.t

val to_file : string -> ?registry:Metrics.Registry.t -> unit -> unit
