(** Telemetry for every analysis backend: a metrics registry
    ({!Metrics}: counters, gauges, log-scale histograms), nestable timed
    spans ({!Span}), the flight recorder ({!Flight}: one timeline of
    phases and spans, exported as a Chrome trace, and the per-domain
    totals that are the one timing source for spans and phases alike),
    run reports ({!Report}) and the shared escaping-correct JSON builder
    ({!Json}).

    Conventions: metric and span names are dotted lower-case paths
    prefixed with the owning subsystem ([engine.visited],
    [smc.run_wall_s], [bip.interactions_fired]); durations are in
    seconds. Instruments resolve their handles once at module
    initialisation and update them with plain stores into the calling
    domain's own {!Shard} slot, summed on read, so hot loops stay
    instrumented at full speed. The whole layer is
    domain-safe: the [Par] worker pool updates metrics and records spans
    concurrently, and run reports break span time out per domain. *)

module Json = Json
module Clock = Clock
module Shard = Shard
module Metrics = Metrics
module Span = Span
module Flight = Flight
module Report = Report

(** Shorthands on the default registry. *)
let counter name = Metrics.Counter.make name

let gauge name = Metrics.Gauge.make name
let histogram name = Metrics.Histogram.make name

(** Reset the default registry and the flight recorder's rings and
    totals (spans and phases) — the start of a fresh measured run. *)
let reset () =
  Metrics.Registry.reset Metrics.Registry.default;
  Flight.reset ()
