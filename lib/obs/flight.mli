(** The flight recorder: per-domain ring buffers of engine phase and
    span events with overwrite-oldest semantics, drained into Chrome
    [trace_event] JSON (chrome://tracing / Perfetto).

    Appending is lock-free and allocation-free: the calling domain owns
    its ring and writes with plain stores. When the recorder is off,
    {!start} costs one atomic load and returns a sentinel that turns the
    matching {!stop} into a no-op — the instrumentation can stay in the
    hot path permanently. Names are interned to ids once ({!intern} at
    module initialisation, never per event).

    Per-name totals (count, total seconds) are kept separately from the
    ring and see every [Complete] event, so breakdowns stay exact even
    after the ring wraps; only the event *timeline* is bounded by the
    capacity ({!dropped} counts overwritten events). They are the one
    timing source of the process: engine phases ({!stop}) and closed
    [Span.with_] spans ({!complete}) both add up there, spans even while
    the recorder is off. {!totals} reads the phases, {!span_totals} and
    {!span_domain_totals} the spans.

    {!enable}, {!disable}, {!reset} and {!drain} touch other domains'
    rings: call them at quiescent points (no concurrent appenders). *)

type kind = Complete | Instant | Counter

type event = {
  domain : int;
  seq : int;  (** per-domain append index (monotone, pre-wrap) *)
  name : string;
  kind : kind;
  ts : float;  (** Unix epoch seconds (converted from {!Clock} ticks) *)
  dur : float;  (** seconds for [Complete], sampled value for [Counter] *)
}

(** Intern a phase name; idempotent. *)
val intern : string -> int

(** Start recording. [capacity] (events per domain, rounded up to a
    power of two, default 8192) bounds the timeline; existing rings are
    cleared. A ring costs ~24 bytes an event and competes with the
    engine's working set for cache — the 8192 default (~192KB) keeps
    recorder overhead in budget; raise it for a longer timeline window
    when that trade is worth it. *)
val enable : ?capacity:int -> unit -> unit

val disable : unit -> unit
val is_enabled : unit -> bool

(** Clear all rings and all totals (phases and spans), keeping the
    enabled state. *)
val reset : unit -> unit

(** [stop id (start ())] brackets a phase: records one [Complete] event
    and bumps the phase totals. [start] returns the current
    {!Clock.ticks} reading — or a negative sentinel when the recorder is
    off, making [stop] free. The pair costs ~40ns when recording and
    allocates nothing. *)
val start : unit -> int

val stop : int -> int -> unit

(** [stop_start id t0] closes phase [id] and opens the next phase on a
    single clock read, returning the new start. Sentinel-propagating:
    free when the recorder is off. *)
val stop_start : int -> int -> int

(** Record a closed span — the bridge [Span.with_] closes through. It
    marks [id] as a span name, adds [dur] to this domain's totals
    whether or not the recorder is on, and appends a [Complete] event
    when it is. [ts] and [dur] are in ticks — pass {!Clock.ticks}
    readings through unconverted. *)
val complete : int -> ts:int -> dur:int -> unit

(** Record an [Instant] event. *)
val mark : int -> unit

(** Record a [Counter] sample (a value-over-time track in the trace). *)
val sample : int -> int -> unit

(** Merge all rings, sorted by timestamp (ties: domain, then sequence).
    Non-destructive: draining twice yields the same events. *)
val drain : unit -> event list

(** Events overwritten by ring wraparound, summed over domains. *)
val dropped : unit -> int

(** Per-phase [(name, (count, total seconds))] merged across domains,
    sorted by name; exact regardless of wraparound. Span names are left
    out. *)
val totals : unit -> (string * (int * float)) list

(** The same for span names alone. *)
val span_totals : unit -> (string * (int * float)) list

(** Span totals per recording domain, in increasing domain id (0 is the
    main domain), names sorted; domains without spans are left out. *)
val span_domain_totals : unit -> (int * (string * (int * float)) list) list

(** Chrome [trace_event] object format: "X" slices per [Complete], "i"
    instants, "C" counter tracks; pid 1, one tid per domain, µs
    timestamps relative to the earliest event. *)
val to_chrome : event list -> Json.t

(** [drain] + {!to_chrome} + write, one JSON document per file. *)
val write_chrome : string -> unit

(** [capture_chrome path] — {!write_chrome}, then empty the rings: the
    slow-request hook of a serving loop. The drained window becomes one
    per-request trace file and the rings start empty for the next
    request; the totals are kept, and recording stays enabled. Call at
    a quiescent point (the request finished, no concurrent appenders). *)
val capture_chrome : string -> unit
