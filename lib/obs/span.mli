(** Span-based tracing: nestable named timers, domain-safe.

    [with_ ~name f] runs [f] and adds its duration to the closing
    domain's {!Flight} totals through {!Flight.complete} — whether or
    not the recorder is on; with it on, the span is also a [Complete]
    slice on the timeline, inside the slices of the spans enclosing it.
    {!Flight.span_totals} and {!Flight.span_domain_totals} read the
    counts and times back, and {!Report} serialises them. The span is
    closed whether [f] returns or raises; a raising body's exception
    propagates with its backtrace, and the span is still counted. *)

val with_ : name:string -> (unit -> 'a) -> 'a
