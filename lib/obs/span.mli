(** Span-based tracing: nestable named timers, domain-safe.

    [with_ ~name f] runs [f], emitting [Span_start]/[Span_end] events to
    the installed {!Sink} and adding the duration to the closing
    domain's {!Flight} totals through {!Flight.complete} — whether or
    not the recorder is on; with it on, the span is also a slice on the
    timeline. {!Flight.span_totals} and {!Flight.span_domain_totals}
    read the counts and times back, and {!Report} serialises them. The
    span is closed — and the nesting depth restored — whether [f]
    returns or raises; a raising body is reported with [ok = false] and
    still counted. Nesting depth is domain-local; sink emission
    serialises on an internal mutex. *)

val with_ : name:string -> (unit -> 'a) -> 'a

(** Current nesting depth in this domain (0 outside any span). *)
val depth : unit -> int
