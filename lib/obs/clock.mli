(** The observability clock: raw cycle-counter reads (~8ns), converted
    to seconds only when something is reported.

    [Unix.gettimeofday] and even the vDSO [CLOCK_MONOTONIC] read cost
    ~40-50ns a call on this toolchain — too dear for the flight
    recorder, which reads the clock twice per recorded phase on the
    engine hot path. {!now} instead returns the CPU cycle counter
    (rdtsc / cntvct_el0; [CLOCK_MONOTONIC] nanoseconds on architectures
    without one) through an [@@noalloc] external with an unboxed float
    result. Readings are in ticks of an a-priori-unknown frequency:
    meaningless absolutely, exact relatively. {!to_s} and {!to_epoch}
    calibrate the tick period against [CLOCK_MONOTONIC] on first use. *)

(** Current time in clock ticks. Monotone, tick unit unspecified —
    subtract two readings and {!to_s} the difference. Declared as the
    external itself, so no caller boxes the reading. *)
external now : unit -> (float[@unboxed])
  = "obs_clock_ticks_byte" "obs_clock_ticks" [@@noalloc]

(** {!now} as an int: the unit the flight recorder stores and sums,
    read without allocating. *)
val ticks : unit -> int

(** Seconds per tick times [d]: convert a tick delta to seconds. The
    first call calibrates the tick period (spinning until at least 1ms
    has elapsed since module load, if called that early); later calls
    reuse the memoized period. *)
val to_s : float -> float

(** [to_epoch t] places a {!now} reading on the Unix epoch, via a
    wall-clock anchor taken at module initialisation. Good to well
    under a millisecond — plenty for trace export, not for NTP-grade
    timestamping. *)
val to_epoch : float -> float
