(* The hot-path timestamp is the raw CPU cycle counter: the flight
   recorder reads it twice per recorded phase inside the engine's inner
   loop, where even the vDSO CLOCK_MONOTONIC read (~40ns) is too dear.
   Readings stay in ticks until someone asks for seconds; the tick
   period is calibrated once, lazily, against CLOCK_MONOTONIC over the
   time elapsed since module load (floored at 1ms by spinning, so an
   immediate conversion still gets a usable baseline — error from the
   paired reads is then well under 0.1%).

   Caveats, accepted for a profiler: rdtsc is per-package (invariant and
   core-synchronised on anything modern, so cross-domain event order is
   sound); doubles carry cycle counts exactly up to 2^53 — beyond that
   (a month of uptime at 3GHz) tick deltas round to a few nanoseconds. *)

external now : unit -> (float[@unboxed])
  = "obs_clock_ticks_byte" "obs_clock_ticks" [@@noalloc]

external mono : unit -> (float[@unboxed])
  = "obs_clock_mono_byte" "obs_clock_mono" [@@noalloc]

let ticks () = Float.to_int (now ())
let t0_ticks = now ()
let t0_mono = mono ()
let t0_epoch = Unix.gettimeofday ()

(* Benign race: concurrent first calls compute near-identical periods
   and the last write wins. *)
let period_memo = ref 0.0

let period () =
  if !period_memo = 0.0 then begin
    let dm = ref (mono () -. t0_mono) in
    while !dm < 1e-3 do
      dm := mono () -. t0_mono
    done;
    let dt = now () -. t0_ticks in
    period_memo := (if dt > 0.0 then !dm /. dt else 1e-9)
  end;
  !period_memo

let to_s d = d *. period ()
let to_epoch t = t0_epoch +. ((t -. t0_ticks) *. period ())
