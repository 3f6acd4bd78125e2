(* Nestable timed spans, domain-safe. A closed span's count and duration
   go into the closing domain's {!Flight} totals (recorder on or off),
   and its start and end events into the installed sink. Sink emission
   serialises on one mutex; nesting depth is domain-local state, so each
   worker traces its own stack. *)

let lock = Mutex.create ()
let depth_key : int ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref 0)
let depth () = !(Domain.DLS.get depth_key)

(* Sinks are single-consumer (a file, a memory buffer): serialise
   emission so concurrent domains interleave whole events, never
   bytes. *)
let emit ev =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) (fun () -> Sink.emit ev)

let with_ ~name f =
  let tracing = not (Sink.is_null !Sink.current) in
  let depth_cell = Domain.DLS.get depth_key in
  let d = !depth_cell in
  (* Timing runs on the tick-based {!Clock} (NTP-jump-proof, and the
     same unit the flight ring stores); sink events keep their epoch
     timestamps via [Clock.to_epoch]. *)
  let t0 = Clock.ticks () in
  if tracing then
    emit
      (Sink.Span_start
         { name; depth = d; t = Clock.to_epoch (float_of_int t0) });
  incr depth_cell;
  let finish ok =
    let t1 = Clock.ticks () in
    depth_cell := d;
    (* Interning here is a per-close hashtable hit, fine for
       coarse-grained spans. *)
    Flight.complete (Flight.intern name) ~ts:t0 ~dur:(t1 - t0);
    (* Re-read the sink: the body may have installed one. *)
    if not (Sink.is_null !Sink.current) then
      let dur_s = Clock.to_s (float_of_int (t1 - t0)) in
      emit
        (Sink.Span_end
           { name; depth = d; t = Clock.to_epoch (float_of_int t1); dur_s; ok })
  in
  match f () with
  | v ->
    finish true;
    v
  | exception e ->
    finish false;
    raise e
