(* Nestable timed spans, domain-safe. A closed span's count and duration
   go into the closing domain's {!Flight} totals (recorder on or off);
   with the recorder on it is also a slice on that domain's timeline. *)

let with_ ~name f =
  (* Timing runs on the tick-based {!Clock} (NTP-jump-proof, and the
     same unit the flight ring stores). *)
  let t0 = Clock.ticks () in
  Fun.protect
    ~finally:(fun () ->
      (* Interning here is a per-close hashtable hit, fine for
         coarse-grained spans. *)
      Flight.complete (Flight.intern name) ~ts:t0 ~dur:(Clock.ticks () - t0))
    f
