(* The run report: one JSON snapshot combining the metrics registry,
   the flight recorder's span and phase totals (the one place named
   regions are timed) and GC statistics — everything a bench or CI run
   needs to make two revisions comparable. *)

(* [Gc.quick_stat] reads the mutator's counters without touching the
   heap: allocation totals (minor/major/promoted words) and collection
   counts are exact, while [live_words]/[heap_words] are carried over
   from the last major collection — an approximation that can lag the
   truth by one major cycle. The ["stat"] field names the snapshot
   kind. *)
let gc_json () =
  let s = Gc.quick_stat () in
  Json.Obj
    [
      ("stat", Json.Str "quick");
      ("minor_words", Json.Float s.Gc.minor_words);
      ("major_words", Json.Float s.Gc.major_words);
      ("promoted_words", Json.Float s.Gc.promoted_words);
      ("minor_collections", Json.Int s.Gc.minor_collections);
      ("major_collections", Json.Int s.Gc.major_collections);
      ("compactions", Json.Int s.Gc.compactions);
      ("heap_words", Json.Int s.Gc.heap_words);
      ("top_heap_words", Json.Int s.Gc.top_heap_words);
      ("live_words", Json.Int s.Gc.live_words);
    ]

let totals_json l =
  Json.Obj
    (List.map
       (fun (name, (count, total_s)) ->
         ( name,
           Json.Obj
             [ ("count", Json.Int count); ("total_s", Json.Float total_s) ] ))
       l)

let spans_json () = totals_json (Flight.span_totals ())

let span_domains_json () =
  Json.Obj
    (List.map
       (fun (did, l) -> (string_of_int did, totals_json l))
       (Flight.span_domain_totals ()))

let make ?registry () =
  (* Phase totals ride along only when the flight recorder produced
     any, so reports from uninstrumented runs keep their old shape. *)
  let phases =
    match Flight.totals () with [] -> [] | l -> [ ("phases", totals_json l) ]
  in
  Json.Obj
    ([
       ("version", Json.Int 1);
       ("metrics", Metrics.snapshot ?registry ());
       ("spans", spans_json ());
       ("span_domains", span_domains_json ());
       ("gc", gc_json ());
     ]
    @ phases)

let to_file path ?registry () = Json.to_file path (make ?registry ())
