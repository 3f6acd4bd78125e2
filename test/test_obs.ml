(* Tests for the telemetry layer: log-scale histogram bucketing and
   quantiles, span nesting and unwind-on-exception on the flight
   timeline, and JSON round-tripping of a full run report. *)

module Json = Obs.Json
module Metrics = Obs.Metrics
module Span = Obs.Span
module Flight = Obs.Flight
module Clock = Obs.Clock

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)
let check_float = Alcotest.(check (float 1e-9))

(* ------------------------------------------------------------------ *)
(* JSON                                                                *)
(* ------------------------------------------------------------------ *)

let test_json_escaping () =
  let j =
    Json.Obj
      [
        ("plain", Json.Str "hello");
        ("quoted", Json.Str "say \"hi\"");
        ("control", Json.Str "a\nb\tc\\d");
      ]
  in
  let s = Json.to_string j in
  (* The emitted text must parse back to the same tree. *)
  Alcotest.(check bool) "round-trips" true (Json.parse s = j);
  check "raw quote is escaped" false
    (Astring.String.is_infix ~affix:"say \"hi" s);
  check "newline is escaped" false (String.contains s '\n')

let test_json_values () =
  let cases =
    [
      Json.Null;
      Json.Bool true;
      Json.Bool false;
      Json.Int 42;
      Json.Int (-17);
      Json.Float 0.125;
      Json.Float 1.6466010092540363;
      Json.Str "";
      Json.Arr [ Json.Int 1; Json.Arr []; Json.Obj [] ];
      Json.Obj [ ("k", Json.Arr [ Json.Null ]) ];
    ]
  in
  List.iter
    (fun j -> check (Json.to_string j) true (Json.parse (Json.to_string j) = j))
    cases;
  (* Non-finite floats degrade to null rather than invalid JSON. *)
  check_str "nan is null" "null" (Json.to_string (Json.Float nan));
  check_str "inf is null" "null" (Json.to_string (Json.Float infinity));
  (* Whitespace and nesting on the parser side. *)
  check "whitespace accepted" true
    (Json.parse " { \"a\" : [ 1 , 2.5 , \"x\" ] } "
     = Json.Obj [ ("a", Json.Arr [ Json.Int 1; Json.Float 2.5; Json.Str "x" ]) ]);
  check "trailing garbage rejected" true
    (match Json.parse "{} x" with
     | exception Json.Parse_error _ -> true
     | _ -> false)

(* ------------------------------------------------------------------ *)
(* JSON round-trip fuzz: parse (to_string v) = v over generated values
   with nasty strings (escapes, control bytes, UTF-8), integral floats
   (which print with a ".0" marker) and deep nesting. Non-finite floats
   are excluded: they deliberately degrade to [null].                  *)
(* ------------------------------------------------------------------ *)

let json_gen =
  QCheck.Gen.(
    let str_gen =
      let nasty =
        [
          ""; "\""; "\\"; "\\\\"; "a\nb"; "\t"; "\r\n"; "\x01\x02";
          "caf\xc3\xa9" (* café *); "\xe2\x82\xac" (* € *); "\xf0\x9f\x90\xab";
          "end\\"; "\"quoted\""; "nul\x00byte"; "/slash/";
        ]
      in
      oneof [ oneofl nasty; string_size (int_bound 12) ]
    in
    let float_gen =
      oneof
        [
          map float_of_int (int_range (-1000) 1000) (* integral *)
          ; float_bound_inclusive 1.0
          ; map (fun f -> f *. 1e18) (float_bound_inclusive 1.0);
        ]
    in
    let leaf =
      oneof
        [
          return Json.Null;
          map (fun b -> Json.Bool b) bool;
          map (fun i -> Json.Int i) int;
          map (fun f -> Json.Float f) float_gen;
          map (fun s -> Json.Str s) str_gen;
        ]
    in
    let rec value depth =
      if depth = 0 then leaf
      else
        frequency
          [
            (2, leaf);
            (2, map (fun l -> Json.Arr l) (list_size (int_bound 4) (value (depth - 1))));
            ( 2,
              map
                (fun l -> Json.Obj l)
                (list_size (int_bound 4) (pair str_gen (value (depth - 1)))) );
          ]
    in
    (* Depth up to 8: exercises deep nesting in both printer and parser. *)
    int_bound 8 >>= value)

let prop_json_roundtrip =
  QCheck.Test.make ~name:"parse (to_string v) = v" ~count:1000
    (QCheck.make json_gen ~print:Json.to_string)
    (fun v -> Json.parse (Json.to_string v) = v)

(* ------------------------------------------------------------------ *)
(* Untrusted parsing: quantd feeds raw socket frames through
   [parse_untrusted], which must be total — a structured [Error] for
   malformed, truncated, oversized or over-nested input, never an
   escaping exception or unbounded recursion.                          *)
(* ------------------------------------------------------------------ *)

let test_untrusted_limits () =
  let limits = { Json.max_bytes = 64; max_depth = 4 } in
  check "small valid input parses" true
    (Json.parse_untrusted ~limits "{\"a\":[1,2]}"
     = Ok (Json.Obj [ ("a", Json.Arr [ Json.Int 1; Json.Int 2 ]) ]));
  check "oversized payload rejected" true
    (match Json.parse_untrusted ~limits (String.make 66 ' ') with
     | Error _ -> true
     | Ok _ -> false);
  check "nesting within the limit accepted" true
    (match Json.parse_untrusted ~limits "[[[1]]]" with
     | Ok _ -> true
     | Error _ -> false);
  check "over-nested input rejected" true
    (match Json.parse_untrusted ~limits "[[[[[1]]]]]" with
     | Error _ -> true
     | Ok _ -> false);
  (* A deep bomb under the default limits must come back as an error,
     not blow the stack: 100k opening brackets, never closed. *)
  check "100k-deep array bomb is a structured error" true
    (match Json.parse_untrusted (String.make 100_000 '[') with
     | Error _ -> true
     | Ok _ -> false);
  (* Everything the printer emits round-trips under the default limits. *)
  let v = Json.Obj [ ("x", Json.Arr [ Json.Int 1; Json.Str "s" ]) ] in
  check "default limits round-trip" true
    (Json.parse_untrusted (Json.to_string v) = Ok v)

(* Mangled frames: take a valid document and truncate it, flip one byte,
   or replace it with raw garbage — the shapes a crashing client or a
   hostile peer actually sends. *)
let mangled_json_gen =
  QCheck.Gen.(
    json_gen >>= fun v ->
    let s = Json.to_string v in
    let len = String.length s in
    oneof
      [
        (int_bound (max 0 (len - 1)) >|= fun n -> String.sub s 0 n);
        ( pair (int_bound (max 0 (len - 1))) (int_range 0 255) >|= fun (i, b) ->
          if len = 0 then s
          else begin
            let bs = Bytes.of_string s in
            Bytes.set bs i (Char.chr b);
            Bytes.to_string bs
          end );
        string_size (int_bound 64);
      ])

let prop_untrusted_total =
  QCheck.Test.make ~name:"parse_untrusted is total on mangled frames"
    ~count:2000
    (QCheck.make mangled_json_gen ~print:(Printf.sprintf "%S"))
    (fun s -> match Json.parse_untrusted s with Ok _ | Error _ -> true)

let prop_untrusted_roundtrip =
  QCheck.Test.make ~name:"parse_untrusted (to_string v) = Ok v" ~count:500
    (QCheck.make json_gen ~print:Json.to_string)
    (fun v -> Json.parse_untrusted (Json.to_string v) = Ok v)

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)
(* ------------------------------------------------------------------ *)

let test_counter_gauge () =
  let reg = Metrics.Registry.create () in
  let c = Metrics.Counter.make ~registry:reg "c" in
  Metrics.Counter.incr c;
  Metrics.Counter.add c 4;
  check_int "counter accumulates" 5 (Metrics.Counter.value c);
  (* Same name, same handle. *)
  let c' = Metrics.Counter.make ~registry:reg "c" in
  Metrics.Counter.incr c';
  check_int "same name is same counter" 6 (Metrics.Counter.value c);
  let g = Metrics.Gauge.make ~registry:reg "g" in
  Metrics.Gauge.set_max g 3.0;
  Metrics.Gauge.set_max g 1.0;
  check_float "set_max keeps max" 3.0 (Metrics.Gauge.value g);
  Metrics.Registry.reset reg;
  check_int "reset zeroes counter" 0 (Metrics.Counter.value c);
  check_float "reset zeroes gauge" 0.0 (Metrics.Gauge.value g);
  (* A name registered as one kind cannot be another. *)
  check "kind clash rejected" true
    (match Metrics.Gauge.make ~registry:reg "c" with
     | exception Invalid_argument _ -> true
     | _ -> false)

let test_histogram_buckets () =
  (* Bucket i holds [2^(i-20), 2^(i-19)): 1.0 starts the bucket whose
     upper edge is 2.0. *)
  check_int "1.0" 20 (Metrics.Histogram.bucket_of 1.0);
  check_int "1.999 same bucket" 20 (Metrics.Histogram.bucket_of 1.999);
  check_int "2.0 next bucket" 21 (Metrics.Histogram.bucket_of 2.0);
  check_int "0.5 previous bucket" 19 (Metrics.Histogram.bucket_of 0.5);
  check_int "zero clamps to first" 0 (Metrics.Histogram.bucket_of 0.0);
  check_int "negative clamps to first" 0 (Metrics.Histogram.bucket_of (-3.0));
  check_int "tiny clamps to first" 0 (Metrics.Histogram.bucket_of 1e-12);
  check_int "huge clamps to last" 40 (Metrics.Histogram.bucket_of 1e12);
  check_float "upper edge of bucket 20" 2.0 (Metrics.Histogram.bucket_upper 20);
  check_float "upper edge of bucket 19" 1.0 (Metrics.Histogram.bucket_upper 19);
  (* Every positive finite value lands in the bucket below its upper
     edge. *)
  List.iter
    (fun v ->
      let i = Metrics.Histogram.bucket_of v in
      check (Printf.sprintf "%g below upper edge" v) true
        (v < Metrics.Histogram.bucket_upper i || i = 40);
      check (Printf.sprintf "%g at/above lower edge" v) true
        (i = 0 || v >= Metrics.Histogram.bucket_upper (i - 1)))
    [ 1e-6; 0.01; 0.5; 1.0; 3.0; 64.0; 1e5 ]

let test_histogram_quantiles () =
  let reg = Metrics.Registry.create () in
  let h = Metrics.Histogram.make ~registry:reg "h" in
  check "empty quantile is nan" true (Float.is_nan (Metrics.Histogram.quantile h 0.5));
  List.iter (Metrics.Histogram.observe h) [ 1.0; 1.0; 1.0; 2.0; 4.0; 8.0 ];
  check_int "count" 6 (Metrics.Histogram.count h);
  check_float "sum" 17.0 (Metrics.Histogram.sum h);
  check_float "mean" (17.0 /. 6.0) (Metrics.Histogram.mean h);
  (* Median: three of six samples sit in the [1,2) bucket, so the
     estimate is that bucket's upper edge. *)
  check_float "p50 is first bucket's edge" 2.0 (Metrics.Histogram.quantile h 0.5);
  (* The maximum clamps to the observed max, not the bucket edge. *)
  check_float "p100 clamps to max" 8.0 (Metrics.Histogram.quantile h 1.0);
  (* A tiny quantile still answers from the first non-empty bucket,
     clamped to the observed min from below. *)
  check "p1 within observed range" true (Metrics.Histogram.quantile h 0.01 >= 1.0)

let test_snapshot_touched_only () =
  let reg = Metrics.Registry.create () in
  let c = Metrics.Counter.make ~registry:reg "used" in
  let (_ : Metrics.Counter.t) = Metrics.Counter.make ~registry:reg "untouched" in
  Metrics.Counter.incr c;
  let snap = Metrics.snapshot ~registry:reg () in
  check "touched metric present" true (Json.member "used" snap <> None);
  check "untouched metric absent" true (Json.member "untouched" snap = None)

(* ------------------------------------------------------------------ *)
(* Spans on the timeline                                               *)
(* ------------------------------------------------------------------ *)

(* The recorded slices named [name]. *)
let slices name =
  List.filter
    (fun (e : Flight.event) -> e.kind = Flight.Complete && e.name = name)
    (Flight.drain ())

let one_slice name =
  match slices name with
  | [ e ] -> e
  | l -> Alcotest.failf "%d %S slices, expected 1" (List.length l) name

(* Drained timestamps are epoch floats, about 0.24 µs apart at today's
   epoch, so two spans opened within that window tie and drain order
   says nothing about nesting: compare intervals, with 1 µs of slack. *)
let slack = 1e-6

let within (outer : Flight.event) (inner : Flight.event) =
  inner.ts >= outer.ts -. slack
  && inner.ts +. inner.dur <= outer.ts +. outer.dur +. slack

let test_span_nesting_on_timeline () =
  Flight.enable ();
  Fun.protect ~finally:Flight.disable @@ fun () ->
  Span.with_ ~name:"outer" (fun () ->
      Span.with_ ~name:"inner1" (fun () -> ());
      Span.with_ ~name:"inner2" (fun () -> ()));
  let outer = one_slice "outer"
  and inner1 = one_slice "inner1"
  and inner2 = one_slice "inner2" in
  check "inner1 within outer" true (within outer inner1);
  check "inner2 within outer" true (within outer inner2);
  check "inner1 ends before inner2 starts" true
    (inner1.ts +. inner1.dur <= inner2.ts +. slack);
  (* The span totals saw all three names, once each. *)
  let timings = Flight.span_totals () in
  Alcotest.(check (list string))
    "aggregate names" [ "inner1"; "inner2"; "outer" ]
    (List.map fst timings);
  List.iter (fun (name, (count, _)) -> check_int name 1 count) timings

let test_span_unwind_on_exception () =
  Flight.enable ();
  Fun.protect ~finally:Flight.disable @@ fun () ->
  check "exception propagates" true
    (match
       Span.with_ ~name:"outer" (fun () ->
           Span.with_ ~name:"boom" (fun () -> failwith "boom"))
     with
    | exception Failure msg -> msg = "boom"
    | () -> false);
  (* Both spans closed their slices, the inner within the outer, and a
     failed span still feeds the totals. *)
  check "boom within outer" true (within (one_slice "outer") (one_slice "boom"));
  List.iter
    (fun name ->
      check_int (name ^ " counted") 1
        (fst (List.assoc name (Flight.span_totals ()))))
    [ "outer"; "boom" ];
  (* And the next span is recorded. *)
  Span.with_ ~name:"after" (fun () -> ());
  check_int "recovered" 1 (List.length (slices "after"))

(* ------------------------------------------------------------------ *)
(* Domain-safety: concurrent updates must lose nothing                  *)
(* ------------------------------------------------------------------ *)

let test_concurrent_counters () =
  let reg = Metrics.Registry.create () in
  let c = Metrics.Counter.make ~registry:reg "par.c" in
  let g = Metrics.Gauge.make ~registry:reg "par.g" in
  let h = Metrics.Histogram.make ~registry:reg "par.h" in
  let per_domain = 25_000 in
  let body () =
    for i = 1 to per_domain do
      Metrics.Counter.incr c;
      Metrics.Gauge.set_max g (float_of_int i);
      Metrics.Histogram.observe h 1.0
    done
  in
  let domains = Array.init 4 (fun _ -> Domain.spawn body) in
  Array.iter Domain.join domains;
  (* Every increment from every domain must be visible: counters and
     histogram scalars are atomics, not plain refs. *)
  check_int "no lost counter increments" (4 * per_domain)
    (Metrics.Counter.value c);
  check "gauge max survived the race" true
    (Metrics.Gauge.value g = float_of_int per_domain);
  check_int "no lost observations" (4 * per_domain) (Metrics.Histogram.count h);
  check "sum exact" true
    (Metrics.Histogram.sum h = float_of_int (4 * per_domain))

let test_reset_racing_snapshot () =
  (* Reset and snapshot race from two domains while two more keep
     writing: nothing crashes and every snapshot parses into the
     registered shapes (registry mutations are mutex-guarded). *)
  let reg = Metrics.Registry.create () in
  let c = Metrics.Counter.make ~registry:reg "race.c" in
  let stop = Atomic.make false in
  let writer =
    Domain.spawn (fun () ->
        while not (Atomic.get stop) do
          Metrics.Counter.incr c
        done)
  in
  let resetter =
    Domain.spawn (fun () ->
        for _ = 1 to 500 do
          Metrics.Registry.reset reg;
          Domain.cpu_relax ()
        done)
  in
  let ok = ref true in
  for _ = 1 to 500 do
    match Metrics.snapshot ~registry:reg () with
    | Json.Obj fields ->
      List.iter
        (fun (_, v) ->
          match Json.member "type" v with
          | Some (Json.Str _) -> ()
          | _ -> ok := false)
        fields
    | _ -> ok := false
  done;
  Domain.join resetter;
  Atomic.set stop true;
  Domain.join writer;
  check "snapshots stayed well-formed under reset race" true !ok;
  (* After the dust settles the counter still works. *)
  Metrics.Registry.reset reg;
  Metrics.Counter.incr c;
  check_int "counter usable after race" 1 (Metrics.Counter.value c)

let test_span_domain_breakdown () =
  Obs.reset ();
  Span.with_ ~name:"main.work" (fun () -> ());
  let d =
    Domain.spawn (fun () -> Span.with_ ~name:"worker.work" (fun () -> ()))
  in
  Domain.join d;
  let by_domain = Flight.span_domain_totals () in
  let names_of id =
    List.map fst (Option.value ~default:[] (List.assoc_opt id by_domain))
  in
  check "main domain recorded" true
    (List.mem "main.work" (names_of (Domain.self () :> int)));
  check "worker span attributed to another domain" true
    (List.exists
       (fun (d, l) ->
         d <> (Domain.self () :> int) && List.mem_assoc "worker.work" l)
       by_domain);
  (* The global view still sees both. *)
  Alcotest.(check (list string))
    "global aggregate merges domains"
    [ "main.work"; "worker.work" ]
    (List.map fst (Flight.span_totals ()));
  Obs.reset ()

(* ------------------------------------------------------------------ *)
(* Flight recorder                                                     *)
(* ------------------------------------------------------------------ *)

let test_clock_sanity () =
  let a = Clock.now () in
  let b = Clock.now () in
  check "tick source is monotone" true (b >= a);
  check "positive deltas convert to positive seconds" true
    (Clock.to_s (b -. a) >= 0.0 && Clock.to_s 1_000_000.0 > 0.0);
  (* The epoch anchor must place "now" at... now. A wide tolerance keeps
     this robust on loaded CI boxes; a broken calibration is off by
     orders of magnitude, not milliseconds. *)
  check "to_epoch lands near wall-clock time" true
    (Float.abs (Clock.to_epoch (Clock.now ()) -. Unix.gettimeofday ()) < 5.0)

let test_flight_wraparound () =
  Flight.enable ~capacity:8 ();
  let id = Flight.intern "t.wrap" in
  for i = 0 to 11 do
    Flight.complete id ~ts:(i * 1_000_000) ~dur:1
  done;
  let evs = Flight.drain () in
  check_int "ring keeps exactly [capacity] events" 8 (List.length evs);
  check_int "overwritten events are counted" 4 (Flight.dropped ());
  (* Overwrite-oldest: the survivors are the *newest* 8 appends, in
     order. *)
  Alcotest.(check (list int))
    "newest events survive, oldest dropped"
    [ 4; 5; 6; 7; 8; 9; 10; 11 ]
    (List.map (fun e -> e.Flight.seq) evs);
  (* Totals live outside the ring: every append is accounted even
     though a third of the timeline was overwritten. [complete] is the
     span bridge, so the events count as a span. *)
  (match List.assoc_opt "t.wrap" (Flight.span_totals ()) with
   | Some (n, total) ->
     check_int "totals count is exact despite wraparound" 12 n;
     check "totals sum is exact despite wraparound" true
       (Float.abs (total -. Clock.to_s 12.0) <= 1e-12 *. Float.abs total)
   | None -> Alcotest.fail "phase missing from totals");
  Flight.disable ()

let test_flight_concurrent_append () =
  Flight.enable ~capacity:4096 ();
  let per_domain = 1000 in
  (* Intern up front: appenders must never hit the intern table. *)
  let ids = Array.init 4 (fun k -> Flight.intern (Printf.sprintf "t.d%d" k)) in
  let domains =
    Array.init 4 (fun k ->
        Domain.spawn (fun () ->
            for _ = 1 to per_domain do
              let t0 = Flight.start () in
              Flight.stop ids.(k) t0
            done))
  in
  Array.iter Domain.join domains;
  let evs = Flight.drain () in
  check_int "every append from every domain is present"
    (4 * per_domain) (List.length evs);
  check_int "nothing overwritten below capacity" 0 (Flight.dropped ());
  (* No torn events: each event's name, kind and domain row must be
     internally consistent, and per-domain sequences must be a clean
     0..n-1 run (a torn tag or racing head would break one of these). *)
  let per_name = Hashtbl.create 8 in
  List.iter
    (fun e ->
      check "only Complete events were appended" true
        (e.Flight.kind = Flight.Complete);
      check "durations are non-negative seconds" true (e.Flight.dur >= 0.0);
      let seqs =
        Option.value ~default:[] (Hashtbl.find_opt per_name e.Flight.name)
      in
      Hashtbl.replace per_name e.Flight.name (e.Flight.seq :: seqs))
    evs;
  Array.iteri
    (fun k _ ->
      let name = Printf.sprintf "t.d%d" k in
      match Hashtbl.find_opt per_name name with
      | None -> Alcotest.fail (name ^ " lost all its events")
      | Some seqs ->
        check_int (name ^ " kept every event") per_domain (List.length seqs);
        Alcotest.(check (list int))
          (name ^ " sequence numbers form a gap-free run")
          (List.init per_domain (fun i -> i))
          (List.sort compare seqs))
    ids;
  Flight.disable ()

let test_flight_drain_idempotent () =
  Flight.enable ~capacity:64 ();
  let id = Flight.intern "t.twice" in
  for i = 0 to 9 do
    Flight.complete id ~ts:(i * 1000) ~dur:2
  done;
  Flight.mark (Flight.intern "t.mark");
  let first = Flight.drain () in
  let second = Flight.drain () in
  check "drain is non-destructive" true (first = second);
  check "totals unchanged by draining" true
    (Flight.span_totals () = Flight.span_totals ());
  Flight.disable ()

let test_flight_stop_start_chain () =
  Flight.enable ();
  let a = Flight.intern "t.chain.a" and b = Flight.intern "t.chain.b" in
  let t0 = Flight.start () in
  let t1 = Flight.stop_start a t0 in
  check "chained start does not go backwards" true (t1 >= t0);
  Flight.stop b t1;
  let totals = Flight.totals () in
  (match (List.assoc_opt "t.chain.a" totals, List.assoc_opt "t.chain.b" totals)
   with
   | Some (na, _), Some (nb, _) ->
     check_int "first phase recorded once" 1 na;
     check_int "second phase recorded once" 1 nb
   | _ -> Alcotest.fail "chained phases missing from totals");
  Flight.disable ();
  Flight.reset ();
  (* Off: the sentinel propagates through the whole chain and nothing
     is recorded. *)
  let t0 = Flight.start () in
  check "start returns the off sentinel" true (t0 < 0);
  let t1 = Flight.stop_start a t0 in
  check "stop_start propagates the sentinel" true (t1 < 0);
  Flight.stop b t1;
  check "no events recorded while off" true (Flight.drain () = [])

(* The recorder stays on the engine hot path: a recorded phase must not
   allocate. A boxed tick anywhere on the start/stop path costs words
   per phase, several phases per visited state. *)
let test_flight_recording_allocates_nothing () =
  let net = Ta.Fischer.make ~n:4 () in
  let q = Ta.Fischer.mutex net in
  let minor_words () =
    let before = Gc.minor_words () in
    let r = Ta.Checker.check net q in
    (Gc.minor_words () -. before, r.Ta.Checker.stats.Ta.Checker.visited)
  in
  (* Warm-up with the recorder on: rings, totals and intern tables are
     allocated once, outside the measured runs. *)
  Flight.enable ();
  ignore (minor_words ());
  Flight.disable ();
  let off, visited = minor_words () in
  Flight.enable ();
  let on, _ = minor_words () in
  Flight.disable ();
  Obs.reset ();
  check
    (Printf.sprintf "recorder on costs <= 2 words/state (%.1f)"
       ((on -. off) /. float_of_int visited))
    true
    (on -. off <= 2.0 *. float_of_int visited)

let test_flight_chrome_json () =
  Flight.enable ~capacity:64 ();
  let ph = Flight.intern "t.export.phase" in
  let t0 = Flight.start () in
  Flight.stop ph t0;
  Flight.mark (Flight.intern "t.export.mark");
  Flight.sample (Flight.intern "t.export.gauge") 42;
  let evs = Flight.drain () in
  let chrome = Flight.to_chrome evs in
  let text = Json.to_string chrome in
  check "chrome trace round-trips through the parser" true
    (Json.parse text = chrome);
  (match Json.member "traceEvents" chrome with
   | Some (Json.Arr entries) ->
     let phs =
       List.filter_map
         (fun e ->
           match Json.member "ph" e with Some (Json.Str p) -> Some p | _ -> None)
         entries
     in
     check_int "one trace entry per event plus thread metadata"
       (List.length evs + 1) (List.length entries);
     List.iter
       (fun p ->
         check (Printf.sprintf "trace has a %S entry" p) true (List.mem p phs))
       [ "M"; "X"; "i"; "C" ];
     List.iter
       (fun e ->
         List.iter
           (fun f ->
             check (Printf.sprintf "every entry has %S" f) true
               (Json.member f e <> None))
           [ "name"; "ph"; "pid"; "tid" ])
       entries
   | _ -> Alcotest.fail "traceEvents missing or not an array");
  Flight.disable ()

(* ------------------------------------------------------------------ *)
(* Sharded metrics                                                     *)
(* ------------------------------------------------------------------ *)

let test_snapshot_during_mutation () =
  (* One writer mutates while the main domain snapshots: every
     intermediate read must be a sane prefix of the writer's progress
     (counters only ever grow), and the post-join read is exact. *)
  let reg = Metrics.Registry.create () in
  let c = Metrics.Counter.make ~registry:reg "mut.c" in
  let n = 200_000 in
  let writer =
    Domain.spawn (fun () ->
        for _ = 1 to n do
          Metrics.Counter.incr c
        done)
  in
  let prev = ref 0 in
  let ok = ref true in
  for _ = 1 to 200 do
    (match Json.member "mut.c" (Metrics.snapshot ~registry:reg ()) with
     | Some v ->
       (match Json.member "value" v with
        | Some (Json.Int x) ->
          if x < !prev || x > n then ok := false;
          prev := x
        | _ -> ok := false)
     | None -> () (* not touched yet: the writer hasn't started *));
    Domain.cpu_relax ()
  done;
  Domain.join writer;
  check "racing snapshots saw a monotone, bounded counter" true !ok;
  check_int "post-join read is exact" n (Metrics.Counter.value c)

let test_sharded_merge_deterministic () =
  (* The same workload through a jobs=1 and a jobs=4 pool must produce
     byte-identical snapshots once merged: reads fold shards in
     domain-id order and the workload's floats are integer-valued, so
     no summation-order noise can leak into the report. *)
  let snapshot_for jobs =
    let reg = Metrics.Registry.create () in
    let c = Metrics.Counter.make ~registry:reg "det.c" in
    let g = Metrics.Gauge.make ~registry:reg "det.g" in
    let h = Metrics.Histogram.make ~registry:reg "det.h" in
    Par.Pool.with_pool ~jobs (fun pool ->
        ignore
          (Par.map_range ~pool ~lo:0 ~hi:4096 (fun i ->
               Metrics.Counter.incr c;
               Metrics.Gauge.set_max g (float_of_int i);
               Metrics.Histogram.observe h (float_of_int ((i mod 7) + 1)))));
    (* Workers are joined by [with_pool]; merging here is exact. *)
    Metrics.merge ~registry:reg ();
    Json.to_string (Metrics.snapshot ~registry:reg ())
  in
  let s1 = snapshot_for 1 in
  let s4 = snapshot_for 4 in
  check_str "jobs=1 and jobs=4 reports are byte-identical" s1 s4;
  check "report is non-trivial" true
    (Astring.String.is_infix ~affix:"\"det.h\"" s1)

let test_histogram_shard_merge_buckets () =
  (* Each domain fills a different bucket; the merged view must place
     every observation in the right bucket with exact counts. *)
  let reg = Metrics.Registry.create () in
  let h = Metrics.Histogram.make ~registry:reg "shard.h" in
  let domains =
    Array.init 4 (fun k ->
        Domain.spawn (fun () ->
            for _ = 1 to 10 do
              Metrics.Histogram.observe h (2.0 ** float_of_int k)
            done))
  in
  Array.iter Domain.join domains;
  Metrics.merge ~registry:reg ();
  check_int "merged count" 40 (Metrics.Histogram.count h);
  check "merged sum" true (Metrics.Histogram.sum h = 10.0 *. 15.0);
  (match Json.member "shard.h" (Metrics.snapshot ~registry:reg ()) with
   | Some hist ->
     (match Json.member "buckets" hist with
      | Some (Json.Arr buckets) ->
        check_int "four distinct buckets" 4 (List.length buckets);
        List.iteri
          (fun k b ->
            let expect_le =
              Metrics.Histogram.bucket_upper
                (Metrics.Histogram.bucket_of (2.0 ** float_of_int k))
            in
            check "bucket edge matches bucket_of" true
              (Json.member "le" b = Some (Json.Float expect_le));
            check "bucket count is exact" true
              (Json.member "n" b = Some (Json.Int 10)))
          buckets
      | _ -> Alcotest.fail "buckets missing from histogram snapshot")
   | None -> Alcotest.fail "histogram missing from snapshot")

(* ------------------------------------------------------------------ *)
(* Run report                                                          *)
(* ------------------------------------------------------------------ *)

let test_report_roundtrip () =
  Obs.reset ();
  let c = Obs.counter "test.counter" in
  Obs.Metrics.Counter.add c 7;
  let h = Obs.histogram "test.hist" in
  Obs.Metrics.Histogram.observe h 0.5;
  Obs.Metrics.Histogram.observe h 3.0;
  Span.with_ ~name:"test.span" (fun () -> ());
  let report = Obs.Report.make () in
  (* Serialise, parse back, and compare trees: the builder and parser
     must agree on every construct a real report uses. *)
  let text = Json.to_string report in
  let back = Json.parse text in
  check "report round-trips" true (back = report);
  (* Structure: the three sections are present and populated. *)
  let metrics = Option.get (Json.member "metrics" back) in
  check "counter in report" true
    (Json.member "test.counter" metrics
    = Some (Json.Obj [ ("type", Json.Str "counter"); ("value", Json.Int 7) ]));
  (match Json.member "test.hist" metrics with
   | Some hist ->
     check "histogram count" true (Json.member "count" hist = Some (Json.Int 2));
     check "histogram sum" true
       (match Json.member "sum" hist with
        | Some s -> Json.to_float_opt s = Some 3.5
        | None -> false)
   | None -> Alcotest.fail "histogram missing from report");
  (match Json.member "spans" back with
   | Some spans ->
     (match Json.member "test.span" spans with
      | Some span ->
        check "span count serialised" true
          (Json.member "count" span = Some (Json.Int 1));
        check "span total present" true (Json.member "total_s" span <> None)
      | None -> Alcotest.fail "span missing from report")
   | None -> Alcotest.fail "spans section missing");
  (match Json.member "gc" back with
   | Some gc ->
     check "gc stats populated" true
       (match Json.member "minor_words" gc with
        | Some w -> (match Json.to_float_opt w with Some f -> f > 0.0 | None -> false)
        | None -> false);
     check "heap words present" true (Json.member "heap_words" gc <> None)
   | None -> Alcotest.fail "gc section missing");
  Obs.reset ()

(* ------------------------------------------------------------------ *)
(* One timing source: spans and phases in the flight totals            *)
(* ------------------------------------------------------------------ *)

let member_path j path =
  List.fold_left (fun j k -> Option.bind j (Json.member k)) (Some j) path

let count_at j path =
  match member_path j (path @ [ "count" ]) with
  | Some (Json.Int n) -> n
  | _ -> 0

let test_timing_recorder_off () =
  Obs.reset ();
  Flight.disable ();
  Span.with_ ~name:"t.off.span" (fun () -> ());
  let report = Obs.Report.make () in
  check_int "span counted once under spans" 1
    (count_at report [ "spans"; "t.off.span" ]);
  check_int "and under its domain" 1
    (count_at report
       [ "span_domains"; string_of_int (Domain.self () :> int); "t.off.span" ]);
  check "no ring event while off" true (Flight.drain () = []);
  check "no phases key" true (Json.member "phases" report = None)

let test_timing_recorder_on () =
  Obs.reset ();
  Flight.enable ();
  let ph = Flight.intern "t.on.phase" in
  Span.with_ ~name:"t.on.span" (fun () -> Flight.stop ph (Flight.start ()));
  Flight.disable ();
  let report = Obs.Report.make () in
  check_int "span under spans" 1 (count_at report [ "spans"; "t.on.span" ]);
  check_int "span not under phases" 0 (count_at report [ "phases"; "t.on.span" ]);
  check_int "phase under phases" 1 (count_at report [ "phases"; "t.on.phase" ]);
  check_int "phase not under spans" 0 (count_at report [ "spans"; "t.on.phase" ]);
  check "chrome export has both slices" true
    (match Json.member "traceEvents" (Flight.to_chrome (Flight.drain ())) with
     | Some (Json.Arr evs) ->
       List.for_all
         (fun name ->
           List.exists
             (fun e ->
               Json.member "name" e = Some (Json.Str name)
               && Json.member "ph" e = Some (Json.Str "X"))
             evs)
         [ "t.on.span"; "t.on.phase" ]
     | _ -> false);
  Obs.reset ()

let test_capture_keeps_totals () =
  Obs.reset ();
  Flight.enable ();
  let ph = Flight.intern "t.cap.phase" in
  Span.with_ ~name:"t.cap.span" (fun () -> Flight.stop ph (Flight.start ()));
  let before = (Flight.totals (), Flight.span_totals ()) in
  let path = Filename.temp_file "capture" ".json" in
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () ->
      Flight.capture_chrome path;
      check "totals unchanged by a capture" true
        (before = (Flight.totals (), Flight.span_totals ()));
      check "both totals non-empty" true
        (fst before <> [] && snd before <> []);
      check "rings emptied" true (Flight.drain () = []);
      let ic = open_in path in
      let text = really_input_string ic (in_channel_length ic) in
      close_in ic;
      check "capture file holds the span" true
        (Astring.String.is_infix ~affix:"\"t.cap.span\"" text));
  Flight.disable ();
  Obs.reset ()

let () =
  Alcotest.run "obs"
    [
      ( "json",
        [
          Alcotest.test_case "escaping" `Quick test_json_escaping;
          Alcotest.test_case "value round-trips" `Quick test_json_values;
          QCheck_alcotest.to_alcotest prop_json_roundtrip;
          Alcotest.test_case "untrusted limits" `Quick test_untrusted_limits;
          QCheck_alcotest.to_alcotest prop_untrusted_total;
          QCheck_alcotest.to_alcotest prop_untrusted_roundtrip;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "counter+gauge" `Quick test_counter_gauge;
          Alcotest.test_case "histogram buckets" `Quick test_histogram_buckets;
          Alcotest.test_case "histogram quantiles" `Quick test_histogram_quantiles;
          Alcotest.test_case "snapshot touched-only" `Quick test_snapshot_touched_only;
        ] );
      ( "spans",
        [
          Alcotest.test_case "nesting on the timeline" `Quick
            test_span_nesting_on_timeline;
          Alcotest.test_case "unwind on exception" `Quick
            test_span_unwind_on_exception;
        ] );
      ( "domains",
        [
          Alcotest.test_case "no lost updates from 4 domains" `Quick
            test_concurrent_counters;
          Alcotest.test_case "reset racing snapshot" `Quick
            test_reset_racing_snapshot;
          Alcotest.test_case "per-domain span breakdown" `Quick
            test_span_domain_breakdown;
        ] );
      ( "timing",
        [
          Alcotest.test_case "recorder off: span in report, no phases" `Quick
            test_timing_recorder_off;
          Alcotest.test_case "recorder on: spans and phases apart" `Quick
            test_timing_recorder_on;
          Alcotest.test_case "capture keeps the totals" `Quick
            test_capture_keeps_totals;
        ] );
      ( "flight",
        [
          Alcotest.test_case "clock sanity" `Quick test_clock_sanity;
          Alcotest.test_case "wraparound keeps newest, counts dropped" `Quick
            test_flight_wraparound;
          Alcotest.test_case "4-domain append, no torn events" `Quick
            test_flight_concurrent_append;
          Alcotest.test_case "drain is idempotent" `Quick
            test_flight_drain_idempotent;
          Alcotest.test_case "stop_start chains phases" `Quick
            test_flight_stop_start_chain;
          Alcotest.test_case "chrome export validity" `Quick
            test_flight_chrome_json;
          Alcotest.test_case "recording allocates nothing" `Quick
            test_flight_recording_allocates_nothing;
        ] );
      ( "sharded",
        [
          Alcotest.test_case "snapshot during mutation" `Quick
            test_snapshot_during_mutation;
          Alcotest.test_case "jobs=1 vs jobs=4 byte-identical" `Quick
            test_sharded_merge_deterministic;
          Alcotest.test_case "histogram shard-merge buckets" `Quick
            test_histogram_shard_merge_buckets;
        ] );
      ( "report",
        [ Alcotest.test_case "JSON round-trip" `Quick test_report_roundtrip ] );
    ]
