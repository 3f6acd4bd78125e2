(* The flight recorder: a per-domain ring buffer of phase and span
   events, cheap enough to leave on in the engine hot path.

   Each domain owns a fixed-capacity ring ({!Shard}): appending an event
   is a few plain array stores at [head land (cap-1)] plus a head bump —
   single-writer, lock-free, no allocation. When the ring is full the
   oldest events are overwritten (flight-recorder semantics: the last
   [capacity] events per domain survive, [dropped] counts the rest).
   Event names are interned once into small ids ([intern] at module
   initialisation of the instrumented code); the hot-path check when the
   recorder is off is a single atomic load, and [start] returns a
   negative sentinel so the matching [stop] is a no-op.

   Alongside the ring, every domain keeps per-name totals (count and
   summed duration per interned id). Totals see every Complete event,
   including the ones the ring overwrote, so the per-phase time
   breakdown in BENCH_engine.json is exact even for long runs. They are
   also the only place a span's time adds up: [Span.with_] closes
   through {!complete}, which bumps the totals even while the recorder
   is off (no ring is allocated then) and marks the id as a span, so
   readers keep span names apart from phase names.

   Draining merges all rings into one list sorted by timestamp and is
   non-destructive: drain twice, get the same events. Drain at a
   quiescent point (after joins); a drain racing a writer may see a
   half-written slot, like any cross-shard read. The one export is
   Chrome [trace_event] JSON (loadable in chrome://tracing and Perfetto;
   phase and span slices as "X" complete events, [mark]s as "i"
   instants, [sample]s as "C" counter tracks, one row per domain). *)

type kind = Complete | Instant | Counter

type event = {
  domain : int;
  seq : int;  (** per-domain append index (monotone, pre-wrap) *)
  name : string;
  kind : kind;
  ts : float;  (** Unix epoch seconds (converted from {!Clock} ticks) *)
  dur : float;  (** seconds for [Complete], sampled value for [Counter] *)
}

(* ---- name interning ------------------------------------------------ *)

let intern_lock = Mutex.create ()
let ids : (string, int) Hashtbl.t = Hashtbl.create 64
let names : string array ref = ref [||]

(* [!spans.(id)] once {!complete} recorded [id]; grown with [names] and
   written only under [intern_lock], so no mark is lost to a growth. *)
let spans : bool array ref = ref [||]
let n_names = ref 0

let locked m f =
  Mutex.lock m;
  Fun.protect ~finally:(fun () -> Mutex.unlock m) f

let intern name =
  locked intern_lock @@ fun () ->
  match Hashtbl.find_opt ids name with
  | Some id -> id
  | None ->
    let id = !n_names in
    if id >= Array.length !names then begin
      let cap = max 16 (2 * (id + 1)) in
      let a = Array.make cap "" and m = Array.make cap false in
      Array.blit !names 0 a 0 id;
      Array.blit !spans 0 m 0 id;
      names := a;
      spans := m
    end;
    !names.(id) <- name;
    Hashtbl.replace ids name id;
    incr n_names;
    id

let name_of id = !names.(id)

(* ---- per-domain rings ---------------------------------------------- *)

let enabled = Atomic.make false
let capacity = Atomic.make 8192 (* power of two *)

(* Timestamps and durations are {!Clock.ticks} ints end to end — in
   the API, the slots and the totals — so recording boxes nothing; the
   exports convert to seconds once. *)
type ring = {
  mutable cap : int;  (** power of two; 0 until first append *)
  mutable tags : int array;  (** interned id lsl 2 lor kind *)
  mutable tss : int array;
  mutable durs : int array;  (** ticks, or a [Counter]'s sampled value *)
  mutable head : int;  (** total events ever appended *)
  mutable tot_count : int array;  (** per-id Complete totals, spans too *)
  mutable tot_ticks : int array;  (** per-id summed durations *)
}

let rings : ring Shard.t =
  Shard.create (fun () ->
      {
        cap = 0;
        tags = [||];
        tss = [||];
        durs = [||];
        head = 0;
        tot_count = [||];
        tot_ticks = [||];
      })

let tag_of id kind =
  (id lsl 2)
  lor (match kind with Complete -> 0 | Instant -> 1 | Counter -> 2)

let alloc r cap =
  r.cap <- cap;
  r.tags <- Array.make cap (-1);
  r.tss <- Array.make cap 0;
  r.durs <- Array.make cap 0;
  r.head <- 0

(* [i] is masked by [cap - 1] (a power of two, the arrays' length) and
   totals indices are bounds-checked by the grow branch, so the stores
   below use the unsafe accessors — this path runs a million times a
   second under the engine. *)
let push r id kind ts dur =
  let cap = Atomic.get capacity in
  if r.cap <> cap then alloc r cap;
  let i = r.head land (r.cap - 1) in
  Array.unsafe_set r.tags i (tag_of id kind);
  Array.unsafe_set r.tss i ts;
  Array.unsafe_set r.durs i dur;
  r.head <- r.head + 1

let grow_totals r id =
  let n = Array.length r.tot_count in
  let cap = max 16 (max (2 * n) (id + 1)) in
  let c = Array.make cap 0 and s = Array.make cap 0 in
  Array.blit r.tot_count 0 c 0 n;
  Array.blit r.tot_ticks 0 s 0 n;
  r.tot_count <- c;
  r.tot_ticks <- s

(* ---- recording API ------------------------------------------------- *)

let is_enabled () = Atomic.get enabled

let reset () =
  Shard.iter rings (fun _ r ->
      r.head <- 0;
      Array.fill r.tot_count 0 (Array.length r.tot_count) 0;
      Array.fill r.tot_ticks 0 (Array.length r.tot_ticks) 0)

let round_pow2 n =
  let c = ref 1 in
  while !c < n do
    c := !c * 2
  done;
  !c

(* Enable/disable/reset mutate every domain's ring: call them at
   quiescent points (before/after parallel sections), never while a
   worker is appending. *)
let enable ?capacity:(cap = 8192) () =
  Atomic.set capacity (round_pow2 (max 2 cap));
  Shard.iter rings (fun _ r -> if r.cap <> 0 then alloc r (Atomic.get capacity));
  reset ();
  Atomic.set enabled true

let disable () = Atomic.set enabled false

let start () = if Atomic.get enabled then Clock.ticks () else -1

let[@inline] bump_total r id dur =
  if id >= Array.length r.tot_count then grow_totals r id;
  Array.unsafe_set r.tot_count id (Array.unsafe_get r.tot_count id + 1);
  Array.unsafe_set r.tot_ticks id (Array.unsafe_get r.tot_ticks id + dur)

(* [push] + [bump_total] fused for Complete events (tag [id lsl 2]):
   one call from the stop sites, [r]'s fields loaded once, the two cold
   growth branches out of line. This body runs for every recorded phase
   on the engine hot path. *)
let record_complete r id ts dur =
  let cap = Atomic.get capacity in
  if r.cap <> cap then alloc r cap;
  let i = r.head land (r.cap - 1) in
  Array.unsafe_set r.tags i (id lsl 2);
  Array.unsafe_set r.tss i ts;
  Array.unsafe_set r.durs i dur;
  r.head <- r.head + 1;
  bump_total r id dur

let stop id t0 =
  if t0 >= 0 then record_complete (Shard.my rings) id t0 (Clock.ticks () - t0)

(* Close one phase and open the next on a single clock read — for
   back-to-back phases (store probe, then bucket scan) where a stop
   followed by a start would read the clock twice at the seam. *)
let stop_start id t0 =
  if t0 < 0 then -1
  else begin
    let t1 = Clock.ticks () in
    record_complete (Shard.my rings) id t0 (t1 - t0);
    t1
  end

(* A closed span — the bridge for [Span.with_], which already holds
   both endpoints when it closes. [ts] and [dur] are in {!Clock} ticks,
   like every slot in the ring. The totals count it whether or not the
   recorder is on; the ring only sees it when it is. *)
let complete id ~ts ~dur =
  if not !spans.(id) then locked intern_lock (fun () -> !spans.(id) <- true);
  let r = Shard.my rings in
  if Atomic.get enabled then record_complete r id ts dur
  else bump_total r id dur

let mark id =
  if Atomic.get enabled then
    push (Shard.my rings) id Instant (Clock.ticks ()) 0

let sample id v =
  if Atomic.get enabled then
    push (Shard.my rings) id Counter (Clock.ticks ()) v

(* ---- draining ------------------------------------------------------ *)

let dropped () =
  Shard.fold rings
    (fun acc _ r -> if r.head > r.cap then acc + (r.head - r.cap) else acc)
    0

let drain () =
  let evs =
    Shard.fold rings
      (fun acc did r ->
        let n = min r.head r.cap in
        let lo = r.head - n in
        let rec take seq acc =
          if seq < lo then acc
          else begin
            let i = seq land (r.cap - 1) in
            let tag = r.tags.(i) in
            if tag < 0 then take (seq - 1) acc
            else
              let kind =
                match tag land 3 with
                | 0 -> Complete
                | 1 -> Instant
                | _ -> Counter
              in
              let e =
                {
                  domain = did;
                  seq;
                  name = name_of (tag lsr 2);
                  kind;
                  ts = Clock.to_epoch (float_of_int r.tss.(i));
                  (* Counter slots carry the sampled value, not a time. *)
                  dur =
                    (match kind with
                     | Complete -> Clock.to_s (float_of_int r.durs.(i))
                     | Instant | Counter -> float_of_int r.durs.(i));
                }
              in
              take (seq - 1) (e :: acc)
          end
        in
        take (r.head - 1) acc)
      []
  in
  List.stable_sort
    (fun a b ->
      match Float.compare a.ts b.ts with
      | 0 -> (
          match compare a.domain b.domain with
          | 0 -> compare a.seq b.seq
          | c -> c)
      | c -> c)
    evs

let by_name l = List.sort (fun (a, _) (b, _) -> String.compare a b) l

(* Each domain's (count, total seconds) per span name ([span]) or per
   phase name, sorted by name, in increasing domain order; domains
   without any are left out. Exact even when the ring overwrote events. *)
let per_domain ~span =
  let p = Clock.to_s 1.0 in
  Shard.fold rings
    (fun acc did r ->
      let l = ref [] in
      Array.iteri
        (fun id n ->
          if n > 0 && !spans.(id) = span then
            l := (name_of id, (n, float_of_int r.tot_ticks.(id) *. p)) :: !l)
        r.tot_count;
      if !l = [] then acc else (did, by_name !l) :: acc)
    []
  |> List.rev

let merged ~span =
  let tbl : (string, int * float) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun (_, l) ->
      List.iter
        (fun (name, (n, s)) ->
          let c, t = Option.value (Hashtbl.find_opt tbl name) ~default:(0, 0.0) in
          Hashtbl.replace tbl name (c + n, t +. s))
        l)
    (per_domain ~span);
  by_name (Hashtbl.fold (fun name cs acc -> (name, cs) :: acc) tbl [])

let totals () = merged ~span:false
let span_totals () = merged ~span:true
let span_domain_totals () = per_domain ~span:true

(* ---- exports ------------------------------------------------------- *)

let us_rel t0 t = Json.Float ((t -. t0) *. 1e6)

(* Chrome trace_event JSON object format: one process, one tid per
   domain, timestamps in microseconds relative to the earliest event. *)
let to_chrome evs =
  let t0 = match evs with [] -> 0.0 | e :: _ -> e.ts in
  let thread_names =
    List.sort_uniq compare (List.map (fun e -> e.domain) evs)
    |> List.map (fun did ->
           Json.Obj
             [
               ("name", Json.Str "thread_name");
               ("ph", Json.Str "M");
               ("pid", Json.Int 1);
               ("tid", Json.Int did);
               ( "args",
                 Json.Obj [ ("name", Json.Str ("domain-" ^ string_of_int did)) ]
               );
             ])
  in
  let ev e =
    let common =
      [
        ("name", Json.Str e.name);
        ("cat", Json.Str "phase");
        ("pid", Json.Int 1);
        ("tid", Json.Int e.domain);
        ("ts", us_rel t0 e.ts);
      ]
    in
    match e.kind with
    | Complete ->
      Json.Obj
        (common @ [ ("ph", Json.Str "X"); ("dur", Json.Float (e.dur *. 1e6)) ])
    | Instant -> Json.Obj (common @ [ ("ph", Json.Str "i"); ("s", Json.Str "t") ])
    | Counter ->
      Json.Obj
        (common
        @ [
            ("ph", Json.Str "C");
            ("args", Json.Obj [ ("value", Json.Float e.dur) ]);
          ])
  in
  Json.Obj
    [
      ("traceEvents", Json.Arr (thread_names @ List.map ev evs));
      ("displayTimeUnit", Json.Str "ms");
    ]

let write_chrome path = Json.to_file path (to_chrome (drain ()))

(* Per-request capture for a serving loop: persist the timeline recorded
   so far, then clear the rings so the next request starts from an empty
   window. The totals keep counting across captures, so a scrape's
   spans and phases cover the whole process, as its metrics do.
   Recording stays enabled throughout. *)
let capture_chrome path =
  write_chrome path;
  Shard.iter rings (fun _ r -> r.head <- 0)
