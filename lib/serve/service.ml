module Json = Obs.Json
module P = Protocol

let ( let* ) = Result.bind

let m_requests = Obs.counter "serve.requests"
let m_errors = Obs.counter "serve.errors"
let m_deadline = Obs.counter "serve.deadline_expired"
let m_slow_captures = Obs.counter "serve.slow_captures"
let m_wall = Obs.histogram "serve.request_wall_s"

type t = {
  registry : Registry.t;
  pool : Par.Pool.t;
  slow_s : float option;
  slow_dir : string;
  mutable slow_seq : int;
  shutting_down : unit -> bool;
  started : float;
}

let create ~registry ~pool ?slow_ms ?(slow_trace_dir = ".")
    ?(shutting_down = fun () -> false) () =
  {
    registry;
    pool;
    slow_s = Option.map (fun ms -> ms /. 1000.) slow_ms;
    slow_dir = slow_trace_dir;
    slow_seq = 0;
    shutting_down;
    started = Unix.gettimeofday ();
  }

(* ------------------------------------------------------------------ *)
(* Request plumbing                                                     *)
(* ------------------------------------------------------------------ *)

let bad r = Result.map_error (fun msg -> (P.Bad_request, msg)) r

let deadline_at ~now (req : P.request) =
  Option.map (fun ms -> now +. (ms /. 1000.)) req.P.deadline_ms

(* The stop hook threaded into long explorations: fires on the request
   deadline and on daemon shutdown, polled once per visited state. *)
let stop_hook t ~deadline =
  fun () ->
    t.shutting_down ()
    || (match deadline with
        | Some d -> Unix.gettimeofday () > d
        | None -> false)

(* Map a truncated exploration to the wire error that caused it. The
   shutdown test comes first: when SIGTERM fired mid-query, the stop
   hook answered true for that reason regardless of any deadline. *)
let truncation_error t reason (stats : Ta.Checker.stats) =
  match reason with
  | `Max_states ->
    ( P.Resource_exhausted,
      Printf.sprintf "state limit exceeded after %d states"
        stats.Ta.Checker.visited )
  | `Mem_budget ->
    ( P.Resource_exhausted,
      Printf.sprintf
        "mem budget exhausted after %d states (%d words retained)"
        stats.Ta.Checker.visited stats.Ta.Checker.store_words )
  | `Stop ->
    if t.shutting_down () then (P.Shutting_down, "server is draining")
    else begin
      Obs.Metrics.Counter.incr m_deadline;
      ( P.Deadline_exceeded,
        Printf.sprintf "deadline expired after %d states"
          stats.Ta.Checker.visited )
    end

(* The reply cache in front of a handler: a repeat of [fingerprint] is
   answered from the registry; a miss runs [compute] and caches its
   reply. Errors are never cached. *)
let cached t ~fingerprint compute =
  match Registry.cached_reply t.registry ~fingerprint with
  | Some r -> Ok r
  | None ->
    let* result = compute () in
    Registry.store_reply t.registry ~fingerprint result;
    Ok result

(* ------------------------------------------------------------------ *)
(* check                                                                *)
(* ------------------------------------------------------------------ *)

let handle_check t (req : P.request) ~now =
  let params = req.P.params in
  let* model = bad (P.param_string params ~key:"model" ~default:"fischer") in
  match Models.find model with
  | None ->
    Error
      ( P.Bad_request,
        Printf.sprintf "unknown model %s (%s)" model Models.known )
  | Some spec ->
    let* n = bad (P.param_int params ~key:"n" ~default:spec.Models.default_n) in
    let* stats_json = bad (P.param_bool params ~key:"stats_json" ~default:false) in
    (* jobs = 0 (the default) keeps the sequential engine; jobs >= 1
       explores sharded on the daemon's own worker pool, whose size
       caps the realised parallelism — results are identical either
       way for a given jobs value, so jobs belongs in the cache
       fingerprint only because sequential and sharded witnesses may
       legitimately differ. *)
    let* jobs = bad (P.param_int params ~key:"jobs" ~default:0) in
    if n < 1 || n > 16 then Error (P.Bad_request, "n must be in 1..16")
    else if jobs < 0 || jobs > 64 then
      Error (P.Bad_request, "jobs must be in 0..64")
    else
      let fingerprint =
        Printf.sprintf "check model=%s n=%d stats_json=%b jobs=%d" model n
          stats_json jobs
      in
      cached t ~fingerprint @@ fun () ->
      let net = Registry.model t.registry spec ~n in
      let deadline = deadline_at ~now req in
      let stop = stop_hook t ~deadline in
      let mem_budget_words = Registry.mem_budget_words t.registry in
      let jobs, pool =
        if jobs >= 1 then (Some jobs, Some t.pool) else (None, None)
      in
      let run (name, q) =
        match Ta.Checker.check ~stop ?mem_budget_words ?jobs ?pool net q with
        | r ->
          Ok
            ( Render.query_line ~stats_json name r,
              Json.Obj
                [
                  ("name", Json.Str name);
                  ("holds", Json.Bool r.Ta.Checker.holds);
                  ("visited", Json.Int r.Ta.Checker.stats.Ta.Checker.visited);
                ],
              r.Ta.Checker.holds )
        | exception Ta.Checker.Truncated { reason; stats } ->
          Error (truncation_error t reason stats)
      in
      let rec run_all acc = function
        | [] -> Ok (List.rev acc)
        | q :: tl ->
          let* r = run q in
          run_all (r :: acc) tl
      in
      let* results = run_all [] (spec.Models.queries net) in
      let text = String.concat "" (List.map (fun (l, _, _) -> l) results) in
      let all_hold = List.for_all (fun (_, _, h) -> h) results in
      Ok
        (Json.Obj
           [
             ("text", Json.Str text);
             ("all_hold", Json.Bool all_hold);
             ("queries", Json.Arr (List.map (fun (_, j, _) -> j) results));
           ])

(* ------------------------------------------------------------------ *)
(* smc / modes / fuzz / metrics / ping                                  *)
(* ------------------------------------------------------------------ *)

(* One request's per-train items run as one sample range; the request's
   own deadline cancels it mid-batch ([Par.Cancelled], mapped by
   [guarded]). *)
let handle_smc t (req : P.request) ~now =
  let params = req.P.params in
  let* model = bad (P.param_string params ~key:"model" ~default:"train-gate") in
  let* trains = bad (P.param_int params ~key:"trains" ~default:3) in
  let* runs = bad (P.param_int params ~key:"runs" ~default:500) in
  let* seed = bad (P.param_int params ~key:"seed" ~default:42) in
  if trains < 1 || trains > 16 then Error (P.Bad_request, "trains must be in 1..16")
  else if runs < 1 || runs > 1_000_000 then
    Error (P.Bad_request, "runs must be in 1..1000000")
  else
    match Models.find model with
    | None ->
      Error
        ( P.Bad_request,
          Printf.sprintf "unknown model %s (train-gate|fischer)" model )
    | Some spec ->
      let fingerprint =
        Printf.sprintf "smc model=%s trains=%d runs=%d seed=%d" model trains
          runs seed
      in
      cached t ~fingerprint @@ fun () ->
      let net = Registry.model t.registry spec ~n:trains in
      let q = spec.Models.smc in
      let cancel = Par.Cancel.create ?deadline_at:(deadline_at ~now req) () in
      let times =
        Smc.Batch.hitting_times ~pool:t.pool ~cancel
          (q.Models.items ~n:trains ~runs ~seed net)
      in
      let text, fields = q.Models.reply ~runs times in
      Ok (Json.Obj (("text", Json.Str text) :: fields))

let handle_modes t (req : P.request) =
  let params = req.P.params in
  let* runs = bad (P.param_int params ~key:"runs" ~default:2000) in
  let* seed = bad (P.param_int params ~key:"seed" ~default:42) in
  if runs < 1 || runs > 1_000_000 then
    Error (P.Bad_request, "runs must be in 1..1000000")
  else
    let fingerprint = Printf.sprintf "modes runs=%d seed=%d" runs seed in
    cached t ~fingerprint @@ fun () ->
    let row = Modest.Brp.run_modes ~pool:t.pool ~runs ~seed (Modest.Brp.make ()) in
    Ok (Json.Obj [ ("text", Json.Str (Render.modes_line row)) ])

let handle_fuzz t (req : P.request) =
  let params = req.P.params in
  (* Fault injection flips process-global state in the zones library —
     exactly what a long-lived server shared by other requests must
     never do. *)
  let* () =
    bad
      (P.forbidden params ~key:"inject"
         ~why:"fault injection mutates process-global state")
  in
  let* seed = bad (P.param_int params ~key:"seed" ~default:42) in
  let* cases = bad (P.param_int params ~key:"cases" ~default:200) in
  let* no_shrink = bad (P.param_bool params ~key:"no_shrink" ~default:false) in
  let* family_names = bad (P.param_string_list params ~key:"families") in
  let* extrapolation_name =
    bad (P.param_string params ~key:"extrapolation" ~default:"lu")
  in
  if cases < 1 || cases > 100_000 then
    Error (P.Bad_request, "cases must be in 1..100000")
  else begin
    let* extrapolation =
      match extrapolation_name with
      | "none" -> Ok `None
      | "k" -> Ok `K
      | "lu" -> Ok `Lu
      | other ->
        Error
          ( P.Bad_request,
            Printf.sprintf "unknown extrapolation %s (none|k|lu)" other )
    in
    let rec resolve acc = function
      | [] -> Ok (List.rev acc)
      | name :: tl -> (
        match Gen.Oracle.family_of_name name with
        | Some f -> resolve (f :: acc) tl
        | None ->
          Error
            ( P.Bad_request,
              Printf.sprintf "unknown family %S (known: %s)" name
                (String.concat ", "
                   (List.map Gen.Oracle.family_name Gen.Oracle.all_families))
            ))
    in
    let* families = resolve [] family_names in
    let families =
      match families with [] -> Gen.Oracle.all_families | fs -> fs
    in
    let fingerprint =
      Printf.sprintf "fuzz seed=%d cases=%d shrink=%b fams=%s extra=%s" seed
        cases (not no_shrink)
        (String.concat "," (List.map Gen.Oracle.family_name families))
        extrapolation_name
    in
    cached t ~fingerprint @@ fun () ->
    let cfg =
      {
        Gen.Harness.default with
        seed;
        cases;
        jobs = 1;
        families;
        shrink = not no_shrink;
        extrapolation;
      }
    in
    let report = Gen.Harness.run cfg in
    Ok
      (Json.Obj
         [
           ("text", Json.Str (Gen.Harness.render report));
           ( "divergences",
             Json.Int (List.length report.Gen.Harness.r_divergences) );
           ("agreed", Json.Int report.Gen.Harness.r_agreed);
           ("skipped", Json.Int (List.length report.Gen.Harness.r_skipped));
         ])
  end

let handle_metrics t ~now =
  let report_fields =
    match Obs.Report.make () with Json.Obj fs -> fs | other -> [ ("report", other) ]
  in
  Ok
    (Json.Obj
       (report_fields
       @ [
           ("serve", Registry.stats_json t.registry);
           ("uptime_s", Json.Float (now -. t.started));
         ]))

let handle_ping _t =
  Ok (Json.Obj [ ("pong", Json.Bool true); ("pid", Json.Int (Unix.getpid ())) ])

(* ------------------------------------------------------------------ *)
(* Dispatch                                                             *)
(* ------------------------------------------------------------------ *)

let observe_wall t ~meth ~t0 =
  let wall = Unix.gettimeofday () -. t0 in
  Obs.Metrics.Histogram.observe m_wall wall;
  match t.slow_s with
  | Some slow when wall > slow && Obs.Flight.is_enabled () ->
    t.slow_seq <- t.slow_seq + 1;
    let path =
      Filename.concat t.slow_dir
        (Printf.sprintf "slow-%d-%s.json" t.slow_seq meth)
    in
    (try
       Obs.Flight.capture_chrome path;
       Obs.Metrics.Counter.incr m_slow_captures
     with Sys_error _ -> ())
  | _ -> ()

let reply_of t (req : P.request) result ~t0 =
  observe_wall t ~meth:req.P.meth ~t0;
  match result with
  | Ok json -> P.ok_line ~id:req.P.id json
  | Error (code, msg) ->
    Obs.Metrics.Counter.incr m_errors;
    P.error_line ~id:req.P.id code msg

(* Everything the handlers might throw becomes a structured [internal]
   error: a bad request — or a bug — costs one reply, not the daemon. *)
let guarded t (req : P.request) f =
  match Obs.Span.with_ ~name:("serve." ^ req.P.meth) f with
  | r -> r
  | exception Par.Cancelled ->
    if t.shutting_down () then Error (P.Shutting_down, "server is draining")
    else begin
      Obs.Metrics.Counter.incr m_deadline;
      Error (P.Deadline_exceeded, "deadline expired during sampling")
    end
  | exception e -> Error (P.Internal, Printexc.to_string e)

(* One line, one handler call. [now] is the start of the daemon's read
   round: deadlines and [uptime_s] count from it. *)
let dispatch t ~now line =
  Obs.Metrics.Counter.incr m_requests;
  match P.parse_request line with
  | Error (id, code, msg) ->
    Obs.Metrics.Counter.incr m_errors;
    P.error_line ~id code msg
  | Ok req when t.shutting_down () ->
    P.error_line ~id:req.P.id P.Shutting_down "server is draining"
  | Ok req ->
    let t0 = Unix.gettimeofday () in
    let run f = guarded t req f in
    let result =
      match req.P.meth with
      | "ping" -> run (fun () -> handle_ping t)
      | "metrics" -> run (fun () -> handle_metrics t ~now)
      | "check" -> run (fun () -> handle_check t req ~now)
      | "smc" -> run (fun () -> handle_smc t req ~now)
      | "modes" -> run (fun () -> handle_modes t req)
      | "fuzz" -> run (fun () -> handle_fuzz t req)
      | other ->
        Error
          ( P.Unknown_method,
            Printf.sprintf
              "unknown method %s (ping|metrics|check|smc|modes|fuzz)" other )
    in
    reply_of t req result ~t0

let handle_batch t lines =
  let now = Unix.gettimeofday () in
  List.map (dispatch t ~now) lines

let handle_line t line = dispatch t ~now:(Unix.gettimeofday ()) line
