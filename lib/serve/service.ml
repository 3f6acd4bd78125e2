module Json = Obs.Json
module P = Protocol

let ( let* ) = Result.bind

let m_requests = Obs.counter "serve.requests"
let m_errors = Obs.counter "serve.errors"
let m_deadline = Obs.counter "serve.deadline_expired"
let m_smc_batches = Obs.counter "serve.smc_batches"
let m_smc_fused = Obs.counter "serve.smc_fused_requests"
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
    else begin
      let fingerprint =
        Printf.sprintf "check model=%s n=%d stats_json=%b jobs=%d" model n
          stats_json jobs
      in
      match Registry.cached_reply t.registry ~fingerprint with
      | Some r -> Ok r
      | None ->
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
        let result =
          Json.Obj
            [
              ("text", Json.Str text);
              ("all_hold", Json.Bool all_hold);
              ("queries", Json.Arr (List.map (fun (_, j, _) -> j) results));
            ]
        in
        Registry.store_reply t.registry ~fingerprint result;
        Ok result
    end

(* ------------------------------------------------------------------ *)
(* smc — batchable                                                      *)
(* ------------------------------------------------------------------ *)

(* A prepared smc request: its sample items (to be fused with other
   concurrent smc requests into one [Smc.Batch] range) and the pure
   reduction from the per-item hitting-time arrays to the reply. *)
type smc_plan = {
  plan_fingerprint : string;
  items : Smc.Batch.item list;
  finish : float option array list -> Json.t;
}

let plan_smc (req : P.request) ~registry =
  let params = req.P.params in
  let* model = bad (P.param_string params ~key:"model" ~default:"train-gate") in
  let* trains = bad (P.param_int params ~key:"trains" ~default:3) in
  let* runs = bad (P.param_int params ~key:"runs" ~default:500) in
  let* seed = bad (P.param_int params ~key:"seed" ~default:42) in
  if trains < 1 || trains > 16 then Error (P.Bad_request, "trains must be in 1..16")
  else if runs < 1 || runs > 1_000_000 then
    Error (P.Bad_request, "runs must be in 1..1000000")
  else begin
    let fingerprint =
      Printf.sprintf "smc model=%s trains=%d runs=%d seed=%d" model trains runs
        seed
    in
    match model with
    | "train-gate" ->
      let spec = Models.train_gate in
      let net = Registry.model registry spec ~n:trains in
      let config =
        { Smc.Stochastic.rates = (fun auto _ -> 1.0 +. float_of_int auto) }
      in
      let grid = List.init 8 (fun k -> 10.0 +. (12.0 *. float_of_int k)) in
      let items =
        List.init trains (fun i ->
            Smc.Batch.item ~config ~seed:(seed + i) ~runs net
              {
                Smc.horizon = 100.0;
                goal = Ta.Train_gate.cross_formula net i;
              })
      in
      let finish times_list =
        let lines =
          List.mapi
            (fun i times ->
              Render.smc_train_line i (Smc.cdf_of_times ~runs ~grid times))
            times_list
        in
        Json.Obj [ ("text", Json.Str (String.concat "" lines)) ]
      in
      Ok { plan_fingerprint = fingerprint; items; finish }
    | "fischer" ->
      let spec = Models.fischer in
      let net = Registry.model registry spec ~n:trains in
      let items =
        List.init trains (fun i ->
            Smc.Batch.item ~seed:(seed + i) ~runs net
              {
                Smc.horizon = 30.0;
                goal = Ta.Prop.Loc (i, Ta.Model.loc_index net i "cs");
              })
      in
      let finish times_list =
        let intervals =
          List.map (Smc.interval_of_times ~runs ~horizon:30.0) times_list
        in
        let lines = List.mapi Render.smc_fischer_line intervals in
        Json.Obj
          [
            ("text", Json.Str (String.concat "" lines));
            ( "intervals",
              Json.Arr
                (List.map
                   (fun (itv : Smc.Estimate.interval) ->
                     Json.Obj
                       [
                         ("p", Json.Float itv.Smc.Estimate.p_hat);
                         ("low", Json.Float itv.Smc.Estimate.low);
                         ("high", Json.Float itv.Smc.Estimate.high);
                       ])
                   intervals) );
          ]
      in
      Ok { plan_fingerprint = fingerprint; items; finish }
    | other ->
      Error
        ( P.Bad_request,
          Printf.sprintf "unknown model %s (train-gate|fischer)" other )
  end

(* ------------------------------------------------------------------ *)
(* modes / fuzz / metrics / ping                                        *)
(* ------------------------------------------------------------------ *)

let handle_modes t (req : P.request) =
  let params = req.P.params in
  let* runs = bad (P.param_int params ~key:"runs" ~default:2000) in
  let* seed = bad (P.param_int params ~key:"seed" ~default:42) in
  if runs < 1 || runs > 1_000_000 then
    Error (P.Bad_request, "runs must be in 1..1000000")
  else begin
    let fingerprint = Printf.sprintf "modes runs=%d seed=%d" runs seed in
    match Registry.cached_reply t.registry ~fingerprint with
    | Some r -> Ok r
    | None ->
      let row = Modest.Brp.run_modes ~pool:t.pool ~runs ~seed (Modest.Brp.make ()) in
      let result = Json.Obj [ ("text", Json.Str (Render.modes_line row)) ] in
      Registry.store_reply t.registry ~fingerprint result;
      Ok result
  end

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
    match Registry.cached_reply t.registry ~fingerprint with
    | Some r -> Ok r
    | None ->
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
      let result =
        Json.Obj
          [
            ("text", Json.Str (Gen.Harness.render report));
            ( "divergences",
              Json.Int (List.length report.Gen.Harness.r_divergences) );
            ("agreed", Json.Int report.Gen.Harness.r_agreed);
            ("skipped", Json.Int (List.length report.Gen.Harness.r_skipped));
          ]
      in
      Registry.store_reply t.registry ~fingerprint result;
      Ok result
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

(* A line after the prepare pass: either its reply is settled, or it is
   an smc request whose sampling still has to run (fused with the other
   pending smc requests of the same read round). *)
type sampling = {
  req : P.request;
  plan : smc_plan;
  deadline : float option;
  t0 : float;
}

type pending = Settled of string | Sampling of sampling

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

let prepare t ~now line =
  Obs.Metrics.Counter.incr m_requests;
  match P.parse_request line with
  | Error (id, code, msg) ->
    Obs.Metrics.Counter.incr m_errors;
    Settled (P.error_line ~id code msg)
  | Ok req ->
    if t.shutting_down () then
      Settled (P.error_line ~id:req.P.id P.Shutting_down "server is draining")
    else begin
      let t0 = Unix.gettimeofday () in
      match req.P.meth with
      | "ping" -> Settled (reply_of t req (guarded t req (fun () -> handle_ping t)) ~t0)
      | "metrics" ->
        Settled (reply_of t req (guarded t req (fun () -> handle_metrics t ~now)) ~t0)
      | "check" ->
        Settled (reply_of t req (guarded t req (fun () -> handle_check t req ~now)) ~t0)
      | "modes" ->
        Settled (reply_of t req (guarded t req (fun () -> handle_modes t req)) ~t0)
      | "fuzz" ->
        Settled (reply_of t req (guarded t req (fun () -> handle_fuzz t req)) ~t0)
      | "smc" -> begin
        match guarded t req (fun () -> plan_smc req ~registry:t.registry) with
        | Error _ as e -> Settled (reply_of t req e ~t0)
        | Ok plan -> begin
          match Registry.cached_reply t.registry ~fingerprint:plan.plan_fingerprint with
          | Some r -> Settled (reply_of t req (Ok r) ~t0)
          | None ->
            Sampling { req; plan; deadline = deadline_at ~now req; t0 }
        end
      end
      | other ->
        Settled
          (reply_of t req
             (Error
                ( P.Unknown_method,
                  Printf.sprintf
                    "unknown method %s (ping|metrics|check|smc|modes|fuzz)"
                    other ))
             ~t0)
    end

(* Run one smc plan on its own (the re-run path after a fused batch was
   cancelled, and the singleton fast path). *)
let run_plan_alone t { req; plan; deadline; t0 } =
  let result =
    guarded t req (fun () ->
        let cancel = Par.Cancel.create ?deadline_at:deadline () in
        let times = Smc.Batch.hitting_times ~pool:t.pool ~cancel plan.items in
        let result = plan.finish times in
        Registry.store_reply t.registry ~fingerprint:plan.plan_fingerprint
          result;
        Ok result)
  in
  reply_of t req result ~t0

let handle_batch t lines =
  let now = Unix.gettimeofday () in
  let pendings = List.map (prepare t ~now) lines in
  let sampling =
    List.filter_map (function Sampling s -> Some s | Settled _ -> None) pendings
  in
  match sampling with
  | [] ->
    List.map
      (function Settled l -> l | Sampling _ -> assert false)
      pendings
  | [ _one ] ->
    List.map
      (function Settled l -> l | Sampling s -> run_plan_alone t s)
      pendings
  | several ->
    (* Fuse all concurrent smc requests of this round into one sample
       range under the earliest member deadline; on expiry fall back to
       per-request runs so one tight deadline cannot starve the rest. *)
    Obs.Metrics.Counter.incr m_smc_batches;
    Obs.Metrics.Counter.add m_smc_fused (List.length several);
    let min_deadline =
      List.fold_left
        (fun acc s ->
          match (acc, s.deadline) with
          | None, d | d, None -> d
          | Some a, Some b -> Some (Float.min a b))
        None several
    in
    let fused =
      match
        Obs.Span.with_ ~name:"serve.smc_fused" (fun () ->
            let cancel = Par.Cancel.create ?deadline_at:min_deadline () in
            Smc.Batch.hitting_times ~pool:t.pool ~cancel
              (List.concat_map (fun s -> s.plan.items) several))
      with
      | times -> Some times
      | exception Par.Cancelled -> None
    in
    let replies =
      match fused with
      | Some all_times ->
        (* Split the concatenated per-item arrays back per request. *)
        let rec take n l =
          if n = 0 then ([], l)
          else
            match l with
            | [] -> assert false
            | x :: tl ->
              let xs, l' = take (n - 1) tl in
              (x :: xs, l')
        in
        let rest = ref all_times in
        List.map
          (fun s ->
            let mine, rest' = take (List.length s.plan.items) !rest in
            rest := rest';
            let result =
              guarded t s.req (fun () ->
                  let result = s.plan.finish mine in
                  Registry.store_reply t.registry
                    ~fingerprint:s.plan.plan_fingerprint result;
                  Ok result)
            in
            reply_of t s.req result ~t0:s.t0)
          several
      | None ->
        (* The fused batch hit the earliest deadline (or shutdown): each
           request gets an individual run under its own token, so only
           the genuinely expired ones fail. *)
        List.map (run_plan_alone t) several
    in
    (* [several] filtered [pendings] in order, so hand the computed
       replies back out positionally. *)
    let rest = ref replies in
    List.map
      (function
        | Settled l -> l
        | Sampling _ -> (
          match !rest with
          | x :: tl ->
            rest := tl;
            x
          | [] -> assert false))
      pendings

let handle_line t line =
  match handle_batch t [ line ] with [ r ] -> r | _ -> assert false
