(* quantcli — command-line front end to the quantlib tool families.

   Subcommands mirror the paper's tools:
     verify   UPPAAL-style model checking of the train-gate
     smc      UPPAAL-SMC statistical queries (Fig. 4 series)
     synth    UPPAAL-TIGA controller synthesis for the train game
     wcet     UPPAAL-CORA min/max cost reachability demo
     brp      the MODEST BRP with one of the three backends (Table I)
     modes    BRP discrete-event simulation, sharded across --jobs domains
     modest   parse a MODEST file, classify, report reachable states
     check    a named model's standard queries (fischer, train-gate)
     bip      DALA verification and fault injection
     mbt      ioco test generation / execution demo
     fuzz     differential fuzzing of the backends against each other
     client   the same queries, answered by a running quantd daemon
     obs      inspect run reports (--report) and flight traces (--flight) *)

open Quantlib
open Cmdliner

let trains_arg =
  Arg.(value & opt int 3 & info [ "trains" ] ~docv:"N" ~doc:"Number of trains.")

let stats_json_arg =
  Arg.(
    value & flag
    & info [ "stats-json" ]
        ~doc:"Print per-query engine statistics as one JSON object per line.")

(* Exit-code contract, shared with `quantcli client` and quantd:
     0  every query holds / no divergence
     1  a property is VIOLATED or the fuzzer found a divergence
     2  usage error or unreadable/invalid input
     3  internal error or resource exhaustion (--mem-budget)
   Cmdliner keeps its own 124/125 for command-line parse failures and
   uncaught exceptions it reports itself. *)

(* One line per query: verdict plus the engine run's counters. Returns
   [holds] so callers fold their exit code. The rendering lives in
   [Serve.Render] so the daemon path emits identical bytes. *)
let show_query ~stats_json name (r : Ta.Checker.result) =
  print_string (Serve.Render.query_line ~stats_json name r);
  r.Ta.Checker.holds

let seed_arg =
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"Random seed.")

let runs_arg default =
  Arg.(
    value & opt int default & info [ "runs" ] ~docv:"RUNS" ~doc:"Simulation runs.")

let jobs_arg =
  let env =
    Cmd.Env.info "QUANTLIB_JOBS" ~doc:"Default value for $(b,--jobs)."
  in
  Arg.(
    value & opt int 1
    & info [ "jobs" ] ~docv:"N" ~env
        ~doc:
          "Worker domains for Monte-Carlo run batches (1 = sequential). \
           Results are identical for every value of $(docv).")

(* ------------------------------------------------------------------ *)
(* Telemetry flags, shared by every subcommand: --report writes one
   JSON snapshot (metrics + span timings + GC) when the command
   finishes, even if the analysis raised; --flight turns the flight
   recorder on and writes the drained timeline (engine phases, and every
   span as a slice) as a Chrome trace_event file on exit (load it in
   chrome://tracing or https://ui.perfetto.dev). *)

let report_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "report" ] ~docv:"FILE"
        ~doc:
          "Write a JSON run report (metrics, span timings, GC statistics) \
           to $(docv) on exit.")

let flight_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "flight" ] ~docv:"FILE"
        ~doc:
          "Record engine phase events (dbm.seal, codec.encode, store.probe, \
           ...) and spans (engine.run, ...) in the in-memory flight recorder \
           and write them to $(docv) as Chrome trace_event JSON on exit — \
           loadable in chrome://tracing and Perfetto.")

let flight_events_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "flight-events" ] ~docv:"N"
        ~doc:
          "Flight-recorder timeline window: keep the last $(docv) events per \
           domain (rounded up to a power of two; default 8192). Phase totals \
           are exact regardless; a larger window only lengthens the exported \
           timeline, at some cache cost while recording.")

let obs_term =
  Term.(
    const (fun r fl fe -> (r, fl, fe)) $ report_arg $ flight_arg
    $ flight_events_arg)

(* Open (create or truncate) an artifact path before the command runs,
   so an unwritable one is a usage error up front, not an exception
   after the analysis. *)
let writable path =
  match close_out (open_out path) with
  | () -> true
  | exception Sys_error msg ->
    Printf.eprintf "quantcli: cannot write %s\n" msg;
    false

let with_obs (report, flight, flight_events) f =
  if not (List.for_all writable (List.filter_map Fun.id [ report; flight ]))
  then 2
  else begin
    if flight <> None then Obs.Flight.enable ?capacity:flight_events ();
    Fun.protect
      ~finally:(fun () ->
        Option.iter Obs.Flight.write_chrome flight;
        Obs.Flight.disable ();
        (* The report snapshots flight phase totals too, so it comes
           after the drain (drains are non-destructive; order is for
           clarity). *)
        Option.iter (fun file -> Obs.Report.to_file file ()) report)
      (fun () ->
        (* Commands return their exit code so the telemetry finalizers
           above still run on a violation (plain [exit] would skip
           them). *)
        try (f () : int)
        with e ->
          Printf.eprintf "quantcli: internal error: %s\n" (Printexc.to_string e);
          3)
  end

(* A size or run count below 1 is a usage error, caught before the
   command runs: one line on stderr, nothing on stdout, exit 2. [args]
   pairs each flag with its value; [k] runs the command. *)
let at_least_one args k =
  match List.find_opt (fun (_, v) -> v < 1) args with
  | Some (flag, _) ->
    Printf.eprintf "quantcli: %s must be >= 1\n" flag;
    2
  | None -> k ()

(* ------------------------------------------------------------------ *)

let verify obs trains stats_json =
  at_least_one [ ("--trains", trains) ] @@ fun () ->
  with_obs obs @@ fun () ->
  let net = Ta.Train_gate.make ~n_trains:trains in
  let show = show_query ~stats_json in
  let safe = show "safety" (Ta.Checker.check net (Ta.Train_gate.safety net)) in
  let dlf = show "no deadlock" (Ta.Checker.check net Ta.Train_gate.no_deadlock) in
  let live =
    if trains <= 3 then
      show "liveness (train 0)"
        (Ta.Checker.check net (Ta.Train_gate.liveness net 0))
    else true
  in
  if safe && dlf && live then 0 else 1

let verify_cmd =
  Cmd.v (Cmd.info "verify" ~doc:"Model check the train-gate (Fig. 1).")
    Term.(const verify $ obs_term $ trains_arg $ stats_json_arg)

(* ------------------------------------------------------------------ *)

let smc obs model trains runs seed jobs =
  at_least_one [ ("--trains", trains); ("--runs", runs); ("--jobs", jobs) ]
  @@ fun () ->
  with_obs obs @@ fun () ->
  match Serve.Models.find model with
  | None ->
    Printf.eprintf "unknown model %s (train-gate|fischer)\n" model;
    2
  | Some spec ->
    Par.Pool.with_pool ~jobs @@ fun pool ->
    let q = spec.Serve.Models.smc in
    let times =
      Smc.Batch.hitting_times ~pool
        (q.Serve.Models.items ~n:trains ~runs ~seed (spec.Serve.Models.make trains))
    in
    print_string (fst (q.Serve.Models.reply ~runs times));
    0

let smc_model_arg =
  Arg.(
    value
    & opt string "train-gate"
    & info [ "model" ] ~docv:"M"
        ~doc:
          "Model to analyse: $(b,train-gate) (CDF series, Fig. 4) or \
           $(b,fischer) (probability of each process entering its \
           critical section).")

let smc_cmd =
  Cmd.v (Cmd.info "smc" ~doc:"Statistical model checking CDF (Fig. 4).")
    Term.(
      const smc $ obs_term $ smc_model_arg $ trains_arg $ runs_arg 500
      $ seed_arg $ jobs_arg)

(* ------------------------------------------------------------------ *)

let synth obs trains =
  at_least_one [ ("--trains", trains) ] @@ fun () ->
  with_obs obs @@ fun () ->
  let net = Games.Train_game.make ~n_trains:trains () in
  let safe = Games.Train_game.safe net in
  let s = Games.solve net (Games.Safety safe) in
  Printf.printf "initial winning: %b, winning states: %d, closed-loop safe: %b\n"
    s.Games.initial_winning (Games.winning_count s)
    (Games.closed_loop_safe s ~safe);
  0

let synth_cmd =
  Cmd.v (Cmd.info "synth" ~doc:"Synthesize the train-game controller (Figs. 2-3).")
    Term.(const synth $ obs_term $ trains_arg)

(* ------------------------------------------------------------------ *)

let wcet obs () =
  with_obs obs @@ fun () ->
  let net = Ta.Train_gate.make ~n_trains:2 in
  let cross = Ta.Model.loc_index net 0 "Cross" in
  let target st = st.Discrete.Digital.dlocs.(0) = cross in
  match Priced.min_time_reach net ~target with
  | Some o ->
    Printf.printf "minimum time for train 0 to cross: %d\n" o.Priced.cost;
    0
  | None ->
    print_endline "unreachable";
    0

let wcet_cmd =
  Cmd.v (Cmd.info "wcet" ~doc:"Priced reachability demo (UPPAAL-CORA).")
    Term.(const wcet $ obs_term $ const ())

(* ------------------------------------------------------------------ *)

let brp obs backend =
  with_obs obs @@ fun () ->
  let t = Modest.Brp.make () in
  match backend with
  | "mctau" ->
    let r = Modest.Brp.run_mctau t in
    let ib = function
      | `Zero -> "0"
      | `Interval (a, b) -> Printf.sprintf "[%g,%g]" a b
    in
    Printf.printf "TA1 %b TA2 %b PA %s PB %s P1 %s P2 %s Dmax %s\n"
      r.Modest.Brp.mt_ta1 r.Modest.Brp.mt_ta2 (ib r.Modest.Brp.mt_pa)
      (ib r.Modest.Brp.mt_pb) (ib r.Modest.Brp.mt_p1) (ib r.Modest.Brp.mt_p2)
      (ib r.Modest.Brp.mt_dmax);
    0
  | "mcpta" ->
    let r = Modest.Brp.run_mcpta t in
    Printf.printf "TA1 %b TA2 %b PA %g PB %g P1 %.4e P2 %.4e Dmax %.4f Emax %.3f\n"
      r.Modest.Brp.mc_ta1 r.Modest.Brp.mc_ta2 r.Modest.Brp.mc_pa
      r.Modest.Brp.mc_pb r.Modest.Brp.mc_p1 r.Modest.Brp.mc_p2
      r.Modest.Brp.mc_dmax r.Modest.Brp.mc_emax;
    0
  | "modes" ->
    print_string (Serve.Render.modes_line (Modest.Brp.run_modes t));
    0
  | other ->
    Printf.eprintf "unknown backend %s (mctau|mcpta|modes)\n" other;
    2

(* Discrete-event simulation of the BRP STA on the modes backend, with
   the run batch sharded across --jobs domains. Same output line as
   `brp --backend modes`. *)
let modes obs runs seed jobs =
  at_least_one [ ("--runs", runs); ("--jobs", jobs) ] @@ fun () ->
  with_obs obs @@ fun () ->
  Par.Pool.with_pool ~jobs @@ fun pool ->
  let t = Modest.Brp.make () in
  print_string (Serve.Render.modes_line (Modest.Brp.run_modes ~pool ~runs ~seed t));
  0

let modes_cmd =
  Cmd.v
    (Cmd.info "modes" ~doc:"Simulate the BRP with the modes backend.")
    Term.(const modes $ obs_term $ runs_arg 2000 $ seed_arg $ jobs_arg)

let brp_cmd =
  let backend =
    Arg.(
      value
      & opt string "mcpta"
      & info [ "backend" ] ~docv:"B" ~doc:"Backend: mctau, mcpta or modes.")
  in
  Cmd.v (Cmd.info "brp" ~doc:"BRP analysis, one Table I column.")
    Term.(const brp $ obs_term $ backend)

(* ------------------------------------------------------------------ *)

let modest_check obs file xml dot =
  with_obs obs @@ fun () ->
  let src =
    let ic = open_in file in
    let n = in_channel_length ic in
    let s = really_input_string ic n in
    close_in ic;
    s
  in
  match Modest.Parser.parse_and_compile src with
  | sta ->
    (if xml then print_string (Modest.Uppaal_xml.of_sta sta)
     else if dot then print_string (Ta.Dot.of_network (Modest.Mctau.to_ta sta))
     else begin
       Printf.printf "parsed: %d processes, class %s\n"
         (Array.length sta.Modest.Sta.processes)
         (Modest.Sta.class_name (Modest.Sta.classify sta));
       match Modest.Sta.classify sta with
       | Modest.Sta.Class_sta -> print_endline "open clocks: only modes applies"
       | _ ->
         let exp = Modest.Digital_sta.expand sta in
         Printf.printf "digital state space: %d states\n"
           (Array.length exp.Modest.Digital_sta.states)
     end);
    0
  | exception Modest.Parser.Parse_error (msg, line) ->
    Printf.eprintf "parse error (line %d): %s\n" line msg;
    2
  | exception Modest.Lexer.Lex_error (msg, line) ->
    Printf.eprintf "lex error (line %d): %s\n" line msg;
    2
  | exception Modest.Ast.Compile_error msg ->
    Printf.eprintf "compile error: %s\n" msg;
    2

let modest_cmd =
  let file =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"MODEST source file.")
  in
  let xml =
    Arg.(value & flag & info [ "xml" ] ~doc:"Export to UPPAAL XML (the mctau path).")
  in
  let dot =
    Arg.(value & flag & info [ "dot" ] ~doc:"Export the TA overapproximation to Graphviz dot.")
  in
  Cmd.v (Cmd.info "modest" ~doc:"Parse, classify or export a MODEST model.")
    Term.(const modest_check $ obs_term $ file $ xml $ dot)

(* ------------------------------------------------------------------ *)

(* `check` is the profiling-oriented entry point: one named model, its
   standard queries, and the shared telemetry flags — the incantation
   `quantcli check --model fischer --flight t.json` is the documented
   way to get a phase trace out of the zone engine. *)
let check_impl obs model n stats_json mem_budget_mb jobs =
  at_least_one
    (("-n", n) :: Option.fold ~none:[] ~some:(fun j -> [ ("--jobs", j) ]) jobs)
  @@ fun () ->
  with_obs obs @@ fun () ->
  match Serve.Models.find model with
  | None ->
    Printf.eprintf "unknown model %s (%s)\n" model Serve.Models.known;
    2
  | Some spec ->
    let net = spec.Serve.Models.make n in
    let mem_budget_words =
      Option.map (fun mb -> mb * 1024 * 1024 / 8) mem_budget_mb
    in
    (* One pool shared by every query of the run; --jobs 1 still takes
       the sharded engine path (the determinism reference for any
       higher --jobs: identical bytes, different domain count). *)
    let run_queries pool =
      let truncated = ref false in
      let oks =
        List.fold_left
          (fun acc (name, q) ->
            let ok =
              match Ta.Checker.check ?mem_budget_words ?jobs ?pool net q with
              | r -> show_query ~stats_json name r
              | exception Ta.Checker.Truncated { reason; stats } ->
                truncated := true;
                print_string (Serve.Render.truncated_line name stats ~reason);
                true
            in
            ok :: acc)
          []
          (spec.Serve.Models.queries net)
      in
      if !truncated then 3 else if List.for_all Fun.id oks then 0 else 1
    in
    (match jobs with
     | Some j when j > 1 -> Par.Pool.with_pool ~jobs:j (fun p -> run_queries (Some p))
     | _ -> run_queries None)

let check_model_arg =
  Arg.(
    value
    & opt string "fischer"
    & info [ "model" ] ~docv:"M"
        ~doc:"Model to check: $(b,fischer) or $(b,train-gate).")

let check_n_arg =
  Arg.(
    value & opt int 4
    & info [ "n" ] ~docv:"N" ~doc:"Processes (fischer) or trains (train-gate).")

let check_cmd =
  let mem_budget =
    Arg.(
      value
      & opt (some int) None
      & info [ "mem-budget" ] ~docv:"MB"
          ~doc:
            "Stop exploring once the state store retains more than $(docv) \
             megabytes: the interrupted query prints a TRUNCATED verdict and \
             the command exits 3 instead of being OOM-killed.")
  in
  let jobs =
    Arg.(
      value
      & opt (some int) None
      & info [ "jobs" ] ~docv:"N"
          ~doc:
            "Explore with the sharded parallel engine over $(docv) worker \
             domains. Output is byte-identical for every $(docv) >= 1 \
             (omitting the flag keeps the sequential engine, whose witness \
             traces may differ).")
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Model check a named model's standard queries (the profiling entry \
          point: combine with --flight/--report).")
    Term.(
      const check_impl $ obs_term $ check_model_arg $ check_n_arg
      $ stats_json_arg $ mem_budget $ jobs)

(* ------------------------------------------------------------------ *)

let bip_cmd_impl obs seed =
  with_obs obs @@ fun () ->
  let d = Bip.Dala.make ~controlled:true () in
  let report = Bip.Dfinder.prove d.Bip.Dala.sys in
  Printf.printf "deadlock-freedom: %s\n"
    (match report.Bip.Dfinder.verdict with
     | Bip.Dfinder.Proved -> "proved compositionally"
     | Bip.Dfinder.Inconclusive _ -> "inconclusive");
  let r = Bip.Dala.inject_faults d ~runs:20 ~steps:200 ~seed in
  Printf.printf "fault injection: %d faults, %d violations (with R2C)\n"
    r.Bip.Dala.faults_injected r.Bip.Dala.violations;
  0

let bip_cmd =
  Cmd.v (Cmd.info "bip" ~doc:"DALA verification and fault injection.")
    Term.(const bip_cmd_impl $ obs_term $ seed_arg)

(* ------------------------------------------------------------------ *)

let mbt obs seed =
  with_obs obs @@ fun () ->
  let tests = Mbt.Testgen.generate_suite Mbt.Demo.bus_spec ~seed ~count:50 ~depth:10 in
  let battery name impl =
    let iut = Mbt.Testgen.lts_iut impl ~seed in
    let passes, fails = Mbt.Testgen.run_suite tests iut ~repetitions:20 in
    Printf.printf "%-16s pass %d fail %d\n" name passes fails
  in
  battery "reference" Mbt.Demo.bus_impl_good;
  battery "lossy" Mbt.Demo.bus_impl_lossy;
  battery "chatty" Mbt.Demo.bus_impl_chatty;
  0

let mbt_cmd =
  Cmd.v (Cmd.info "mbt" ~doc:"ioco test generation and execution demo.")
    Term.(const mbt $ obs_term $ seed_arg)

(* ------------------------------------------------------------------ *)

let fuzz obs seed cases jobs families no_shrink inject extrapolation out =
  with_obs obs @@ fun () ->
  let families =
    match families with
    | [] -> Gen.Oracle.all_families
    | names ->
      List.map
        (fun n ->
          match Gen.Oracle.family_of_name n with
          | Some f -> f
          | None ->
            Printf.eprintf "fuzz: unknown family %S (known: %s)\n" n
              (String.concat ", "
                 (List.map Gen.Oracle.family_name Gen.Oracle.all_families));
            exit 2)
        names
  in
  (match inject with
   | None -> ()
   | Some "dbm-up" -> Zones.Dbm.inject_fault (Some Zones.Dbm.Broken_up)
   | Some "dbm-intersect" -> Zones.Dbm.inject_fault (Some Zones.Dbm.Unclosed_intersect)
   | Some other ->
     Printf.eprintf "fuzz: unknown fault %S (known: dbm-up, dbm-intersect)\n" other;
     exit 2);
  let cfg =
    {
      Gen.Harness.default with
      seed;
      cases;
      jobs;
      families;
      shrink = not no_shrink;
      extrapolation;
    }
  in
  let report = Gen.Harness.run cfg in
  Zones.Dbm.inject_fault None;
  print_string (Gen.Harness.render report);
  Option.iter (fun file -> Obs.Json.to_file file (Gen.Harness.report_json report)) out;
  if report.Gen.Harness.r_divergences <> [] then 1 else 0

let cases_arg =
  Arg.(
    value & opt int 200
    & info [ "cases" ] ~docv:"N" ~doc:"Number of generated cases.")

let families_arg =
  Arg.(
    value
    & opt_all string []
    & info [ "family" ] ~docv:"NAME"
        ~doc:
          "Restrict to one oracle family (repeatable): ta-reach, priced, \
           mdp-vi, smc-ci, bip-deadlock. Default: all, round-robin.")

let no_shrink_arg =
  Arg.(
    value & flag
    & info [ "no-shrink" ] ~doc:"Report divergences without minimizing them.")

let extrapolation_arg =
  Arg.(
    value
    & opt (enum [ ("none", `None); ("k", `K); ("lu", `Lu) ]) `Lu
    & info [ "extrapolation" ] ~docv:"ABS"
        ~doc:
          "Zone-engine extrapolation the ta-reach oracle cross-checks \
           against the digital backend: none, k (classic Extra-M) or lu \
           (default; coarse lower/upper-bound abstraction).")

let fuzz_cmd =
  let inject_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "inject" ] ~docv:"FAULT"
          ~doc:
            "Inject a known fault before sweeping — the harness's own \
             mutation smoke test. dbm-up breaks the zone engine's delay \
             operation and must make a ta-reach sweep exit 1; dbm-intersect \
             leaves DBM intersections unclosed, which only the clock-atom \
             conjunctions of properties compute, so the DBM property tests \
             catch it rather than this sweep.")
  in
  let out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "out" ] ~docv:"FILE"
          ~doc:"Write the JSON report (including shrunk repros) to $(docv).")
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:
         "Differential fuzzing: random models cross-checked across backends. \
          Exits 1 when any divergence is found; every case is reproducible \
          from (seed, index).")
    Term.(
      const fuzz $ obs_term $ seed_arg $ cases_arg $ jobs_arg $ families_arg
      $ no_shrink_arg $ inject_arg $ extrapolation_arg $ out_arg)

(* ------------------------------------------------------------------ *)
(* `obs` — inspect the telemetry artifacts the other subcommands write:
   run reports (--report) and Chrome flight traces (--flight). The file
   kind is detected from the JSON shape (a trace has "traceEvents"). *)

let read_json_file file =
  let ic =
    try open_in file
    with Sys_error msg ->
      Printf.eprintf "%s\n" msg;
      exit 2
  in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  match Obs.Json.parse s with
  | j -> j
  | exception Obs.Json.Parse_error msg ->
    Printf.eprintf "%s: invalid JSON: %s\n" file msg;
    exit 2

let obj_fields = function Obs.Json.Obj fs -> fs | _ -> []

let fnum name j =
  match Option.bind (Obs.Json.member name j) Obs.Json.to_float_opt with
  | Some v -> v
  | None -> 0.0

let is_trace j = Obs.Json.member "traceEvents" j <> None

(* Aggregate a Chrome trace's complete ("X") slices: name -> (count,
   total seconds). Durations in the file are microseconds. *)
let trace_slices j =
  let evs =
    match Obs.Json.member "traceEvents" j with
    | Some (Obs.Json.Arr l) -> l
    | _ -> []
  in
  let tbl = Hashtbl.create 32 in
  List.iter
    (fun e ->
      match (Obs.Json.member "ph" e, Obs.Json.member "name" e) with
      | Some (Obs.Json.Str "X"), Some (Obs.Json.Str name) ->
        let c, t =
          match Hashtbl.find_opt tbl name with Some v -> v | None -> (0, 0.0)
        in
        Hashtbl.replace tbl name (c + 1, t +. (fnum "dur" e /. 1e6))
      | _ -> ())
    evs;
  Hashtbl.fold (fun name v acc -> (name, v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

(* The report sections that aggregate time per name, normalised to the
   same (name, count, total_s) shape as trace slices. *)
let report_timed prefix section j =
  obj_fields (Option.value ~default:(Obs.Json.Obj []) (Obs.Json.member section j))
  |> List.map (fun (name, v) ->
         (prefix ^ name, (int_of_float (fnum "count" v), fnum "total_s" v)))

let timed_entries j =
  if is_trace j then trace_slices j
  else report_timed "span:" "spans" j @ report_timed "phase:" "phases" j

let metric_summary m =
  match Obs.Json.member "type" m with
  | Some (Obs.Json.Str "counter") ->
    Printf.sprintf "counter    %.0f" (fnum "value" m)
  | Some (Obs.Json.Str "gauge") -> Printf.sprintf "gauge      %g" (fnum "value" m)
  | Some (Obs.Json.Str "histogram") ->
    Printf.sprintf "histogram  count=%.0f sum=%g p50=%g p90=%g" (fnum "count" m)
      (fnum "sum" m) (fnum "p50" m) (fnum "p90" m)
  | _ -> "?"

(* One number per metric for diffing: counters/gauges their value,
   histograms their sample count (the most interpretable delta). *)
let metric_num m =
  match Obs.Json.member "type" m with
  | Some (Obs.Json.Str "histogram") -> fnum "count" m
  | _ -> fnum "value" m

let obs_cat file =
  let j = read_json_file file in
  if is_trace j then begin
    let slices = trace_slices j in
    Printf.printf "flight trace %s\n" file;
    Printf.printf "%-28s %10s %14s\n" "slice" "count" "total_ms";
    List.iter
      (fun (name, (c, t)) ->
        Printf.printf "%-28s %10d %14.3f\n" name c (t *. 1e3))
      (List.sort
         (fun (_, (_, a)) (_, (_, b)) -> Float.compare b a)
         slices)
  end
  else begin
    Printf.printf "run report %s\n" file;
    print_endline "metrics:";
    List.iter
      (fun (name, m) -> Printf.printf "  %-30s %s\n" name (metric_summary m))
      (obj_fields
         (Option.value ~default:(Obs.Json.Obj []) (Obs.Json.member "metrics" j)));
    List.iter
      (fun (title, section) ->
        match Obs.Json.member section j with
        | Some (Obs.Json.Obj fields) when fields <> [] ->
          Printf.printf "%s:\n" title;
          List.iter
            (fun (name, v) ->
              Printf.printf "  %-30s count=%-8.0f total=%.6fs\n" name
                (fnum "count" v) (fnum "total_s" v))
            fields
        | _ -> ())
      [ ("spans", "spans"); ("phases", "phases") ];
    match Obs.Json.member "gc" j with
    | Some gc ->
      Printf.printf
        "gc: minor_words=%.3g major_words=%.3g top_heap_words=%.0f \
         live_words=%.0f\n"
        (fnum "minor_words" gc) (fnum "major_words" gc)
        (fnum "top_heap_words" gc) (fnum "live_words" gc)
    | None -> ()
  end

let obs_top file n =
  let j = read_json_file file in
  let entries =
    List.sort (fun (_, (_, a)) (_, (_, b)) -> Float.compare b a) (timed_entries j)
  in
  Printf.printf "%-34s %10s %14s\n" "hottest" "count" "total_ms";
  List.iteri
    (fun i (name, (c, t)) ->
      if i < n then Printf.printf "%-34s %10d %14.3f\n" name c (t *. 1e3))
    entries

let obs_diff file_a file_b =
  let a = read_json_file file_a and b = read_json_file file_b in
  if is_trace a <> is_trace b then begin
    Printf.eprintf "obs diff: cannot compare a trace with a run report\n";
    exit 2
  end;
  let pct dv v0 = if v0 = 0.0 then "" else Printf.sprintf " (%+.1f%%)" (100.0 *. dv /. v0) in
  let metrics j =
    obj_fields
      (Option.value ~default:(Obs.Json.Obj []) (Obs.Json.member "metrics" j))
  in
  let ma = metrics a and mb = metrics b in
  if ma <> [] || mb <> [] then begin
    let names =
      List.sort_uniq String.compare (List.map fst ma @ List.map fst mb)
    in
    Printf.printf "%-30s %14s %14s %14s\n" "metric" "a" "b" "delta";
    List.iter
      (fun name ->
        let v l = match List.assoc_opt name l with Some m -> metric_num m | None -> 0.0 in
        let va = v ma and vb = v mb in
        if va <> vb then
          Printf.printf "%-30s %14g %14g %+13g%s\n" name va vb (vb -. va)
            (pct (vb -. va) va))
      names
  end;
  let ta = timed_entries a and tb = timed_entries b in
  let names =
    List.sort_uniq String.compare (List.map fst ta @ List.map fst tb)
  in
  if names <> [] then begin
    Printf.printf "%-30s %14s %14s %14s\n" "timing" "a_total_ms" "b_total_ms" "delta";
    List.iter
      (fun name ->
        let tot l = match List.assoc_opt name l with Some (_, t) -> t | None -> 0.0 in
        let va = tot ta *. 1e3 and vb = tot tb *. 1e3 in
        Printf.printf "%-30s %14.3f %14.3f %+13.3f%s\n" name va vb (vb -. va)
          (pct (vb -. va) va))
      names
  end

let obs_tool_cmd =
  let file p docv =
    Arg.(required & pos p (some file) None & info [] ~docv ~doc:"Input file.")
  in
  let cat_cmd =
    Cmd.v
      (Cmd.info "cat" ~doc:"Pretty-print a run report or flight trace.")
      Term.(const (fun f -> obs_cat f; 0) $ file 0 "FILE")
  in
  let top_cmd =
    let n =
      Arg.(value & opt int 10 & info [ "n" ] ~docv:"N" ~doc:"Entries to show.")
    in
    Cmd.v
      (Cmd.info "top"
         ~doc:"Hottest spans/phases of a run report or flight trace.")
      Term.(const (fun f n -> obs_top f n; 0) $ file 0 "FILE" $ n)
  in
  let diff_cmd =
    Cmd.v
      (Cmd.info "diff"
         ~doc:
           "Compare two run reports (metric and timing deltas) or two \
            flight traces (per-slice time deltas).")
      Term.(const (fun a b -> obs_diff a b; 0) $ file 0 "A" $ file 1 "B")
  in
  Cmd.group
    (Cmd.info "obs" ~doc:"Inspect telemetry artifacts (reports, flight traces).")
    [ cat_cmd; top_cmd; diff_cmd ]

(* ------------------------------------------------------------------ *)
(* `client` — the same queries, answered by a running quantd daemon.
   The daemon replies with pre-rendered text (built by the same
   Serve.Render / Serve.Models code the one-shot subcommands use), so
   stdout is byte-identical to the one-shot path, and exit codes follow
   the same contract: structured bad_request/unknown_method errors map
   to 2, deadline/resource/shutdown/internal/transport failures to 3. *)

let socket_arg =
  Arg.(
    value
    & opt string "quantd.sock"
    & info [ "socket" ] ~docv:"PATH"
        ~doc:"Unix-domain socket the quantd daemon listens on.")

let deadline_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "deadline-ms" ] ~docv:"MS"
        ~doc:
          "Per-request deadline in milliseconds; on expiry the daemon \
           abandons the query and replies deadline_exceeded (exit 3).")

let client_call ~socket ~meth ?deadline_ms params ~on_ok =
  match
    let c = Serve.Client.connect ~retries:1 socket in
    Fun.protect
      ~finally:(fun () -> Serve.Client.close c)
      (fun () -> Serve.Client.call c ~meth ?deadline_ms params)
  with
  | Ok result ->
    (match Obs.Json.member "text" result with
     | Some (Obs.Json.Str text) -> print_string text
     | _ -> print_endline (Obs.Json.to_string result));
    on_ok result
  | Error (code, msg) ->
    Printf.eprintf "quantcli client: %s: %s\n" code msg;
    (match code with
     | "bad_json" | "bad_request" | "unknown_method" -> 2
     | _ -> 3)
  | exception Unix.Unix_error (e, _, _) ->
    Printf.eprintf "quantcli client: cannot reach daemon at %s: %s\n" socket
      (Unix.error_message e);
    3
  | exception Serve.Client.Protocol_error msg ->
    Printf.eprintf "quantcli client: protocol error: %s\n" msg;
    3

let client_check socket deadline_ms model n stats_json jobs =
  client_call ~socket ~meth:"check" ?deadline_ms
    ([
       ("model", Obs.Json.Str model);
       ("n", Obs.Json.Int n);
       ("stats_json", Obs.Json.Bool stats_json);
     ]
    @ match jobs with Some j -> [ ("jobs", Obs.Json.Int j) ] | None -> [])
    ~on_ok:(fun result ->
      match Obs.Json.member "all_hold" result with
      | Some (Obs.Json.Bool false) -> 1
      | _ -> 0)

let client_smc socket deadline_ms model trains runs seed =
  client_call ~socket ~meth:"smc" ?deadline_ms
    [
      ("model", Obs.Json.Str model);
      ("trains", Obs.Json.Int trains);
      ("runs", Obs.Json.Int runs);
      ("seed", Obs.Json.Int seed);
    ]
    ~on_ok:(fun _ -> 0)

let client_modes socket deadline_ms runs seed =
  client_call ~socket ~meth:"modes" ?deadline_ms
    [ ("runs", Obs.Json.Int runs); ("seed", Obs.Json.Int seed) ]
    ~on_ok:(fun _ -> 0)

let client_fuzz socket deadline_ms seed cases families no_shrink extrapolation =
  client_call ~socket ~meth:"fuzz" ?deadline_ms
    [
      ("seed", Obs.Json.Int seed);
      ("cases", Obs.Json.Int cases);
      ("families", Obs.Json.Arr (List.map (fun f -> Obs.Json.Str f) families));
      ("no_shrink", Obs.Json.Bool no_shrink);
      ( "extrapolation",
        Obs.Json.Str
          (match extrapolation with `None -> "none" | `K -> "k" | `Lu -> "lu") );
    ]
    ~on_ok:(fun result ->
      match Obs.Json.member "divergences" result with
      | Some (Obs.Json.Int d) when d > 0 -> 1
      | _ -> 0)

let client_metrics socket =
  client_call ~socket ~meth:"metrics" [] ~on_ok:(fun _ -> 0)

let client_ping socket =
  client_call ~socket ~meth:"ping" [] ~on_ok:(fun _ -> 0)

let client_cmd =
  let check =
    let jobs =
      Arg.(
        value
        & opt (some int) None
        & info [ "jobs" ] ~docv:"N"
            ~doc:
              "Ask the daemon to explore with the sharded parallel engine \
               (capped by the daemon's own worker pool size).")
    in
    Cmd.v
      (Cmd.info "check" ~doc:"Model check on the daemon (warm caches).")
      Term.(
        const client_check $ socket_arg $ deadline_arg $ check_model_arg
        $ check_n_arg $ stats_json_arg $ jobs)
  in
  let smc =
    Cmd.v
      (Cmd.info "smc"
         ~doc:
           "Statistical query on the daemon (warm reply cache); the reply \
            is byte-identical to one-shot $(b,quantcli smc).")
      Term.(
        const client_smc $ socket_arg $ deadline_arg $ smc_model_arg
        $ trains_arg $ runs_arg 500 $ seed_arg)
  in
  let modes =
    Cmd.v
      (Cmd.info "modes" ~doc:"BRP modes simulation on the daemon.")
      Term.(
        const client_modes $ socket_arg $ deadline_arg $ runs_arg 2000 $ seed_arg)
  in
  let fuzz =
    Cmd.v
      (Cmd.info "fuzz"
         ~doc:
           "Differential fuzzing on the daemon (fault injection is \
            refused there: it would mutate shared process state).")
      Term.(
        const client_fuzz $ socket_arg $ deadline_arg $ seed_arg $ cases_arg
        $ families_arg $ no_shrink_arg $ extrapolation_arg)
  in
  let metrics =
    Cmd.v
      (Cmd.info "metrics"
         ~doc:
           "Scrape the daemon's metrics/spans/GC report plus its cache \
            occupancy, as one JSON object.")
      Term.(const client_metrics $ socket_arg)
  in
  let ping =
    Cmd.v
      (Cmd.info "ping" ~doc:"Liveness probe; prints the daemon's pid.")
      Term.(const client_ping $ socket_arg)
  in
  Cmd.group
    (Cmd.info "client"
       ~doc:
         "Run queries against a quantd daemon. Output bytes and exit codes \
          match the one-shot subcommands.")
    [ check; smc; modes; fuzz; metrics; ping ]

(* ------------------------------------------------------------------ *)

let () =
  let doc = "Quantitative modeling and analysis of embedded systems." in
  let info = Cmd.info "quantcli" ~version:"1.0" ~doc in
  exit
    (Cmd.eval'
       (Cmd.group info
          [
            verify_cmd; smc_cmd; synth_cmd; wcet_cmd; brp_cmd; modes_cmd;
            modest_cmd; check_cmd; bip_cmd; mbt_cmd; fuzz_cmd;
            client_cmd; obs_tool_cmd;
          ]))
