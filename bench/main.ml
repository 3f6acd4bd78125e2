(* Reproduction harness: regenerates every quantitative artefact of the
   paper (experiment ids E1-E6 of DESIGN.md), runs the ablation benches,
   and measures each analysis with Bechamel.

     dune exec bench/main.exe            -- everything
     dune exec bench/main.exe -- e1 .. e6 | ablations | micro *)

open Quantlib

let line () = print_endline (String.make 78 '-')

let header title =
  line ();
  Printf.printf "%s\n" title;
  line ()

let timed f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

(* ------------------------------------------------------------------ *)
(* E1 - verification queries of Section II.A.a (Fig. 1 model)          *)
(* ------------------------------------------------------------------ *)

let e1 () =
  header "E1  Train-gate verification (Section II.A.a; paper: all satisfied)";
  let n_trains = 4 in
  let net = Ta.Train_gate.make ~n_trains in
  Printf.printf "%-44s %-10s %9s %9s\n" "query" "verdict" "states" "time(s)";
  let show name q =
    let r, dt = timed (fun () -> Ta.Checker.check net q) in
    Printf.printf "%-44s %-10s %9d %9.2f\n" name
      (if r.Ta.Checker.holds then "satisfied" else "VIOLATED")
      r.Ta.Checker.stats.Ta.Checker.visited dt
  in
  show "A[] at most one train crossing (safety)" (Ta.Train_gate.safety net);
  show "A[] not deadlock" Ta.Train_gate.no_deadlock;
  (* State-space scaling of the safety check. *)
  Printf.printf "\nsafety-check scaling:";
  List.iter
    (fun n ->
      let netn = Ta.Train_gate.make ~n_trains:n in
      let r, dt =
        timed (fun () -> Ta.Checker.check netn (Ta.Train_gate.safety netn))
      in
      Printf.printf "  %d trains: %d states (%.2fs)" n
        r.Ta.Checker.stats.Ta.Checker.visited dt)
    [ 2; 3; 4; 5 ];
  print_newline ();
  (* Fischer's protocol: the other classic UPPAAL verification target. *)
  let fischer = Ta.Fischer.make ~n:3 () in
  let rf, dtf = timed (fun () -> Ta.Checker.check fischer (Ta.Fischer.mutex fischer)) in
  Printf.printf "%-44s %-10s %9d %9.2f\n" "Fischer (3 procs): mutual exclusion"
    (if rf.Ta.Checker.holds then "satisfied" else "VIOLATED")
    rf.Ta.Checker.stats.Ta.Checker.visited dtf;
  let broken = Ta.Fischer.make ~strict_wait:false ~n:2 () in
  let rb, dtb = timed (fun () -> Ta.Checker.check broken (Ta.Fischer.mutex broken)) in
  Printf.printf "%-44s %-10s %9d %9.2f\n" "Fischer, non-strict wait (injected bug)"
    (if rb.Ta.Checker.holds then "satisfied" else "VIOLATED")
    rb.Ta.Checker.stats.Ta.Checker.visited dtb;
  (* Liveness needs the exact graph; run it on 3 trains as the paper's
     property list (one query per train). *)
  let net3 = Ta.Train_gate.make ~n_trains:3 in
  for i = 0 to 2 do
    let r, dt =
      timed (fun () -> Ta.Checker.check net3 (Ta.Train_gate.liveness net3 i))
    in
    Printf.printf "%-44s %-10s %9d %9.2f\n"
      (Printf.sprintf "Train(%d).Appr --> Train(%d).Cross  (3 trains)" i i)
      (if r.Ta.Checker.holds then "satisfied" else "VIOLATED")
      r.Ta.Checker.stats.Ta.Checker.visited dt
  done

(* ------------------------------------------------------------------ *)
(* E2 - controller synthesis (Figs. 2-3)                               *)
(* ------------------------------------------------------------------ *)

let e2 () =
  header "E2  Train-game controller synthesis (UPPAAL-TIGA, Figs. 2-3)";
  Printf.printf "%-14s %10s %10s %10s %12s %9s\n" "trains" "states" "unsafe"
    "winning" "closed-loop" "time(s)";
  let run_game label net =
    let safe = Games.Train_game.safe net in
    let (s, closed), dt =
      timed (fun () ->
          let s = Games.solve net (Games.Safety safe) in
          (s, Games.closed_loop_safe s ~safe))
    in
    let unsafe =
      Array.fold_left
        (fun acc st -> if safe st then acc else acc + 1)
        0 s.Games.graph.Games.Digital.states
    in
    Printf.printf "%-14s %10d %10d %10d %12s %9.2f\n" label
      (Array.length s.Games.graph.Games.Digital.states)
      unsafe (Games.winning_count s)
      (if s.Games.initial_winning && closed then "safe" else "FAILED")
      dt
  in
  run_game "2 (paper)" (Games.Train_game.make ~n_trains:2 ());
  run_game "3 (compact)" (Games.Train_game.make ~constants:`Compact ~n_trains:3 ());
  (* Reachability objective: every train completes a crossing. *)
  let net = Games.Train_game.make ~n_trains:2 () in
  let target = Games.Train_game.all_crossed_once net in
  let r, dt = timed (fun () -> Games.solve net (Games.Reach target)) in
  Printf.printf
    "reach objective (2 trains): initial %s, closed loop reaches target: %b (%.2fs)\n"
    (if r.Games.initial_winning then "winning" else "losing")
    (Games.closed_loop_reaches r ~target)
    dt

(* ------------------------------------------------------------------ *)
(* E3 - Fig. 4: cumulative distribution of crossing times              *)
(* ------------------------------------------------------------------ *)

let e3 () =
  header
    "E3  Fig. 4: Pr[<=100](<> Train(i).Cross), 6 trains, rates 1+id (SMC)";
  let n_trains = 6 in
  let runs = 800 in
  let net = Ta.Train_gate.make ~n_trains in
  let config =
    { Smc.Stochastic.rates = (fun auto _ -> 1.0 +. float_of_int auto) }
  in
  let grid = List.init 8 (fun k -> 10.0 +. (12.0 *. float_of_int k)) in
  Printf.printf "%-8s" "t";
  List.iter (fun t -> Printf.printf "%8.0f" t) grid;
  Printf.printf "\n";
  let _, dt =
    timed (fun () ->
        for i = 0 to n_trains - 1 do
          let series =
            Smc.cdf ~config ~runs ~seed:(300 + i) net
              ~goal:(Ta.Train_gate.cross_formula net i) ~horizon:100.0 ~grid
          in
          Printf.printf "Train %d " i;
          List.iter (fun (_, p) -> Printf.printf "%8.2f" p) series;
          print_newline ()
        done)
  in
  let stats =
    Smc.hitting_time ~config ~runs:400 ~seed:77 net
      ~goal:(Ta.Train_gate.cross_formula net 0) ~horizon:200.0
  in
  Printf.printf
    "expected first crossing of Train 0: mu=%.1f sigma=%.1f (hit fraction %.2f)\n"
    stats.Smc.mean stats.Smc.std stats.Smc.hit_fraction;
  Printf.printf
    "(paper's Fig. 4 shape: all CDFs 0 at t=10, ordered by rate, ~1.0 by t=94;\n\
    \ %d runs/train, %.1fs total)\n"
    runs dt

(* ------------------------------------------------------------------ *)
(* E4 - Table I: BRP results for (N, MAX, TD) = (16, 2, 1)             *)
(* ------------------------------------------------------------------ *)

let e4 () =
  header "E4  Table I: BRP (N, MAX, TD) = (16, 2, 1)";
  let t = Modest.Brp.make () in
  let mt, dt_mctau = timed (fun () -> Modest.Brp.run_mctau t) in
  let mc, dt_mcpta = timed (fun () -> Modest.Brp.run_mcpta t) in
  let md, dt_modes = timed (fun () -> Modest.Brp.run_modes t) in
  let ib = function
    | `Zero -> "0"
    | `Interval (a, b) -> Printf.sprintf "[%g, %g]" a b
  in
  Printf.printf "%-10s %-16s %-16s %-16s %-30s\n" "property" "paper(mcpta)"
    "mctau" "mcpta" "modes (10k runs)";
  let row p paper mctau mcpta modes =
    Printf.printf "%-10s %-16s %-16s %-16s %-30s\n" p paper mctau mcpta modes
  in
  let frac k = Printf.sprintf "%d/%d satisfied" k md.Modest.Brp.md_runs in
  row "TA1" "true"
    (string_of_bool mt.Modest.Brp.mt_ta1)
    (string_of_bool mc.Modest.Brp.mc_ta1)
    (frac md.Modest.Brp.md_ta1_ok);
  row "TA2" "true"
    (string_of_bool mt.Modest.Brp.mt_ta2)
    (string_of_bool mc.Modest.Brp.mc_ta2)
    (frac md.Modest.Brp.md_ta2_ok);
  let obs k = Printf.sprintf "%d observations" k in
  row "PA" "0" (ib mt.Modest.Brp.mt_pa)
    (Printf.sprintf "%g" mc.Modest.Brp.mc_pa)
    (obs md.Modest.Brp.md_pa_obs);
  row "PB" "0" (ib mt.Modest.Brp.mt_pb)
    (Printf.sprintf "%g" mc.Modest.Brp.mc_pb)
    (obs md.Modest.Brp.md_pb_obs);
  row "P1" "4.233e-4" (ib mt.Modest.Brp.mt_p1)
    (Printf.sprintf "%.4e" mc.Modest.Brp.mc_p1)
    (obs md.Modest.Brp.md_p1_obs);
  row "P2" "2.645e-5" (ib mt.Modest.Brp.mt_p2)
    (Printf.sprintf "%.4e" mc.Modest.Brp.mc_p2)
    (obs md.Modest.Brp.md_p2_obs);
  row "Dmax" "9.996e-1" (ib mt.Modest.Brp.mt_dmax)
    (Printf.sprintf "%.4f" mc.Modest.Brp.mc_dmax)
    (Printf.sprintf "%d/%d within 64" md.Modest.Brp.md_dmax_obs
       md.Modest.Brp.md_runs);
  row "Emax" "33.473" "n/a"
    (Printf.sprintf "%.3f" mc.Modest.Brp.mc_emax)
    (Printf.sprintf "mu=%.3f sigma=%.3f" md.Modest.Brp.md_emax_mean
       md.Modest.Brp.md_emax_std);
  Printf.printf
    "\nback-end wall times: mctau %.2fs, mcpta %.2fs, modes %.2fs (10k runs)\n\
     (paper: mctau is the quick check, mcpta '<1min', modes 'significantly longer')\n"
    dt_mctau dt_mcpta dt_modes;
  (* The second MODEST case study: randomized contention resolution
     (Section III cites inherently probabilistic protocols, ref. [14]). *)
  let bo = Modest.Backoff.make () in
  let mean, std = Modest.Backoff.simulate_mean_time bo ~runs:3000 ~seed:13 in
  Printf.printf
    "\nrandomized backoff (2 slots): P(resolved<=2)=%.3f P(<=4)=%.3f \
     E[time] mcpta=%.3f, modes mu=%.3f sigma=%.3f (closed form: 1/2, 3/4, 4)\n"
    (Modest.Backoff.success_within bo ~bound:2)
    (Modest.Backoff.success_within bo ~bound:4)
    (Modest.Backoff.expected_resolution_time bo)
    mean std

(* ------------------------------------------------------------------ *)
(* E5 - DALA (Fig. 6): verification and fault injection                *)
(* ------------------------------------------------------------------ *)

let e5 () =
  header "E5  DALA functional level in BIP (Section IV, Fig. 6)";
  let d = Bip.Dala.make ~controlled:true () in
  Printf.printf "modules: %s + R2C\n"
    (String.concat ", " d.Bip.Dala.module_names);
  let report, dt = timed (fun () -> Bip.Dfinder.prove d.Bip.Dala.sys) in
  Printf.printf
    "deadlock-freedom: %s (%d traps, %d semiflows, %d candidates, %.2fs)\n"
    (match report.Bip.Dfinder.verdict with
     | Bip.Dfinder.Proved -> "PROVED compositionally (D-Finder)"
     | Bip.Dfinder.Inconclusive _ -> "inconclusive")
    report.Bip.Dfinder.n_traps report.Bip.Dfinder.n_semiflows
    report.Bip.Dfinder.n_candidates_checked dt;
  let small =
    Bip.Dala.make ~modules:[ "RFLEX"; "NDD"; "POM"; "Battery"; "Science" ]
      ~controlled:true ()
  in
  let (ok, _), dt2 =
    timed (fun () ->
        Bip.Engine.invariant_holds small.Bip.Dala.sys (Bip.Dala.safety_ok small))
  in
  Printf.printf "exact safety check (5-module subsystem): %s (%.2fs)\n"
    (if ok then "holds on all reachable states" else "VIOLATED")
    dt2;
  Printf.printf "\n%-14s %8s %8s %12s %12s\n" "configuration" "runs" "steps"
    "faults" "violations";
  let inject cfg =
    let r, _ =
      timed (fun () -> Bip.Dala.inject_faults cfg ~runs:50 ~steps:300 ~seed:11)
    in
    Printf.printf "%-14s %8d %8d %12d %12d\n"
      (if cfg.Bip.Dala.controlled then "with R2C" else "without R2C")
      r.Bip.Dala.runs r.Bip.Dala.steps_per_run r.Bip.Dala.faults_injected
      r.Bip.Dala.violations
  in
  inject d;
  inject (Bip.Dala.make ~controlled:false ());
  print_endline
    "(paper: 'the controller successfully stops the robot from reaching\n\
    \ undesired/unsafe states' under fault injection)"

(* ------------------------------------------------------------------ *)
(* E6 - model-based testing (Section V)                                *)
(* ------------------------------------------------------------------ *)

let timed_server_variant ~lo ~hi =
  let b = Ta.Model.builder () in
  let y = Ta.Model.fresh_clock b "y" in
  let req = Ta.Model.channel b "req" in
  let resp = Ta.Model.channel b "resp" in
  let s = Ta.Model.automaton b "Server" in
  let idle = Ta.Model.location s "Idle" in
  let busy = Ta.Model.location s "Busy" ~invariant:[ Ta.Model.clock_le y hi ] in
  Ta.Model.edge s ~src:idle ~dst:busy ~sync:(Ta.Model.Receive req)
    ~updates:[ Ta.Model.Reset (y, 0) ] ();
  Ta.Model.edge s ~src:busy ~dst:idle
    ~clock_guard:[ Ta.Model.clock_ge y lo ]
    ~sync:(Ta.Model.Emit resp) ();
  let env = Ta.Model.automaton b "Env" in
  let e0 = Ta.Model.location env "E" in
  Ta.Model.edge env ~src:e0 ~dst:e0 ~sync:(Ta.Model.Emit req) ();
  Ta.Model.edge env ~src:e0 ~dst:e0 ~sync:(Ta.Model.Receive resp) ();
  Ecdar.make (Ta.Model.build b) ~inputs:[ "req" ] ~outputs:[ "resp" ]

let e6 () =
  header "E6  Model-based testing (Section V): ioco + rtioco + ECDAR";
  let verdict name impl spec =
    Printf.printf "%-26s %s\n" name
      (match Mbt.Ioco.check ~impl ~spec with
       | Ok _ -> "ioco-conforming"
       | Error ce ->
         Printf.sprintf "NOT ioco (after [%s] observed %s)"
           (String.concat " " ce.Mbt.Ioco.trace)
           (Format.asprintf "%a" Mbt.Lts.pp_obs ce.Mbt.Ioco.bad_obs))
  in
  verdict "coffee: reduction" Mbt.Demo.coffee_impl_good Mbt.Demo.coffee_spec;
  verdict "coffee: wrong drink" Mbt.Demo.coffee_impl_wrong_drink
    Mbt.Demo.coffee_spec;
  verdict "coffee: lazy" Mbt.Demo.coffee_impl_lazy Mbt.Demo.coffee_spec;
  verdict "bus: reference" Mbt.Demo.bus_impl_good Mbt.Demo.bus_spec;
  verdict "bus: lossy" Mbt.Demo.bus_impl_lossy Mbt.Demo.bus_spec;
  verdict "bus: chatty" Mbt.Demo.bus_impl_chatty Mbt.Demo.bus_spec;
  let tests =
    Mbt.Testgen.generate_suite Mbt.Demo.bus_spec ~seed:17 ~count:100 ~depth:10
  in
  Printf.printf "\ngenerated %d tests (%d events) from the bus spec\n"
    (List.length tests)
    (List.fold_left (fun acc t -> acc + Mbt.Testgen.size t) 0 tests);
  Printf.printf "%-26s %8s %8s\n" "IUT" "pass" "fail";
  let battery name impl seed =
    let iut = Mbt.Testgen.lts_iut impl ~seed in
    let passes, fails = Mbt.Testgen.run_suite tests iut ~repetitions:20 in
    Printf.printf "%-26s %8d %8d\n" name passes fails
  in
  battery "bus reference (sound!)" Mbt.Demo.bus_impl_good 1;
  battery "bus lossy mutant" Mbt.Demo.bus_impl_lossy 2;
  battery "bus chatty mutant" Mbt.Demo.bus_impl_chatty 3;
  let net = Mbt.Demo.timed_server () in
  let inputs = Mbt.Demo.timed_inputs and outputs = Mbt.Demo.timed_outputs in
  Printf.printf "\nrtioco on-line testing (timed request/response server):\n";
  let show name iut =
    Printf.printf "%-26s %s\n" name
      (match Mbt.Rtioco.test net ~inputs ~outputs ~rounds:100 ~seed:7 iut with
       | Mbt.Rtioco.T_pass r -> Printf.sprintf "pass (%d rounds)" r
       | Mbt.Rtioco.T_fail { round; reason } ->
         Printf.sprintf "FAIL at round %d: %s" round reason)
  in
  show "conforming IUT" (Mbt.Rtioco.spec_iut net ~outputs ~seed:7);
  show "mute IUT" (Mbt.Rtioco.mute_iut (Mbt.Rtioco.spec_iut net ~outputs ~seed:8));
  show "wrong-output IUT"
    (Mbt.Rtioco.noisy_iut
       (Mbt.Rtioco.spec_iut net ~outputs ~seed:9)
       ~wrong:"nack" ~every:1);
  Printf.printf "\nECDAR refinement (timed I/O):\n";
  let tight = timed_server_variant ~lo:2 ~hi:4 in
  let loose = timed_server_variant ~lo:1 ~hi:5 in
  Printf.printf "  server[2,4] <= server[1,5]: %b\n"
    (Ecdar.refines ~impl:tight ~spec:loose).Ecdar.refines;
  Printf.printf "  server[1,5] <= server[2,4]: %b (as expected, refused)\n"
    (Ecdar.refines ~impl:loose ~spec:tight).Ecdar.refines

(* ------------------------------------------------------------------ *)
(* Ablations                                                           *)
(* ------------------------------------------------------------------ *)

let ablations () =
  header "Ablations (design choices called out in DESIGN.md)";
  let net = Ta.Train_gate.make ~n_trains:4 in
  let with_sub, dt1 =
    timed (fun () ->
        Ta.Checker.check ~subsumption:true net (Ta.Train_gate.safety net))
  in
  let without, dt2 =
    timed (fun () ->
        Ta.Checker.check ~subsumption:false net (Ta.Train_gate.safety net))
  in
  Printf.printf
    "zone subsumption (train-gate 4): on  %6d states %.2fs | off %6d states %.2fs\n"
    with_sub.Ta.Checker.stats.Ta.Checker.visited dt1
    without.Ta.Checker.stats.Ta.Checker.visited dt2;
  let t = Modest.Brp.make ~n:8 () in
  let exp = Modest.Digital_sta.expand t.Modest.Brp.sta in
  let target =
    Modest.Digital_sta.target_of exp
      (Modest.Digital_sta.pred_of_mprop exp (Modest.Brp.p1 t))
  in
  let _, gs =
    Mdp.reach_prob ~sweep:Mdp.Gauss_seidel exp.Modest.Digital_sta.mdp ~target
      ~maximize:true
  in
  let _, jac =
    Mdp.reach_prob ~sweep:Mdp.Jacobi exp.Modest.Digital_sta.mdp ~target
      ~maximize:true
  in
  Printf.printf
    "value iteration (BRP N=8): Gauss-Seidel %d iterations | Jacobi %d iterations\n"
    gs.Mdp.iterations jac.Mdp.iterations;
  let netq = Ta.Train_gate.make ~n_trains:3 in
  let q = { Smc.horizon = 60.0; goal = Ta.Train_gate.cross_formula netq 0 } in
  let fixed = Smc.Estimate.chernoff_runs ~eps:0.05 ~alpha:0.05 in
  let sprt, dt =
    timed (fun () -> Smc.hypothesis netq q ~theta:0.5 ~delta:0.1)
  in
  Printf.printf
    "SMC (is Pr >= 0.5?): Chernoff batch needs %d runs | SPRT decided '%s' after %d samples (%.1fs)\n"
    fixed
    (if sprt.Smc.Estimate.accept_h0 then "yes" else "no")
    sprt.Smc.Estimate.samples dt;
  let d =
    Bip.Dala.make ~modules:[ "RFLEX"; "NDD"; "POM"; "Battery"; "Science" ]
      ~controlled:true ()
  in
  let _, dt_comp = timed (fun () -> Bip.Dfinder.prove d.Bip.Dala.sys) in
  let _, dt_exact = timed (fun () -> Bip.Engine.deadlock_free d.Bip.Dala.sys) in
  Printf.printf
    "BIP deadlock proof (DALA-5): compositional %.3fs | exact enumeration %.3fs\n"
    dt_comp dt_exact;
  let net2 = Ta.Train_gate.make ~n_trains:2 in
  let zone_keys = Hashtbl.create 512 in
  List.iter
    (fun st -> Hashtbl.replace zone_keys (Ta.Zone_graph.discrete_key st) ())
    (Ta.Checker.reachable_states net2);
  let digital_keys =
    Discrete.Digital.discrete_parts (Discrete.Digital.explore net2)
  in
  Printf.printf
    "digital vs zone engine (train-gate 2): %d vs %d discrete states (%s)\n"
    (Hashtbl.length digital_keys) (Hashtbl.length zone_keys)
    (if Hashtbl.length digital_keys = Hashtbl.length zone_keys then "agree"
     else "MISMATCH");
  (* D-Finder scaling on token rings (the compositional proof's point:
     its cost does not track the product's size). *)
  let ring n =
    let comp i =
      let b = Bip.Component.create (Printf.sprintf "R%d" i) in
      let with_t = Bip.Component.add_location b "Token" in
      let without = Bip.Component.add_location b "NoToken" in
      let give = Bip.Component.add_port b "give" in
      let take = Bip.Component.add_port b "take" in
      Bip.Component.set_initial b (if i = 0 then with_t else without);
      Bip.Component.add_transition b ~src:with_t ~dst:without ~port:give ();
      Bip.Component.add_transition b ~src:without ~dst:with_t ~port:take ();
      (Bip.Component.build b, give, take)
    in
    let comps = List.init n comp in
    let arr = Array.of_list (List.map (fun (c, _, _) -> c) comps) in
    let connectors =
      List.init n (fun i ->
          let _, give, _ = List.nth comps i in
          let _, _, take = List.nth comps ((i + 1) mod n) in
          Bip.System.Rendezvous
            {
              c_name = Printf.sprintf "pass%d" i;
              members = [ (i, give); ((i + 1) mod n, take) ];
              guard = None;
              action = None;
            })
    in
    Bip.System.make ~components:arr ~connectors ()
  in
  Printf.printf "D-Finder on token rings:";
  List.iter
    (fun n ->
      let sys = ring n in
      let report, dt = timed (fun () -> Bip.Dfinder.prove sys) in
      Printf.printf "  n=%d %s %.3fs" n
        (match report.Bip.Dfinder.verdict with
         | Bip.Dfinder.Proved -> "proved"
         | Bip.Dfinder.Inconclusive _ -> "inconclusive")
        dt)
    [ 2; 4; 6; 8 ];
  print_newline ();
  (* Job-shop optimum vs its admissible lower bound. *)
  let inst =
    {
      Priced.Jobshop.machines = 3;
      jobs =
        [
          [ (0, 3); (1, 2); (2, 2) ];
          [ (1, 2); (2, 1); (0, 4) ];
          [ (2, 4); (0, 1); (1, 3) ];
        ];
    }
  in
  (match Priced.Jobshop.optimal inst with
   | Some s ->
     Printf.printf
       "job-shop (3x3): optimal makespan %d vs lower bound %d (CORA-style search)\n"
       s.Priced.Jobshop.makespan
       (Priced.Jobshop.makespan_lower_bound inst)
   | None -> ())

(* ------------------------------------------------------------------ *)
(* Exploration-engine instrumentation + extrapolation/codec ablations  *)
(* ------------------------------------------------------------------ *)

let engine () =
  header "Exploration engine (stats + extrapolation ablations)";
  (* Each row: one checker run on the shared engine core, across three
     configurations. "packed-lu" is the default (packed-codec fused
     store keys + sealed zones under LU extrapolation); "extra-k" and
     "extra-none" seal under classic Extra-M / no extrapolation instead,
     exposing how much LU shrinks the zone graph. "extra-none" may hit
     the state limit on models whose raw zone graph is infinite; it then
     reports a truncated row instead of aborting the bench. *)
  let runs =
    [
      ("fischer-5/mutex", lazy (Ta.Fischer.make ~n:5 ()),
       fun net -> Ta.Fischer.mutex net);
      ("train-gate-4/safety", lazy (Ta.Train_gate.make ~n_trains:4),
       fun net -> Ta.Train_gate.safety net);
    ]
  in
  let variants =
    [
      ("packed-lu", `Lu);
      ("extra-k", `K);
      ("extra-none", `None);
    ]
  in
  let truncated_stats =
    {
      Engine.Stats.visited = 0; stored = 0; subsumed = 0; dropped = 0;
      reopened = 0; peak_frontier = 0; store_words = 0; truncated = true;
      time_s = 0.0; dbm_phys_eq = 0; dbm_full_cmp = 0; dbm_lattice_cmp = 0;
      phases = [];
    }
  in
  let rows =
    List.concat_map
      (fun (name, net, query) ->
        let net = Lazy.force net in
        (* Three timed attempts per variant, keeping the fastest — and
           interleaved round-robin across the variants rather than
           back-to-back, so a slow minute on a shared box degrades every
           variant's samples alike instead of inverting a close ablation
           pair. Fresh telemetry per attempt, so the embedded snapshot
           holds exactly the kept exploration's metrics and spans. *)
        let attempt (_, extrapolation) =
          Obs.reset ();
          Gc.compact ();
          let r =
            match Ta.Checker.check ~extrapolation net (query net) with
            | r -> Some r
            | exception Failure _ -> None
          in
          let g = Gc.stat () in
          let metrics = Obs.Metrics.snapshot () in
          let spans = Obs.Span.timings_json () in
          (r, g, metrics, spans)
        in
        let time_of (r, _, _, _) =
          match r with
          | Some r -> r.Ta.Checker.stats.Ta.Checker.time_s
          | None -> infinity
        in
        let best = Array.of_list (List.map attempt variants) in
        for _ = 2 to 3 do
          List.iteri
            (fun vi v ->
              let a = attempt v in
              if time_of a < time_of best.(vi) then best.(vi) <- a)
            variants
        done;
        (* One extra flight-enabled run per model, on the default
           packed-lu configuration and deliberately outside the timed
           attempts (the recorder costs a few percent): its per-phase
           totals — dbm.seal, codec.encode, store.probe/subsume/insert,
           frontier pops — are grafted onto the kept packed-lu row, so
           BENCH_engine.json carries a phase breakdown without
           perturbing nodes/s. *)
        let phases =
          Obs.reset ();
          Obs.Flight.enable ();
          let p =
            match Ta.Checker.check ~extrapolation:`Lu net (query net) with
            | r -> r.Ta.Checker.stats.Ta.Checker.phases
            | exception Failure _ -> []
          in
          Obs.Flight.disable ();
          p
        in
        if phases <> [] then begin
          let total =
            List.fold_left (fun acc (_, (_, s)) -> acc +. s) 0.0 phases
          in
          Printf.printf "%-24s phase breakdown (packed-lu, flight run):\n"
            name;
          List.iter
            (fun (pname, (count, total_s)) ->
              Printf.printf "    %-22s %8d calls  %8.4fs  %5.1f%%\n" pname
                count total_s
                (if total > 0.0 then 100.0 *. total_s /. total else 0.0))
            (List.sort
               (fun (_, (_, a)) (_, (_, b)) -> compare b a)
               phases)
        end;
        List.mapi
          (fun vi (vname, _) ->
            let r, g, metrics, spans = best.(vi) in
            let tag = Printf.sprintf "%s/%s" name vname in
            let holds, stats =
              match r with
              | Some r -> (r.Ta.Checker.holds, r.Ta.Checker.stats)
              | None -> (false, truncated_stats)
            in
            (* The phase breakdown belongs to the default variant only:
               the flight run above explored under packed-lu. *)
            let stats =
              if vname = "packed-lu" then { stats with Engine.Stats.phases }
              else stats
            in
            let nodes_per_s =
              if stats.Ta.Checker.time_s > 0.0 then
                float_of_int stats.Ta.Checker.visited
                /. stats.Ta.Checker.time_s
              else 0.0
            in
            (* Equality comparisons only: the subset lattice scans are
               inherent slow-path work (inclusion has no pointer
               shortcut) and are reported as their own column. *)
            let cmp = stats.Ta.Checker.dbm_phys_eq + stats.Ta.Checker.dbm_full_cmp in
            let hit_rate =
              if cmp > 0 then
                float_of_int stats.Ta.Checker.dbm_phys_eq /. float_of_int cmp
              else 0.0
            in
            Printf.printf
              "%-34s %-9s visited %6d  %8.0f nodes/s  phys-eq %5.1f%%  lattice %8d  store %7dkw  heap %6dkw  %.2fs\n"
              tag
              (match r with
               | None -> "TRUNCATED"
               | Some r -> if r.Ta.Checker.holds then "satisfied" else "VIOLATED")
              stats.Ta.Checker.visited nodes_per_s (100.0 *. hit_rate)
              stats.Ta.Checker.dbm_lattice_cmp
              (stats.Ta.Checker.store_words / 1000)
              (g.Gc.top_heap_words / 1000)
              stats.Ta.Checker.time_s;
            (tag, holds, stats, nodes_per_s, hit_rate, g, metrics, spans))
          variants)
      runs
  in
  List.iter
    (fun (name, _, _) ->
      let find tag =
        let _, _, s, _, hr, _, _, _ =
          List.find (fun (t, _, _, _, _, _, _, _) -> t = tag) rows
        in
        (s, hr)
      in
      let packed, packed_hr = find (name ^ "/packed-lu")
      and k, _ = find (name ^ "/extra-k")
      and none, _ = find (name ^ "/extra-none") in
      Printf.printf
        "%-24s visited: %s (none) -> %d (k) -> %d (lu); phys-eq hit rate %.1f%%\n"
        name
        (if none.Ta.Checker.truncated then "truncated"
         else string_of_int none.Ta.Checker.visited)
        k.Ta.Checker.visited packed.Ta.Checker.visited (100.0 *. packed_hr))
    runs;
  (* Parallel zone exploration: fischer-6 under the sharded engine at
     jobs = 1/2/4 on the mutex query. Sharded runs pin [stats.time_s]
     to 0.0 (wall time is a scheduling observable, never part of the
     deterministic result), so the rows are timed externally here. The
     jobs=1 run is both the byte-identity reference and the speedup
     baseline; steal counts and mailbox high-water marks are the
     scheduling observables the determinism argument excludes. *)
  header "Parallel zone exploration (fischer-6, sharded engine)";
  let net6 = Ta.Fischer.make ~n:6 () in
  let q6 = Ta.Fischer.mutex net6 in
  let cores = Domain.recommended_domain_count () in
  let par_rows =
    List.map
      (fun jobs ->
        Obs.reset ();
        Gc.compact ();
        let r, wall = timed (fun () -> Ta.Checker.check ~jobs net6 q6) in
        let g = Gc.stat () in
        let stats = r.Ta.Checker.stats in
        let p =
          match r.Ta.Checker.par with
          | Some p -> p
          | None -> failwith "sharded check must report par info"
        in
        let nodes_per_s = float_of_int stats.Ta.Checker.visited /. wall in
        Printf.printf
          "fischer-6/mutex jobs=%d %-9s visited %7d  %8.0f nodes/s  rounds %4d  steals %4d  mailbox hwm %5d  %.2fs\n"
          jobs
          (if r.Ta.Checker.holds then "satisfied" else "VIOLATED")
          stats.Ta.Checker.visited nodes_per_s p.Engine.Core.rounds
          p.Engine.Core.steals p.Engine.Core.mailbox_hwm wall;
        (jobs, r, wall, nodes_per_s, g, p))
      [ 1; 2; 4 ]
  in
  let wall_of j =
    let _, _, w, _, _, _ = List.find (fun (j', _, _, _, _, _) -> j' = j) par_rows in
    w
  in
  let stats_of j =
    let _, r, _, _, _, _ = List.find (fun (j', _, _, _, _, _) -> j' = j) par_rows in
    Engine.Stats.to_json r.Ta.Checker.stats
  in
  Printf.printf
    "fischer-6/mutex speedup vs jobs=1: x%.2f (jobs=2)  x%.2f (jobs=4) on %d core(s); stats j1=j4: %b\n"
    (wall_of 1 /. wall_of 2)
    (wall_of 1 /. wall_of 4)
    cores
    (String.equal (stats_of 1) (stats_of 4));
  let par_entries =
    List.map
      (fun (jobs, r, wall, nodes_per_s, g, p) ->
        Obs.Json.Obj
          [
            ("run", Obs.Json.Str (Printf.sprintf "fischer-6/mutex/jobs-%d" jobs));
            ("holds", Obs.Json.Bool r.Ta.Checker.holds);
            ("jobs", Obs.Json.Int jobs);
            ("cores", Obs.Json.Int cores);
            ("wall_s", Obs.Json.Float wall);
            ("nodes_per_s", Obs.Json.Float nodes_per_s);
            ("check_speedup", Obs.Json.Float (wall_of 1 /. wall));
            ("steal_count", Obs.Json.Int p.Engine.Core.steals);
            ("mailbox_hwm", Obs.Json.Int p.Engine.Core.mailbox_hwm);
            ("rounds", Obs.Json.Int p.Engine.Core.rounds);
            ("handoffs", Obs.Json.Int p.Engine.Core.handoffs);
            ("shards", Obs.Json.Int p.Engine.Core.par_shards);
            ("top_heap_words", Obs.Json.Int g.Gc.top_heap_words);
            ("live_words", Obs.Json.Int g.Gc.live_words);
            ("stats", Engine.Stats.to_json_value r.Ta.Checker.stats);
          ])
      par_rows
  in
  let entries =
    Obs.Json.Arr
      (List.map
         (fun (tag, holds, stats, nodes_per_s, hit_rate, g, metrics, spans) ->
           Obs.Json.Obj
             [
               ("run", Obs.Json.Str tag);
               ("holds", Obs.Json.Bool holds);
               ("nodes_per_s", Obs.Json.Float nodes_per_s);
               ("phys_eq_hit_rate", Obs.Json.Float hit_rate);
               ("top_heap_words", Obs.Json.Int g.Gc.top_heap_words);
               ("live_words", Obs.Json.Int g.Gc.live_words);
               ("stats", Engine.Stats.to_json_value stats);
               ("metrics", metrics);
               ("spans", spans);
             ])
         rows
      @ par_entries)
  in
  let oc = open_out "BENCH_engine.json" in
  output_string oc (Obs.Json.to_string entries);
  output_char oc '\n';
  close_out oc;
  Printf.printf "wrote BENCH_engine.json (%d runs)\n"
    (List.length rows + List.length par_entries)

(* ------------------------------------------------------------------ *)
(* Parallel pool scaling: SMC + modes batches at 1/2/4 domains         *)
(* ------------------------------------------------------------------ *)

let par () =
  header "Parallel pool scaling (SMC + modes, 1/2/4 domains)";
  let net = Ta.Train_gate.make ~n_trains:4 in
  let config =
    { Smc.Stochastic.rates = (fun auto _ -> 1.0 +. float_of_int auto) }
  in
  let q = { Smc.horizon = 100.0; goal = Ta.Train_gate.cross_formula net 0 } in
  let brp = Modest.Brp.make () in
  (* How many hardware threads this box actually has. Speedup > 1 at
     jobs=2 is only physically possible with >= 2 cores, so the CI
     parallel-speedup gate keys on this field rather than assuming the
     runner's shape. *)
  let cores = Domain.recommended_domain_count () in
  let time f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, Unix.gettimeofday () -. t0)
  in
  let row ~workload ~runs jobs =
    (* Fresh telemetry per row, so metrics and the per-domain span
       breakdown belong to exactly this pool size. *)
    Obs.reset ();
    Par.Pool.with_pool ~jobs @@ fun pool ->
    let itv, smc_s =
      time (fun () -> Smc.probability ~pool ~config ~seed:42 ~runs net q)
    in
    let md, modes_s =
      time (fun () -> Modest.Brp.run_modes ~pool ~runs ~seed:42 brp)
    in
    let metrics = Obs.Metrics.snapshot () in
    let span_domains = Obs.Span.domain_timings_json () in
    Printf.printf
      "%-5s jobs %d  smc %6.2fs  modes %6.2fs  p=%.4f [%.4f,%.4f]  Dmax %d\n"
      workload jobs smc_s modes_s itv.Smc.Estimate.p_hat itv.Smc.Estimate.low
      itv.Smc.Estimate.high md.Modest.Brp.md_dmax_obs;
    (workload, jobs, smc_s, modes_s, itv, md, metrics, span_domains)
  in
  (* Two workload sizes: "small" keeps the historical 2000-run batches
     for continuity; "large" runs 5x more so per-batch fork/join
     overhead amortises and the jobs=2 speedup on a multicore runner is
     a fair scaling signal (that is the row CI gates on). *)
  let run_workload ~workload ~runs jobs_list =
    let rows = List.map (row ~workload ~runs) jobs_list in
    (* Determinism check across pool sizes: the interval and the modes
       observations must not depend on the number of domains. *)
    let _, _, _, _, itv0, md0, _, _ = List.hd rows in
    List.iter
      (fun (_, jobs, _, _, itv, md, _, _) ->
        if itv <> itv0 || md <> md0 then begin
          Printf.eprintf "FAIL: %s results at jobs=%d differ from jobs=1\n"
            workload jobs;
          exit 1
        end)
      (List.tl rows);
    rows
  in
  (* Bind each workload before concatenating: [@]'s argument evaluation
     order is unspecified, and the console should read small-then-large. *)
  let small = run_workload ~workload:"small" ~runs:2000 [ 1; 2; 4 ] in
  let large = run_workload ~workload:"large" ~runs:10_000 [ 1; 2; 4 ] in
  let rows = small @ large in
  print_endline
    "determinism: intervals and observations identical across pool sizes";
  let base_of workload =
    let _, _, smc_base, modes_base, _, _, _, _ =
      List.find (fun (w, jobs, _, _, _, _, _, _) -> w = workload && jobs = 1) rows
    in
    (smc_base, modes_base)
  in
  let entries =
    Obs.Json.Arr
      (List.map
         (fun (workload, jobs, smc_s, modes_s, itv, md, metrics, span_domains) ->
           let smc_base, modes_base = base_of workload in
           Obs.Json.Obj
             [
               ("workload", Obs.Json.Str workload);
               ("jobs", Obs.Json.Int jobs);
               ("cores", Obs.Json.Int cores);
               ("smc_wall_s", Obs.Json.Float smc_s);
               ("modes_wall_s", Obs.Json.Float modes_s);
               ("smc_speedup", Obs.Json.Float (smc_base /. smc_s));
               ("modes_speedup", Obs.Json.Float (modes_base /. modes_s));
               ( "interval",
                 Obs.Json.Obj
                   [
                     ("p_hat", Obs.Json.Float itv.Smc.Estimate.p_hat);
                     ("low", Obs.Json.Float itv.Smc.Estimate.low);
                     ("high", Obs.Json.Float itv.Smc.Estimate.high);
                     ("trials", Obs.Json.Int itv.Smc.Estimate.trials);
                   ] );
               ("modes_dmax_obs", Obs.Json.Int md.Modest.Brp.md_dmax_obs);
               ("metrics", metrics);
               ("span_domains", span_domains);
             ])
         rows)
  in
  let oc = open_out "BENCH_par.json" in
  output_string oc (Obs.Json.to_string entries);
  output_char oc '\n';
  close_out oc;
  Printf.printf "wrote BENCH_par.json (%d rows)\n" (List.length rows)

(* ------------------------------------------------------------------ *)
(* Telemetry overhead: flight recorder on vs off on the engine hot path *)
(* ------------------------------------------------------------------ *)

let obs_bench () =
  header "Telemetry overhead (flight recorder off vs on, fischer-5)";
  (* Same model and query as the engine section's hottest row. Rounds
     alternate which configuration runs first (ABBA): on a busy or
     thermally drifting box the second run of a pair is systematically
     slower, and an unbalanced design books that bias as recorder
     overhead (measured at 2-4% on a 1-core container — comparable to
     the effect itself). Each side keeps its median of 6. The budget in
     DESIGN.md is < 5% nodes/s. *)
  let net = Ta.Fischer.make ~n:5 () in
  let q = Ta.Fischer.mutex net in
  let run flight =
    if flight then Obs.Flight.enable () else Obs.Flight.disable ();
    Obs.reset ();
    Gc.compact ();
    let r = Ta.Checker.check net q in
    let s = r.Ta.Checker.stats in
    if s.Ta.Checker.time_s > 0.0 then
      float_of_int s.Ta.Checker.visited /. s.Ta.Checker.time_s
    else 0.0
  in
  ignore (run false) (* warm-up: page in the model and the stores *);
  let rounds = 6 in
  let offs = Array.make rounds 0.0 and ons = Array.make rounds 0.0 in
  let events = ref 0 and dropped = ref 0 in
  for i = 0 to rounds - 1 do
    if i land 1 = 0 then begin
      offs.(i) <- run false;
      ons.(i) <- run true
    end
    else begin
      ons.(i) <- run true;
      offs.(i) <- run false
    end;
    (* Ring content and overwrite count of this round's flight-on run,
       read before the next [Obs.reset] clears the rings. *)
    if i land 1 = 0 then begin
      events := List.length (Obs.Flight.drain ());
      dropped := Obs.Flight.dropped ()
    end
  done;
  Obs.Flight.disable ();
  let events = !events and dropped = !dropped in
  let median a =
    let a = Array.copy a in
    Array.sort compare a;
    a.(Array.length a / 2)
  in
  let off = median offs and on_ = median ons in
  let overhead_pct = if off > 0.0 then 100.0 *. (1.0 -. (on_ /. off)) else 0.0 in
  Printf.printf
    "flight off %8.0f nodes/s   on %8.0f nodes/s   overhead %+.2f%%   (%d ring events, %d overwritten)\n"
    off on_ overhead_pct events dropped;
  let j =
    Obs.Json.Obj
      [
        ("model", Obs.Json.Str "fischer-5/mutex");
        ("nodes_per_s_off", Obs.Json.Float off);
        ("nodes_per_s_on", Obs.Json.Float on_);
        ("overhead_pct", Obs.Json.Float overhead_pct);
        ("ring_events", Obs.Json.Int events);
        ("overwritten_events", Obs.Json.Int dropped);
      ]
  in
  let oc = open_out "BENCH_obs.json" in
  output_string oc (Obs.Json.to_string j);
  output_char oc '\n';
  close_out oc;
  print_endline "wrote BENCH_obs.json"

(* ------------------------------------------------------------------ *)
(* Differential fuzz harness: sweep throughput per oracle family        *)
(* ------------------------------------------------------------------ *)

let gen () =
  header "Differential oracle harness (cases/s per family, jobs 1/4)";
  let time f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, Unix.gettimeofday () -. t0)
  in
  let cases = 400 in
  let row family jobs =
    Obs.reset ();
    let report, wall =
      time (fun () ->
          Gen.Harness.run
            { Gen.Harness.default with seed = 42; cases; jobs;
              families = [ family ] })
    in
    let name = Gen.Oracle.family_name family in
    Printf.printf "%-14s jobs %d  %6.2fs  %8.0f cases/s  agreed %d skipped %d\n"
      name jobs wall
      (float_of_int cases /. wall)
      report.Gen.Harness.r_agreed
      (List.length report.Gen.Harness.r_skipped);
    if report.Gen.Harness.r_divergences <> [] then begin
      Printf.eprintf "FAIL: unexpected divergence in %s sweep\n" name;
      exit 1
    end;
    (name, jobs, wall, report)
  in
  let rows =
    List.concat_map
      (fun family -> List.map (row family) [ 1; 4 ])
      Gen.Oracle.all_families
  in
  let entries =
    Obs.Json.Arr
      (List.map
         (fun (name, jobs, wall, report) ->
           Obs.Json.Obj
             [
               ("family", Obs.Json.Str name);
               ("jobs", Obs.Json.Int jobs);
               ("cases", Obs.Json.Int cases);
               ("wall_s", Obs.Json.Float wall);
               ("cases_per_s", Obs.Json.Float (float_of_int cases /. wall));
               ("agreed", Obs.Json.Int report.Gen.Harness.r_agreed);
               ( "skipped",
                 Obs.Json.Int (List.length report.Gen.Harness.r_skipped) );
             ])
         rows)
  in
  let oc = open_out "BENCH_gen.json" in
  output_string oc (Obs.Json.to_string entries);
  output_char oc '\n';
  close_out oc;
  Printf.printf "wrote BENCH_gen.json (%d rows)\n" (List.length rows)

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks                                           *)
(* ------------------------------------------------------------------ *)

let micro () =
  header "Bechamel micro-benchmarks (one per experiment core)";
  let open Bechamel in
  let net3 = Ta.Train_gate.make ~n_trains:3 in
  let game2 = Games.Train_game.make ~n_trains:2 () in
  let brp4 = Modest.Brp.make ~n:4 () in
  let dala = Bip.Dala.make ~controlled:true () in
  let smc_cfg =
    { Smc.Stochastic.rates = (fun auto _ -> 1.0 +. float_of_int auto) }
  in
  let dbm_a =
    Zones.Dbm.constrain (Zones.Dbm.universal ~clocks:6) 1 0 (Zones.Bound.le 14)
  in
  let tests =
    [
      Test.make ~name:"e1/safety-check-3-trains"
        (Staged.stage (fun () ->
             ignore (Ta.Checker.check net3 (Ta.Train_gate.safety net3))));
      Test.make ~name:"e2/game-synthesis-2-trains"
        (Staged.stage (fun () ->
             ignore
               (Games.solve game2 (Games.Safety (Games.Train_game.safe game2)))));
      Test.make ~name:"e3/smc-50-runs"
        (Staged.stage (fun () ->
             ignore
               (Smc.probability ~config:smc_cfg ~runs:50 net3
                  {
                    Smc.horizon = 100.0;
                    goal = Ta.Train_gate.cross_formula net3 0;
                  })));
      Test.make ~name:"e4/mcpta-brp-N4"
        (Staged.stage (fun () ->
             ignore
               (Modest.Mcpta.reach_prob brp4.Modest.Brp.sta
                  (Modest.Brp.p1 brp4) ~maximize:true)));
      Test.make ~name:"e4/modes-brp-100-runs"
        (Staged.stage (fun () -> ignore (Modest.Brp.run_modes ~runs:100 brp4)));
      Test.make ~name:"e5/bip-engine-500-steps"
        (Staged.stage
           (let rng = Random.State.make [| 5 |] in
            fun () ->
              ignore
                (Bip.Engine.run dala.Bip.Dala.sys (Bip.Engine.Random rng)
                   ~steps:500)));
      Test.make ~name:"e5/dfinder-dala"
        (Staged.stage (fun () -> ignore (Bip.Dfinder.prove dala.Bip.Dala.sys)));
      Test.make ~name:"e6/ioco-check-bus"
        (Staged.stage (fun () ->
             ignore
               (Mbt.Ioco.check ~impl:Mbt.Demo.bus_impl_lossy
                  ~spec:Mbt.Demo.bus_spec)));
      Test.make ~name:"substrate/dbm-ops"
        (Staged.stage (fun () ->
             let z = Zones.Dbm.up dbm_a in
             let z = Zones.Dbm.reset z 2 3 in
             ignore (Zones.Dbm.subset z dbm_a)));
    ]
  in
  let grouped = Test.make_grouped ~name:"quantlib" tests in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.6) ~kde:None () in
  let instances = Toolkit.Instance.[ monotonic_clock ] in
  let raw = Benchmark.all cfg instances grouped in
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  let rows = Hashtbl.fold (fun name r acc -> (name, r) :: acc) results [] in
  Printf.printf "%-42s %16s %10s\n" "benchmark" "time/run" "r^2";
  List.iter
    (fun (name, r) ->
      let est =
        match Analyze.OLS.estimates r with Some [ e ] -> e | _ -> nan
      in
      let pretty =
        if est > 1e9 then Printf.sprintf "%8.2f s " (est /. 1e9)
        else if est > 1e6 then Printf.sprintf "%8.2f ms" (est /. 1e6)
        else if est > 1e3 then Printf.sprintf "%8.2f us" (est /. 1e3)
        else Printf.sprintf "%8.0f ns" est
      in
      Printf.printf "%-42s %16s %10s\n" name pretty
        (match Analyze.OLS.r_square r with
         | Some r2 -> Printf.sprintf "%.3f" r2
         | None -> "-"))
    (List.sort compare rows)

(* ------------------------------------------------------------------ *)
(* Service layer: cold vs warm daemon queries, smc request batching.
   Forks a quantd child — so this bench must run before anything that
   spawns domains (OCaml 5 forbids fork afterwards); it is registered
   first in the dispatch list below.                                   *)
(* ------------------------------------------------------------------ *)

let serve_bench () =
  header "quantd service (cold vs warm caches, smc request batching)";
  let sock =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "quantd-bench-%d.sock" (Unix.getpid ()))
  in
  (try Unix.unlink sock with Unix.Unix_error _ -> ());
  let pid = Unix.fork () in
  if pid = 0 then begin
    (try
       let devnull = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0o644 in
       Unix.dup2 devnull Unix.stdout;
       Unix.close devnull;
       Serve.Daemon.run
         ~config:
           { Serve.Daemon.default_config with socket_path = sock; jobs = 2 }
         ()
     with _ -> ());
    Unix._exit 0
  end;
  let c = Serve.Client.connect sock in
  let must = function
    | Ok j -> j
    | Error (code, msg) -> failwith (code ^ ": " ^ msg)
  in
  let check_params =
    [ ("model", Obs.Json.Str "fischer"); ("n", Obs.Json.Int 5) ]
  in
  let _, cold_s =
    timed (fun () -> must (Serve.Client.call c ~meth:"check" check_params))
  in
  (* The identical request again: answered from the warm reply cache. *)
  let warm_s =
    List.fold_left
      (fun acc _ ->
        let _, s =
          timed (fun () -> must (Serve.Client.call c ~meth:"check" check_params))
        in
        Float.min acc s)
      infinity [ 1; 2; 3; 4; 5 ]
  in
  (* Four smc requests answered one by one (a read round each) vs the
     same four pipelined in one write, which the daemon fuses into a
     single sample range on the shared pool. Distinct seeds everywhere
     keep the reply cache out of the measurement. *)
  let smc_params seed =
    [
      ("model", Obs.Json.Str "fischer"); ("trains", Obs.Json.Int 2);
      ("runs", Obs.Json.Int 500); ("seed", Obs.Json.Int seed);
    ]
  in
  let _, seq_s =
    timed (fun () ->
        List.iter
          (fun seed ->
            ignore (must (Serve.Client.call c ~meth:"smc" (smc_params seed))))
          [ 1000; 2000; 3000; 4000 ])
  in
  let batched, batched_s =
    timed (fun () ->
        Serve.Client.call_many c
          (List.map
             (fun seed -> ("smc", None, smc_params seed))
             [ 5000; 6000; 7000; 8000 ]))
  in
  List.iter (fun r -> ignore (must r)) batched;
  let metrics = must (Serve.Client.call c ~meth:"metrics" []) in
  let counter name =
    match
      Option.bind (Obs.Json.member "metrics" metrics) (fun m ->
          Option.bind (Obs.Json.member name m) (Obs.Json.member "value"))
    with
    | Some (Obs.Json.Int n) -> n
    | Some (Obs.Json.Float f) -> int_of_float f
    | _ -> 0
  in
  Serve.Client.close c;
  Unix.kill pid Sys.sigterm;
  let graceful =
    match Unix.waitpid [] pid with
    | _, Unix.WEXITED 0 -> true
    | _ -> false
  in
  Printf.printf "%-36s %10.4f s\n" "cold check (fischer n=5)" cold_s;
  Printf.printf "%-36s %10.4f s  (x%.0f)\n" "warm repeat (reply cache)" warm_s
    (cold_s /. warm_s);
  Printf.printf "%-36s %10.4f s\n" "4 smc requests, sequential" seq_s;
  Printf.printf "%-36s %10.4f s  (x%.2f)\n" "4 smc requests, one fused batch"
    batched_s (seq_s /. batched_s);
  Printf.printf
    "reply cache %d hits / %d misses, model cache %d/%d, %d requests fused \
     in %d batches, graceful exit %b\n"
    (counter "serve.reply_hits") (counter "serve.reply_misses")
    (counter "serve.model_hits") (counter "serve.model_misses")
    (counter "serve.smc_fused_requests") (counter "serve.smc_batches")
    graceful;
  let j =
    Obs.Json.Obj
      [
        ("cold_check_s", Obs.Json.Float cold_s);
        ("warm_check_s", Obs.Json.Float warm_s);
        ("warm_speedup", Obs.Json.Float (cold_s /. warm_s));
        ("seq_smc_s", Obs.Json.Float seq_s);
        ("batched_smc_s", Obs.Json.Float batched_s);
        ("batch_speedup", Obs.Json.Float (seq_s /. batched_s));
        ( "cache",
          Obs.Json.Obj
            [
              ("reply_hits", Obs.Json.Int (counter "serve.reply_hits"));
              ("reply_misses", Obs.Json.Int (counter "serve.reply_misses"));
              ("model_hits", Obs.Json.Int (counter "serve.model_hits"));
              ("model_misses", Obs.Json.Int (counter "serve.model_misses"));
              ("smc_batches", Obs.Json.Int (counter "serve.smc_batches"));
              ( "smc_fused_requests",
                Obs.Json.Int (counter "serve.smc_fused_requests") );
            ] );
        ("graceful_exit", Obs.Json.Bool graceful);
      ]
  in
  let oc = open_out "BENCH_serve.json" in
  output_string oc (Obs.Json.to_string j);
  output_char oc '\n';
  close_out oc;
  print_endline "wrote BENCH_serve.json"

(* ------------------------------------------------------------------ *)

let () =
  let all =
    [
      ("serve", serve_bench);
      ("e1", e1); ("e2", e2); ("e3", e3); ("e4", e4); ("e5", e5); ("e6", e6);
      ("ablations", ablations); ("engine", engine); ("par", par);
      ("obs", obs_bench); ("gen", gen); ("micro", micro);
    ]
  in
  let args = Array.to_list Sys.argv |> List.tl in
  match args with
  | [] -> List.iter (fun (_, f) -> f ()) all
  | names ->
    List.iter
      (fun name ->
        match List.assoc_opt name all with
        | Some f -> f ()
        | None ->
          Printf.eprintf "unknown experiment %s (have: %s)\n" name
            (String.concat " " (List.map fst all));
          exit 1)
      names
