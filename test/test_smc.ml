(* Tests for the statistical model checking layer: estimators, the
   stochastic race semantics (validated against closed-form answers), and
   the Fig. 4 train-gate experiment's qualitative shape. *)

module Model = Ta.Model
module Expr = Ta.Expr
module Store = Ta.Store
module Prop = Ta.Prop
module Train_gate = Ta.Train_gate
module Stochastic = Smc.Stochastic
module Estimate = Smc.Estimate

let check = Alcotest.(check bool)
let check_float = Alcotest.(check (float 1e-9))

(* ------------------------------------------------------------------ *)
(* Estimators                                                          *)
(* ------------------------------------------------------------------ *)

let test_wilson () =
  let i = Estimate.wilson ~successes:50 ~trials:100 () in
  check_float "centred" 0.5 i.Estimate.p_hat;
  check "interval brackets p_hat" true
    (i.Estimate.low < 0.5 && 0.5 < i.Estimate.high);
  check "nontrivial width" true (i.Estimate.high -. i.Estimate.low < 0.25);
  let j = Estimate.wilson ~successes:0 ~trials:100 () in
  check "zero successes: low ~ 0" true (j.Estimate.low < 1e-9);
  check "zero successes: tight high" true (j.Estimate.high < 0.06);
  let k = Estimate.wilson ~successes:1000 ~trials:1000 () in
  check "all successes: high ~ 1" true (k.Estimate.high > 1.0 -. 1e-9)

let test_wilson_narrows () =
  let w trials =
    let i = Estimate.wilson ~successes:(trials / 2) ~trials () in
    i.Estimate.high -. i.Estimate.low
  in
  check "more trials narrow the interval" true (w 10000 < w 100)

let test_chernoff () =
  (* ln(2/0.05) / (2 * 0.05^2) = 737.78 -> 738 *)
  Alcotest.(check int) "chernoff bound" 738
    (Estimate.chernoff_runs ~eps:0.05 ~alpha:0.05);
  check "smaller eps, more runs" true
    (Estimate.chernoff_runs ~eps:0.01 ~alpha:0.05
     > Estimate.chernoff_runs ~eps:0.1 ~alpha:0.05)

let test_sprt () =
  let rng = Random.State.make [| 7 |] in
  let bernoulli p () = Random.State.float rng 1.0 < p in
  (* True p = 0.9, H0: p >= 0.5 should be accepted quickly. *)
  let r =
    Estimate.sprt ~theta:0.5 ~delta:0.05 ~alpha:0.01 ~beta:0.01 (bernoulli 0.9)
  in
  check "H0 accepted for high p" true r.Estimate.accept_h0;
  check "sequentially few samples" true (r.Estimate.samples < 200);
  (* True p = 0.1, H0: p >= 0.5 rejected. *)
  let r2 =
    Estimate.sprt ~theta:0.5 ~delta:0.05 ~alpha:0.01 ~beta:0.01 (bernoulli 0.1)
  in
  check "H0 rejected for low p" false r2.Estimate.accept_h0

(* Differential: feeding a pre-drawn outcome sequence to the
   incremental Sprt state machine one sample at a time must give
   exactly the verdict and sample count of the one-shot [sprt] on the
   same sequence — the property Smc.hypothesis relies on to sample
   speculatively in parallel. *)
let prop_sprt_incremental_vs_batch =
  QCheck.Test.make ~name:"Sprt.step replays sprt verdict and sample count"
    ~count:200
    (QCheck.make
       QCheck.Gen.(
         triple (int_bound 1_000_000)
           (float_bound_inclusive 1.0)
           (float_range 0.1 0.9))
       ~print:(fun (seed, p, theta) ->
         Printf.sprintf "seed=%d p=%f theta=%f" seed p theta))
    (fun (seed, p, theta) ->
      let max_samples = 400 in
      let outcomes =
        let rng = Random.State.make [| seed |] in
        Array.init max_samples (fun _ -> Random.State.float rng 1.0 < p)
      in
      let batch =
        let i = ref 0 in
        Estimate.sprt ~max_samples ~theta ~delta:0.05 ~alpha:0.05 ~beta:0.05
          (fun () ->
            let o = outcomes.(!i) in
            incr i;
            o)
      in
      let incremental =
        let rec go st i =
          match Estimate.Sprt.step st outcomes.(i) with
          | Estimate.Sprt.Decided r -> r
          | Estimate.Sprt.Undecided st -> go st (i + 1)
        in
        go
          (Estimate.Sprt.start ~max_samples ~theta ~delta:0.05 ~alpha:0.05
             ~beta:0.05 ())
          0
      in
      batch.Estimate.accept_h0 = incremental.Estimate.accept_h0
      && batch.Estimate.samples = incremental.Estimate.samples)

let test_mean_std () =
  let m, s = Estimate.mean_std [| 1.0; 2.0; 3.0; 4.0 |] in
  check_float "mean" 2.5 m;
  check "std approx" true (abs_float (s -. 1.2909944487) < 1e-6)


let test_confidence_widths () =
  let width c =
    let i = Estimate.wilson ~confidence:c ~successes:60 ~trials:100 () in
    i.Estimate.high -. i.Estimate.low
  in
  check "99% wider than 95%" true (width 0.99 > width 0.95);
  check "95% wider than 80%" true (width 0.95 > width 0.80)

(* ------------------------------------------------------------------ *)
(* Stochastic semantics vs closed-form answers                         *)
(* ------------------------------------------------------------------ *)

(* One component, invariant x<=2, edge enabled from x>=0: hitting time is
   Uniform[0,2], so Pr[<=1](<> B) = 1/2. *)
let test_uniform_delay () =
  let b = Model.builder () in
  let x = Model.fresh_clock b "x" in
  let p = Model.automaton b "P" in
  let a = Model.location p "A" ~invariant:[ Model.clock_le x 2 ] in
  let g = Model.location p "B" in
  Model.edge p ~src:a ~dst:g ();
  let net = Model.build b in
  let q = { Smc.horizon = 1.0; goal = Prop.loc net "P" "B" } in
  let i = Smc.probability ~runs:4000 net q in
  check "uniform: Pr[<=1] near 0.5" true
    (i.Estimate.p_hat > 0.45 && i.Estimate.p_hat < 0.55)

(* Exponential race: two components with rates 3 and 1; the first mover
   records itself. P(component 1 first) = 3/4. *)
let test_exponential_race () =
  let b = Model.builder () in
  let sb = Model.store b in
  let first = Store.int_var sb "first" in
  let mk name id rate_marker =
    ignore rate_marker;
    let p = Model.automaton b name in
    let a = Model.location p "A" in
    let done_l = Model.location p "Done" in
    Model.edge p ~src:a ~dst:done_l
      ~updates:
        [
          Model.Assign
            ( Expr.Cell first,
              Expr.Ite (Expr.Eq (Expr.var first, Expr.Int 0), Expr.Int id, Expr.var first) );
        ]
      ()
  in
  mk "P1" 1 3.0;
  mk "P2" 2 1.0;
  let net = Model.build b in
  let config =
    { Stochastic.rates = (fun auto _ -> if auto = 0 then 3.0 else 1.0) }
  in
  let q =
    {
      Smc.horizon = 1000.0;
      goal = Prop.Data (Expr.Neq (Expr.var first, Expr.Int 0));
    }
  in
  let i = Smc.probability ~config ~runs:4000 net q in
  check "everyone eventually moves" true (i.Estimate.p_hat > 0.999);
  (* Fraction where P1 won the race. *)
  let q1 =
    { Smc.horizon = 1000.0; goal = Prop.Data (Expr.Eq (Expr.var first, Expr.Int 1)) }
  in
  let i1 = Smc.probability ~config ~runs:4000 net q1 in
  check "P1 wins about 3/4 of races" true
    (i1.Estimate.p_hat > 0.70 && i1.Estimate.p_hat < 0.80)


let test_hitting_time () =
  (* Uniform[0,2] hitting time: mean 1, std 1/sqrt(3) ~ 0.577. *)
  let b = Model.builder () in
  let x = Model.fresh_clock b "x" in
  let p = Model.automaton b "P" in
  let a = Model.location p "A" ~invariant:[ Model.clock_le x 2 ] in
  let g = Model.location p "B" in
  Model.edge p ~src:a ~dst:g ();
  let net = Model.build b in
  let s = Smc.hitting_time ~runs:4000 net ~goal:(Prop.loc net "P" "B") ~horizon:10.0 in
  check "all runs hit" true (s.Smc.hit_fraction > 0.999);
  check "mean near 1" true (abs_float (s.Smc.mean -. 1.0) < 0.05);
  check "std near 0.577" true (abs_float (s.Smc.std -. 0.5774) < 0.05)


(* Cross-engine soundness: every location the stochastic simulator ever
   reaches must be reachable for the symbolic checker (simulated runs are
   genuine runs of the automaton). *)
let random_net_for_smc rng =
  let b = Model.builder () in
  let x = Model.fresh_clock b "x" in
  let p = Model.automaton b "P" in
  let n_locs = 2 + Random.State.int rng 2 in
  let locs =
    Array.init n_locs (fun l ->
        let invariant =
          if Random.State.bool rng then
            [ Model.clock_le x (1 + Random.State.int rng 4) ]
          else []
        in
        Model.location p (Printf.sprintf "l%d" l) ~invariant)
  in
  for _ = 1 to 2 + Random.State.int rng 3 do
    let src = locs.(Random.State.int rng n_locs) in
    let dst = locs.(Random.State.int rng n_locs) in
    let clock_guard =
      if Random.State.bool rng then [ Model.clock_ge x (Random.State.int rng 3) ]
      else []
    in
    let updates = if Random.State.bool rng then [ Model.Reset (x, 0) ] else [] in
    Model.edge p ~src ~dst ~clock_guard ~updates ()
  done;
  (Model.build b, n_locs)

let smc_sound_wrt_checker seed =
  let net, n_locs = random_net_for_smc (Random.State.make [| seed |]) in
  List.for_all
    (fun l ->
      let goal = Prop.Loc (0, l) in
      let i = Smc.probability ~seed ~runs:60 net { Smc.horizon = 30.0; goal } in
      i.Estimate.p_hat = 0.0
      || (Ta.Checker.check net (Prop.Possibly goal)).Ta.Checker.holds)
    (List.init n_locs Fun.id)

let prop_smc_sound_wrt_checker =
  QCheck.Test.make ~name:"SMC hits imply symbolic reachability" ~count:60
    (QCheck.make
       QCheck.Gen.(int_bound 1_000_000)
       ~print:(Printf.sprintf "seed=%d"))
    smc_sound_wrt_checker

(* A found counterexample, kept as a fixed case: l1 (x<=4) --x>=2, no
   reset--> l2 (x<=1). Simulated runs used to fire the edge at x >= 2
   and enter l2 against its invariant, which the checker rightly calls
   unreachable. *)
let test_smc_seed_512147 () =
  check "SMC hits imply symbolic reachability" true (smc_sound_wrt_checker 512147)

(* ------------------------------------------------------------------ *)
(* Fig. 4 shape on the train-gate                                      *)
(* ------------------------------------------------------------------ *)

let fig4_config net =
  ignore net;
  (* Rate 1 + id on Safe (and anywhere exponential applies). *)
  { Stochastic.rates = (fun auto _ -> 1.0 +. float_of_int auto) }

let test_train_gate_cdf_monotone () =
  let net = Train_gate.make ~n_trains:3 in
  let series =
    Smc.cdf ~config:(fig4_config net) ~runs:400 net
      ~goal:(Train_gate.cross_formula net 0) ~horizon:100.0
      ~grid:[ 10.; 25.; 50.; 75.; 100. ]
  in
  let values = List.map snd series in
  let rec monotone = function
    | a :: (b :: _ as rest) -> a <= b && monotone rest
    | [ _ ] | [] -> true
  in
  check "CDF monotone" true (monotone values);
  check "high probability by t=100" true (List.nth values 4 > 0.8)

let test_train_gate_rate_order () =
  (* A higher-rate train tends to cross sooner: its CDF at a moderate
     bound dominates a lower-rate train's. *)
  let net = Train_gate.make ~n_trains:3 in
  let config = fig4_config net in
  let cdf_at i =
    match
      Smc.cdf ~config ~runs:600 net ~goal:(Train_gate.cross_formula net i)
        ~horizon:100.0 ~grid:[ 30.0 ]
    with
    | [ (_, p) ] -> p
    | _ -> assert false
  in
  let p0 = cdf_at 0 and p2 = cdf_at 2 in
  check "rate 3 train crosses sooner than rate 1 train" true (p2 > p0 -. 0.02)

let test_simulation_progresses () =
  let net = Train_gate.make ~n_trains:2 in
  let rng = Random.State.make [| 1 |] in
  let st, hit =
    Stochastic.simulate net (fig4_config net) rng ~horizon:50.0
      ~stop:(fun st ->
        Ta.Prop.eval_on net ~locs:st.Stochastic.clocs
          ~store:st.Stochastic.cstore
          (Train_gate.cross_formula net 0))
  in
  check "time advanced" true (st.Stochastic.ctime > 0.0);
  check "either hit or horizon" true
    (match hit with Some t -> t <= 50.0 | None -> true)

let () =
  Alcotest.run "smc"
    [
      ( "estimators",
        [
          Alcotest.test_case "wilson" `Quick test_wilson;
          Alcotest.test_case "wilson narrows" `Quick test_wilson_narrows;
          Alcotest.test_case "chernoff" `Quick test_chernoff;
          Alcotest.test_case "sprt" `Quick test_sprt;
          QCheck_alcotest.to_alcotest prop_sprt_incremental_vs_batch;
          Alcotest.test_case "mean/std" `Quick test_mean_std;
          Alcotest.test_case "confidence widths" `Quick test_confidence_widths;
        ] );
      ( "semantics",
        [
          Alcotest.test_case "uniform delay" `Slow test_uniform_delay;
          Alcotest.test_case "exponential race" `Slow test_exponential_race;
          Alcotest.test_case "hitting time" `Slow test_hitting_time;
        ] );
      ( "cross-engine",
        [
          QCheck_alcotest.to_alcotest prop_smc_sound_wrt_checker;
          Alcotest.test_case "seed 512147 stays out of l2" `Quick
            test_smc_seed_512147;
        ] );
      ( "train-gate",
        [
          Alcotest.test_case "cdf monotone" `Slow test_train_gate_cdf_monotone;
          Alcotest.test_case "rate ordering" `Slow test_train_gate_rate_order;
          Alcotest.test_case "simulation progresses" `Quick
            test_simulation_progresses;
        ] );
    ]
