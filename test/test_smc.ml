(* Tests for the statistical model checking layer: estimators, the
   stochastic race semantics (validated against closed-form answers),
   the Fig. 4 train-gate experiment's qualitative shape, and the
   simulator against goldens and a reference implementation. *)

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
    Stochastic.simulate (Stochastic.compile net) (fig4_config net) rng
      ~horizon:50.0 ~stop:(fun locs store ->
        Ta.Prop.eval_on net ~locs ~store (Train_gate.cross_formula net 0))
  in
  check "time advanced" true (st.Smc.Kernel.time > 0.0);
  check "either hit or horizon" true
    (match hit with Some t -> t <= 50.0 | None -> true)

(* ------------------------------------------------------------------ *)
(* Reference simulator and goldens                                     *)
(* ------------------------------------------------------------------ *)

(* The list-based race simulator that the compiled kernel replaced,
   kept as the oracle of the differential tests below: same draws, in
   the same order, from the same stream, so every hitting time, visited
   state and end time must be equal, not just close. Its one change
   since is the time-lock end in [step]. *)
module Ref = struct
  module Bound = Zones.Bound

  type cstate = {
    clocs : int array;
    cstore : int array;
    cclocks : float array;
    ctime : float;
  }

  let initial_cstate (net : Model.network) =
    {
      clocs = Array.map (fun (a : Model.automaton) -> a.Model.initial) net.automata;
      cstore = Ta.Store.initial net.layout;
      cclocks = Array.make (net.n_clocks + 1) 0.0;
      ctime = 0.0;
    }

  let guard_window v constrs =
    let lo = ref 0.0 and hi = ref infinity and feasible = ref true in
    List.iter
      (fun (c : Model.constr) ->
        if not (Bound.is_inf c.cb) then begin
          let m = float_of_int (Bound.constant c.cb) in
          if c.ci > 0 && c.cj = 0 then hi := min !hi (m -. v.(c.ci))
          else if c.ci = 0 && c.cj > 0 then lo := max !lo (-.m -. v.(c.cj))
          else if not (Bound.sat c.cb (v.(c.ci) -. v.(c.cj))) then
            feasible := false
        end)
      constrs;
    if (not !feasible) || !lo > !hi then None else Some (!lo, !hi)

  let invariant_bound net (st : cstate) =
    List.fold_left
      (fun acc (c : Model.constr) ->
        if (not (Bound.is_inf c.cb)) && c.ci > 0 && c.cj = 0 then
          min acc (float_of_int (Bound.constant c.cb) -. st.cclocks.(c.ci))
        else acc)
      infinity
      (Ta.Zone_graph.invariant_constrs net st.clocs)

  let is_output (s : Model.sync) =
    match s with Model.Emit _ | Model.Tau -> true | Model.Receive _ -> false

  let output_edges net (st : cstate) i =
    let a = net.Model.automata.(i) in
    List.filter
      (fun (e : Model.edge) ->
        is_output e.sync
        && (match e.data_guard with
            | None -> true
            | Some g -> Expr.eval_bool st.cstore g))
      a.Model.out.(st.clocs.(i))

  let component_delay net (cfg : Stochastic.config) rng (st : cstate) ~inv_ub
      i =
    let edges = output_edges net st i in
    let windows =
      List.filter_map
        (fun (e : Model.edge) -> guard_window st.cclocks e.clock_guard)
        edges
    in
    match windows with
    | [] -> infinity
    | _ ->
      let lo = List.fold_left (fun acc (l, _) -> min acc l) infinity windows in
      let kind = net.Model.automata.(i).locations.(st.clocs.(i)).Model.kind in
      if kind <> Model.Normal then (if lo <= 0.0 then 0.0 else infinity)
      else if lo > inv_ub then infinity
      else if inv_ub < infinity then
        lo +. Random.State.float rng (max 0.0 (inv_ub -. lo))
      else begin
        let rate = cfg.Stochastic.rates i st.clocs.(i) in
        lo +. (-.log (max 1e-300 (Random.State.float rng 1.0)) /. rate)
      end

  let rec clock_guard_sat v = function
    | [] -> true
    | (c : Model.constr) :: rest ->
      Bound.sat c.cb (v.(c.ci) -. v.(c.cj)) && clock_guard_sat v rest

  let edge_enabled (st : cstate) (e : Model.edge) =
    (match e.data_guard with
     | None -> true
     | Some g -> Expr.eval_bool st.cstore g)
    && clock_guard_sat st.cclocks e.clock_guard

  let receivers net (st : cstate) ~from (ch : Model.chan) =
    let acc = ref [] in
    Array.iteri
      (fun j (a : Model.automaton) ->
        if j <> from then
          List.iter
            (fun (e : Model.edge) ->
              match e.sync with
              | Model.Receive c when c.Model.chan_id = ch.Model.chan_id ->
                if edge_enabled st e then acc := (j, e) :: !acc
              | Model.Receive _ | Model.Emit _ | Model.Tau -> ())
            a.Model.out.(st.clocs.(j)))
      net.Model.automata;
    List.rev !acc

  let pick rng xs =
    match xs with
    | [] -> None
    | _ -> Some (List.nth xs (Random.State.int rng (List.length xs)))

  let advance (st : cstate) d =
    {
      st with
      cclocks = Array.mapi (fun k x -> if k = 0 then 0.0 else x +. d) st.cclocks;
      ctime = st.ctime +. d;
    }

  let apply_edges (st : cstate) participants =
    let store = Array.copy st.cstore in
    let clocks = Array.copy st.cclocks in
    let locs = Array.copy st.clocs in
    List.iter
      (fun (i, (e : Model.edge)) ->
        locs.(i) <- e.Model.dst;
        List.iter
          (function
            | Model.Assign (lv, rhs) ->
              let value = Expr.eval store rhs in
              store.(Expr.lvalue_offset store lv) <- value
            | Model.Reset (x, value) -> clocks.(x) <- float_of_int value
            | Model.Prim (_, f) -> f store)
          e.Model.updates)
      participants;
    { st with clocs = locs; cstore = store; cclocks = clocks }

  let invariants_hold net (st : cstate) =
    let autos = net.Model.automata in
    let ok = ref true and i = ref 0 in
    while !ok && !i < Array.length autos do
      ok :=
        clock_guard_sat st.cclocks
          autos.(!i).Model.locations.(st.clocs.(!i)).Model.invariant;
      incr i
    done;
    !ok

  let rec pick_valid net rng xs move =
    match xs with
    | [] -> None
    | _ -> (
      let k = Random.State.int rng (List.length xs) in
      match move (List.nth xs k) with
      | Some st' as r when invariants_hold net st' -> r
      | _ -> pick_valid net rng (List.filteri (fun j _ -> j <> k) xs) move)

  let viable net (st : cstate) i =
    let candidates = List.filter (edge_enabled st) (output_edges net st i) in
    List.filter
      (fun (e : Model.edge) ->
        match e.Model.sync with
        | Model.Tau -> true
        | Model.Emit ch ->
          (match ch.Model.kind with
           | Model.Broadcast -> true
           | Model.Binary -> receivers net st ~from:i ch <> [])
        | Model.Receive _ -> false)
      candidates

  let fire net rng (st : cstate) i =
    pick_valid net rng (viable net st i) @@ fun (e : Model.edge) ->
    match e.Model.sync with
    | Model.Tau -> Some (apply_edges st [ (i, e) ])
    | Model.Emit ch ->
      (match ch.Model.kind with
       | Model.Binary ->
         pick_valid net rng (receivers net st ~from:i ch) (fun (j, er) ->
             Some (apply_edges st [ (i, e); (j, er) ]))
       | Model.Broadcast ->
         let by_component = Hashtbl.create 8 in
         List.iter
           (fun (j, er) ->
             let existing =
               try Hashtbl.find by_component j with Not_found -> []
             in
             Hashtbl.replace by_component j (er :: existing))
           (receivers net st ~from:i ch);
         let rs =
           Hashtbl.fold
             (fun j es acc ->
               match pick rng es with
               | Some er -> (j, er) :: acc
               | None -> acc)
             by_component []
         in
         let rs = List.sort (fun (a, _) (b, _) -> compare a b) rs in
         Some (apply_edges st ((i, e) :: rs)))
    | Model.Receive _ -> None

  let step net cfg rng (st : cstate) =
    let n = Array.length net.Model.automata in
    let inv_ub = invariant_bound net st in
    let committed =
      List.filter
        (fun i ->
          net.Model.automata.(i).locations.(st.clocs.(i)).Model.kind
          = Model.Committed)
        (List.init n Fun.id)
    in
    let race_candidates =
      if committed <> [] then List.map (fun i -> (i, 0.0)) committed
      else begin
        let delays =
          List.init n (fun i ->
              let urgent_now =
                List.exists
                  (fun (e : Model.edge) ->
                    match e.Model.sync with
                    | Model.Emit ch when ch.Model.urgent ->
                      edge_enabled st e
                      && (match ch.Model.kind with
                          | Model.Broadcast -> true
                          | Model.Binary -> receivers net st ~from:i ch <> [])
                    | Model.Emit _ | Model.Receive _ | Model.Tau -> false)
                  (output_edges net st i)
              in
              if urgent_now then (i, 0.0)
              else (i, component_delay net cfg rng st ~inv_ub i))
        in
        List.filter (fun (_, d) -> d < infinity) delays
      end
    in
    match race_candidates with
    | [] -> None
    | _ ->
      let d_min =
        List.fold_left (fun acc (_, d) -> min acc d) infinity race_candidates
      in
      let winners = List.filter (fun (_, d) -> d = d_min) race_candidates in
      (match pick rng winners with
       | None -> None
       | Some (i, d) ->
         let st' = advance st d in
         (match fire net rng st' i with
          | Some st'' -> Some st''
          | None ->
            (* Time-locked: nothing racing at delay 0 has a viable move,
               so this race would repeat until the fuel is gone. *)
            if
              d = 0.0
              && not
                   (List.exists
                      (fun (j, dj) -> dj = 0.0 && viable net st' j <> [])
                      race_candidates)
            then None
            else Some st'))

  (* [stop] sees the discrete parts of every visited state, in order;
     the result is the end time and the hitting time. *)
  let simulate net cfg rng ~horizon ~stop =
    let rec loop st fuel =
      if stop st.clocs st.cstore then (st.ctime, Some st.ctime)
      else if st.ctime > horizon || fuel = 0 then (st.ctime, None)
      else
        match step net cfg rng st with
        | None -> (st.ctime, None)
        | Some st' -> loop st' (fuel - 1)
    in
    loop (initial_cstate net) 100_000
end

(* The simulator under test, seen through the reference's signature. *)
let run_new net config rng ~horizon ~stop =
  let st, hit = Stochastic.simulate (Stochastic.compile net) config rng ~horizon ~stop in
  (st.Smc.Kernel.time, hit)

(* Every state a run visits, as the stop predicate sees it, folded into
   [trace]; the stop fires where [goal] holds. *)
let recording_stop trace net goal locs store =
  let h = ref !trace in
  Array.iter (fun x -> h := (!h * 31) + x) locs;
  Array.iter (fun x -> h := (!h * 37) + x) store;
  trace := !h;
  Ta.Prop.eval_on net ~locs ~store goal

let hits_text times =
  let b = Buffer.create 4096 in
  Array.iter
    (function
      | Some h -> Printf.bprintf b "%h\n" h
      | None -> Buffer.add_string b "-\n")
    times;
  Buffer.contents b

let ref_times net config ~seed ~runs ~horizon goal =
  let stop locs store = Ta.Prop.eval_on net ~locs ~store goal in
  Array.init runs (fun k ->
      let rng = Random.State.make [| seed; k |] in
      snd (Ref.simulate net config rng ~horizon ~stop))

(* Run by run against the reference: the same visited states, end time
   and hit; then the whole hitting-time array of a batch item. *)
let agrees_with_reference ?(config = Stochastic.default_config) ~seed ~runs
    ~horizon net goal =
  let hits = Array.make runs None in
  let runs_agree =
    List.for_all
      (fun k ->
        let t_new = ref 0 and t_ref = ref 0 in
        let r_new =
          run_new net config (Random.State.make [| seed; k |]) ~horizon
            ~stop:(recording_stop t_new net goal)
        in
        let r_ref =
          Ref.simulate net config (Random.State.make [| seed; k |]) ~horizon
            ~stop:(recording_stop t_ref net goal)
        in
        hits.(k) <- snd r_ref;
        r_new = r_ref && !t_new = !t_ref)
      (List.init runs Fun.id)
  in
  let item = Smc.Batch.item ~config ~seed ~runs net { Smc.horizon; goal } in
  runs_agree && Smc.Batch.hitting_times [ item ] = [ hits ]

(* E3 (Fig. 4): train-gate-6, rates 1 + id, one item per train with
   seed 300 + i and 800 runs. The hitting times, printed exactly, are
   pinned by their MD5. *)
let e3_items () =
  let net = Train_gate.make ~n_trains:6 in
  let config = fig4_config net in
  ( net,
    config,
    List.init 6 (fun i ->
        Smc.Batch.item ~config ~seed:(300 + i) ~runs:800 net
          { Smc.horizon = 100.0; goal = Train_gate.cross_formula net i }) )

let counter name = Obs.Metrics.Counter.value (Obs.counter name)

(* [f ()] and how far it moved each named counter. *)
let counting names f =
  let before = List.map counter names in
  let x = f () in
  (x, List.map2 (fun name b -> counter name - b) names before)

let test_golden_e3 () =
  let net, config, items = e3_items () in
  let times, moved =
    counting [ "smc.truncated_runs"; "smc.samples" ] (fun () ->
        Smc.Batch.hitting_times items)
  in
  Alcotest.(check (list int)) "no run truncated, 4800 samples" [ 0; 4800 ] moved;
  let text = String.concat "" (List.map hits_text times) in
  Alcotest.(check int) "bytes" 99_692 (String.length text);
  Alcotest.(check string) "md5" "6c56dd7b1adbc2a2f4233e247db702d0"
    (Digest.to_hex (Digest.string text));
  List.iteri
    (fun i t ->
      check (Printf.sprintf "train %d equals the reference" i) true
        (t
         = ref_times net config ~seed:(300 + i) ~runs:800 ~horizon:100.0
             (Train_gate.cross_formula net i)))
    times

(* Random networks: urgent locations, invariants, binary channels and
   data guards, three seeds each, under non-uniform rates. *)
let test_reference_ta_gen () =
  let config =
    {
      Stochastic.rates =
        (fun a l -> 0.5 +. float_of_int ((a + (2 * l)) mod 3));
    }
  in
  for c = 0 to 299 do
    let spec = Gen.Ta_gen.generate Gen.Rng.(child (make 21) c) in
    let net = Gen.Ta_gen.build spec in
    let goal = Gen.Ta_gen.target_formula spec in
    for s = 0 to 2 do
      if
        not
          (agrees_with_reference ~config ~seed:((3 * c) + s) ~runs:1
             ~horizon:25.0 net goal)
      then Alcotest.failf "case %d seed %d differs from the reference" c s
    done
  done

(* A run that never lets time pass uses up its fuel: 100,000 races,
   booked as not hit and counted as truncated. *)
let test_truncated_runs () =
  let b = Model.builder () in
  let p = Model.automaton b "P" in
  let l = Model.location p "L" ~kind:Model.Urgent in
  Model.edge p ~src:l ~dst:l ();
  let net = Model.build b in
  let times, moved =
    counting [ "smc.truncated_runs"; "smc.steps" ] (fun () ->
        Smc.Batch.hitting_times
          [
            Smc.Batch.item ~runs:2 net
              { Smc.horizon = 10.0; goal = Prop.Not Prop.True };
          ])
  in
  check "not hit" true (times = [ [| None; None |] ]);
  Alcotest.(check (list int)) "truncated runs and their races" [ 2; 200_000 ] moved

(* Time-locked networks: a committed location whose only edge waits
   for x >= 1, and an urgent location whose only edge is a binary
   emission no component is ready to receive. Every run ends in its
   first race, unhit and not truncated. *)
let committed_waiting () =
  let b = Model.builder () in
  let x = Model.fresh_clock b "x" in
  let p = Model.automaton b "P" in
  let a = Model.location p "A" ~kind:Model.Committed in
  let l = Model.location p "B" in
  Model.edge p ~src:a ~dst:l ~clock_guard:[ Model.clock_ge x 1 ] ();
  Model.build b

let urgent_unheard () =
  let b = Model.builder () in
  let c = Model.channel b "c" in
  let p = Model.automaton b "P" in
  let u = Model.location p "U" ~kind:Model.Urgent in
  let l = Model.location p "L" in
  Model.edge p ~src:u ~dst:l ~sync:(Model.Emit c) ();
  let q = Model.automaton b "Q" in
  let q0 = Model.location q "Q0" in
  let q1 = Model.location q "Q1" in
  Model.edge q ~src:q1 ~dst:q0 ~sync:(Model.Receive c) ();
  Model.build b

let test_time_lock_ends_run () =
  List.iter
    (fun (name, net) ->
      let times, moved =
        counting [ "smc.truncated_runs"; "smc.steps" ] (fun () ->
            Smc.Batch.hitting_times
              [
                Smc.Batch.item ~runs:10 net
                  { Smc.horizon = 10.0; goal = Prop.Not Prop.True };
              ])
      in
      check (name ^ ": not hit") true (times = [ Array.make 10 None ]);
      match moved with
      | [ truncated; races ] ->
        Alcotest.(check int) (name ^ ": truncated runs") 0 truncated;
        check (Printf.sprintf "%s: %d races for 10 runs" name races) true
          (races <= 10)
      | _ -> assert false)
    [ ("committed", committed_waiting ()); ("urgent", urgent_unheard ()) ]

(* What Ta_gen never generates: a committed location, an urgent
   channel (emitted from an urgent and from a normal location),
   broadcasts with several receiving components (one with two receiving
   edges), moves whose post-state breaks an invariant (so the pick is
   repeated, by an emitter, a binary receiver and a broadcast), and a
   [Prim] update on such a move, which must not leak into the state the
   repeated pick starts from. *)
let hand_built () =
  let b = Model.builder () in
  let x = Model.fresh_clock b "x" in
  let y = Model.fresh_clock b "y" in
  let z = Model.fresh_clock b "z" in
  let u = Model.channel b ~urgent:true "u" in
  let c = Model.channel b "c" in
  let bc = Model.channel b ~kind:Model.Broadcast "bc" in
  let sb = Model.store b in
  let v = Store.int_var sb "v" in
  let w = Store.int_var sb "w" in
  let q = Store.array_var sb "q" 3 in
  let rotate =
    Model.Prim
      ( "rotate",
        fun store ->
          let o = q.Store.off in
          let first = store.(o) in
          store.(o) <- store.(o + 1) + 1;
          store.(o + 1) <- store.(o + 2);
          store.(o + 2) <- first )
  in
  let incr var = Model.Assign (Expr.Cell var, Expr.Add (Expr.var var, Expr.Int 1)) in
  let a = Model.automaton b "A" in
  let l0 = Model.location a "L0" ~invariant:[ Model.clock_le x 4 ] in
  let l1 = Model.location a "L1" ~invariant:[ Model.clock_le x 2 ] in
  let l2 = Model.location a "L2" ~kind:Model.Committed in
  let l3 = Model.location a "L3" ~kind:Model.Urgent in
  Model.edge a ~src:l0 ~dst:l1 ~clock_guard:[ Model.clock_ge x 1 ]
    ~updates:[ rotate; incr v ] ();
  Model.edge a ~src:l0 ~dst:l2 ~clock_guard:[ Model.clock_ge x 1 ]
    ~updates:[ Model.Reset (x, 0) ] ();
  Model.edge a ~src:l0 ~dst:l3 ~clock_guard:[ Model.clock_ge x 2 ]
    ~sync:(Model.Emit c) ();
  Model.edge a ~src:l0 ~dst:l0
    ~guard:(Expr.Lt (Expr.var v, Expr.Int 4))
    ~sync:(Model.Emit u) ~updates:[ incr v ] ();
  Model.edge a ~src:l1 ~dst:l0 ~sync:(Model.Emit bc)
    ~updates:[ Model.Reset (x, 0) ] ();
  Model.edge a ~src:l1 ~dst:l0 ~clock_guard:[ Model.clock_ge x 2 ]
    ~updates:[ rotate ] ();
  Model.edge a ~src:l2 ~dst:l0 ~updates:[ rotate; incr w ] ();
  Model.edge a ~src:l2 ~dst:l3
    ~guard:(Expr.Eq (Expr.Mod (Expr.var v, Expr.Int 2), Expr.Int 0)) ();
  Model.edge a ~src:l3 ~dst:l0
    ~guard:(Expr.Lt (Expr.var w, Expr.Int 3))
    ~sync:(Model.Emit u) ();
  Model.edge a ~src:l3 ~dst:l0 ~updates:[ Model.Reset (x, 0) ] ();
  let bb = Model.automaton b "B" in
  let m0 = Model.location bb "M0" in
  let m1 = Model.location bb "M1" ~invariant:[ Model.clock_le y 1 ] in
  let m2 = Model.location bb "M2" in
  Model.edge bb ~src:m0 ~dst:m1 ~sync:(Model.Receive c) ~updates:[ incr w ] ();
  Model.edge bb ~src:m0 ~dst:m2 ~sync:(Model.Receive c)
    ~updates:[ Model.Reset (y, 0); rotate ] ();
  Model.edge bb ~src:m0 ~dst:m0 ~sync:(Model.Receive bc) ~updates:[ incr w ] ();
  Model.edge bb ~src:m0 ~dst:m1 ~sync:(Model.Receive bc) ();
  Model.edge bb ~src:m1 ~dst:m0 ~clock_guard:[ Model.clock_ge y 1 ] ();
  Model.edge bb ~src:m2 ~dst:m0 ~sync:(Model.Receive u)
    ~updates:[ Model.Reset (y, 0) ] ();
  Model.edge bb ~src:m2 ~dst:m0 ~clock_guard:[ Model.clock_ge y 3 ]
    ~updates:[ Model.Reset (y, 0) ] ();
  let cc = Model.automaton b "C" in
  let n0 = Model.location cc "N0" in
  let n1 = Model.location cc "N1" ~invariant:[ Model.clock_le z 3 ] in
  Model.edge cc ~src:n0 ~dst:n1 ~sync:(Model.Receive bc) ();
  Model.edge cc ~src:n0 ~dst:n0 ~sync:(Model.Receive bc) ~updates:[ rotate ] ();
  Model.edge cc ~src:n0 ~dst:n0 ~clock_guard:[ Model.clock_ge z 2 ]
    ~sync:(Model.Emit bc) ~updates:[ Model.Reset (z, 0) ] ();
  Model.edge cc ~src:n1 ~dst:n0 ~clock_guard:[ Model.clock_ge z 1 ]
    ~updates:[ Model.Reset (z, 0) ] ();
  Model.edge cc ~src:n1 ~dst:n1 ~sync:(Model.Receive u) ~updates:[ incr v ] ();
  (Model.build b, w)

let test_reference_hand_built () =
  let net, w = hand_built () in
  let config =
    { Stochastic.rates = (fun a l -> 1.0 +. float_of_int (a + l)) }
  in
  List.iter
    (fun (name, goal) ->
      for seed = 0 to 39 do
        if
          not
            (agrees_with_reference ~config ~seed ~runs:10 ~horizon:40.0 net goal)
        then Alcotest.failf "goal %s, seed %d differs from the reference" name seed
      done)
    [
      ("B.M2", Prop.loc net "B" "M2");
      ("w >= 6", Prop.Data (Expr.Ge (Expr.var w, Expr.Int 6)));
      ("never", Prop.Not Prop.True);
    ]

(* Train-gate (committed Stopping, urgent go, the dequeue [Prim]) and
   fischer (data guards on the shared id) against the reference. *)
let test_reference_case_studies () =
  let tg = Train_gate.make ~n_trains:3 in
  let fi = Ta.Fischer.make ~n:3 () in
  for seed = 0 to 9 do
    check "train-gate-3" true
      (agrees_with_reference ~config:(fig4_config tg) ~seed ~runs:10
         ~horizon:100.0 tg (Train_gate.cross_formula tg 2));
    check "fischer-3" true
      (agrees_with_reference ~seed ~runs:10 ~horizon:50.0 fi
         (Prop.loc fi "P1" "cs"))
  done

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
      ( "reference",
        [
          Alcotest.test_case "E3 hitting times golden" `Quick test_golden_e3;
          Alcotest.test_case "truncated runs" `Quick test_truncated_runs;
          Alcotest.test_case "time-locked runs end" `Quick test_time_lock_ends_run;
          Alcotest.test_case "random networks" `Quick test_reference_ta_gen;
          Alcotest.test_case "hand-built network" `Quick
            test_reference_hand_built;
          Alcotest.test_case "train-gate and fischer" `Quick
            test_reference_case_studies;
        ] );
    ]
