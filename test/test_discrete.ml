(* Tests for the digital-clocks substrate, priced reachability (CORA) and
   timed games (TIGA), including cross-validation of the digital engine
   against the zone engine on the train-gate model. *)

module Model = Ta.Model
module Expr = Ta.Expr
module Store = Ta.Store
module Checker = Ta.Checker
module Zone_graph = Ta.Zone_graph
module Train_gate = Ta.Train_gate
module Digital = Discrete.Digital

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* Digital semantics                                                   *)
(* ------------------------------------------------------------------ *)

let test_rejects_strict () =
  let b = Model.builder () in
  let x = Model.fresh_clock b "x" in
  let p = Model.automaton b "P" in
  let l0 = Model.location p "A" in
  let l1 = Model.location p "B" in
  Model.edge p ~src:l0 ~dst:l1 ~clock_guard:[ Model.clock_gt x 1 ] ();
  let net = Model.build b in
  check "strict model detected" false (Digital.is_closed net);
  try
    ignore (Digital.initial net);
    Alcotest.fail "expected Invalid_argument"
  with Invalid_argument _ -> ()

(* The all-zero valuation breaks the initial invariant [x >= 1]: no run
   can start, so the digital substrate must refuse the model as the zone
   engine does, not explore from the broken state. *)
let test_rejects_broken_initial_invariant () =
  let b = Model.builder () in
  let x = Model.fresh_clock b "x" in
  let p = Model.automaton b "P" in
  let l0 = Model.location p "A" ~invariant:[ Model.clock_ge x 1 ] in
  let l1 = Model.location p "B" in
  Model.edge p ~src:l0 ~dst:l1 ~clock_guard:[ Model.clock_ge x 2 ] ();
  let net = Model.build b in
  check "closed" true (Digital.is_closed net);
  let raises what f =
    match f () with
    | _ -> Alcotest.failf "%s: expected Invalid_argument" what
    | exception Invalid_argument _ -> ()
  in
  raises "Zone_graph.initial" (fun () ->
      ignore (Zone_graph.initial net ~extra:Zones.Dbm.No_extrapolation));
  raises "Digital.initial" (fun () -> ignore (Digital.initial net));
  let at_b (st : Digital.dstate) = st.Digital.dlocs.(0) = l1 in
  raises "Games.solve" (fun () -> ignore (Games.solve net (Games.Reach at_b)));
  raises "Priced.min_cost_reach" (fun () ->
      ignore (Priced.min_cost_reach net Priced.free ~target:at_b))

let discrete_key_set keys =
  let tbl = Hashtbl.create 256 in
  List.iter (fun k -> Hashtbl.replace tbl k ()) keys;
  tbl

let test_cross_validation () =
  (* The reachable (locations, store) sets of the zone engine and the
     digital engine must coincide on closed diagonal-free models. *)
  let net = Train_gate.make ~n_trains:2 in
  let zone_keys =
    discrete_key_set
      (List.map Zone_graph.discrete_key (Checker.reachable_states net))
  in
  let digital_keys = Digital.discrete_parts (Digital.explore net) in
  let subset a b missing =
    Hashtbl.iter
      (fun k () -> if not (Hashtbl.mem b k) then incr missing)
      a
  in
  let missing_in_digital = ref 0 and missing_in_zone = ref 0 in
  subset zone_keys digital_keys missing_in_digital;
  subset digital_keys zone_keys missing_in_zone;
  check_int "zone keys all in digital" 0 !missing_in_digital;
  check_int "digital keys all in zone" 0 !missing_in_zone;
  check "nontrivial state space" true (Hashtbl.length zone_keys > 20)

let test_digital_delay_saturation () =
  let b = Model.builder () in
  let x = Model.fresh_clock b "x" in
  let p = Model.automaton b "P" in
  let l0 = Model.location p "A" in
  let l1 = Model.location p "B" in
  Model.edge p ~src:l0 ~dst:l1 ~clock_guard:[ Model.clock_ge x 3 ] ();
  let net = Model.build b in
  let g = Digital.explore net in
  (* Clock saturates at max_const + 1 = 4, so states are finite. *)
  check "finite graph" true (Array.length g.Digital.states <= 10);
  let has_b =
    Array.exists (fun st -> st.Digital.dlocs.(0) = l1) g.Digital.states
  in
  check "B reached" true has_b

(* Random closed diagonal-free networks: the zone engine and the digital
   engine must agree on the reachable discrete parts. With [random_ctrl]
   every edge also draws its controllability, for the game tests. *)
let random_closed_net ?(random_ctrl = false) rng =
  let n_autos = 1 + Random.State.int rng 2 in
  let b = Model.builder () in
  let chan = if n_autos = 2 then Some (Model.channel b "c") else None in
  for a = 0 to n_autos - 1 do
    let x = Model.fresh_clock b (Printf.sprintf "x%d" a) in
    let pa = Model.automaton b (Printf.sprintf "P%d" a) in
    let n_locs = 2 + Random.State.int rng 2 in
    let locs =
      Array.init n_locs (fun l ->
          let invariant =
            if Random.State.int rng 3 = 0 then
              [ Model.clock_le x (1 + Random.State.int rng 3) ]
            else []
          in
          Model.location pa (Printf.sprintf "l%d" l) ~invariant)
    in
    let n_edges = 1 + Random.State.int rng 4 in
    for _ = 1 to n_edges do
      let src = locs.(Random.State.int rng n_locs) in
      let dst = locs.(Random.State.int rng n_locs) in
      let clock_guard =
        List.concat
          [
            (if Random.State.bool rng then
               [ Model.clock_ge x (Random.State.int rng 4) ]
             else []);
            (if Random.State.int rng 3 = 0 then
               [ Model.clock_le x (1 + Random.State.int rng 3) ]
             else []);
          ]
      in
      let updates =
        if Random.State.bool rng then [ Model.Reset (x, 0) ] else []
      in
      let sync =
        match chan with
        | Some c when Random.State.int rng 3 = 0 ->
          if a = 0 then Model.Emit c else Model.Receive c
        | Some _ | None -> Model.Tau
      in
      let ctrl = (not random_ctrl) || Random.State.bool rng in
      Model.edge pa ~src ~dst ~clock_guard ~updates ~sync ~ctrl ()
    done
  done;
  Model.build b

let prop_random_cross_validation =
  QCheck.Test.make ~name:"random TA: zone and digital engines agree"
    ~count:150
    (QCheck.make
       QCheck.Gen.(
         map
           (fun seed -> random_closed_net (Random.State.make [| seed |]))
           (int_bound 1_000_000))
       ~print:(fun net ->
         Printf.sprintf "net with %d automata" (Array.length net.Model.automata)))
    (fun net ->
      let zone_keys =
        discrete_key_set
          (List.map Zone_graph.discrete_key (Checker.reachable_states net))
      in
      let digital_keys = Digital.discrete_parts (Digital.explore net) in
      Hashtbl.length zone_keys = Hashtbl.length digital_keys
      && Hashtbl.fold
           (fun k () acc -> acc && Hashtbl.mem digital_keys k)
           zone_keys true)

(* ------------------------------------------------------------------ *)
(* Graph id contract                                                   *)
(* ------------------------------------------------------------------ *)

(* Moves built for different states are different records: compare
   labels and participants (the model's edges, physically). *)
let same_kind (a : Digital.kind) (b : Digital.kind) =
  match (a, b) with
  | `Delay, `Delay -> true
  | `Act mv, `Act mv' ->
    let ps = mv.Zone_graph.participants and ps' = mv'.Zone_graph.participants in
    mv.Zone_graph.mv_label = mv'.Zone_graph.mv_label
    && List.length ps = List.length ps'
    && List.for_all2 (fun (i, e) (i', e') -> i = i' && e == e') ps ps'
  | `Delay, `Act _ | `Act _, `Delay -> false

(* Id 0 is the initial state, and state [i]'s edges are, in order, the
   transitions [Digital.successors] lists for it, each target id naming
   a state that packs like the transition's target. *)
let check_id_contract ~what net (g : Digital.graph) =
  let _, pack = Digital.codec net in
  let fail fmt = Printf.ksprintf (fun m -> Alcotest.failf "%s: %s" what m) fmt in
  let n = Array.length g.Digital.states in
  if g.Digital.states.(0) <> Digital.initial net then
    fail "state 0 is not the initial state";
  if Array.length g.Digital.offsets <> n + 1 || g.Digital.offsets.(0) <> 0 then
    fail "offsets do not cover %d states" n;
  let m = g.Digital.offsets.(n) in
  if
    Array.length g.Digital.targets <> m
    || Array.length g.Digital.kinds <> m
    || Array.length g.Digital.ctrls <> m
  then fail "edge arrays are not %d long" m;
  Array.iteri
    (fun i st ->
      let first = g.Digital.offsets.(i) in
      let succs = Digital.successors net st in
      if List.length succs <> g.Digital.offsets.(i + 1) - first then
        fail "state %d: %d edges, %d successors" i
          (g.Digital.offsets.(i + 1) - first)
          (List.length succs);
      List.iteri
        (fun j (t : Digital.dtrans) ->
          let e = first + j in
          if not (same_kind g.Digital.kinds.(e) t.Digital.kind) then
            fail "state %d, edge %d: kind" i j;
          if g.Digital.ctrls.(e) <> t.Digital.tr_ctrl then
            fail "state %d, edge %d: controllability" i j;
          let target = g.Digital.states.(g.Digital.targets.(e)) in
          if not (Engine.Codec.equal (pack target) (pack t.Digital.target)) then
            fail "state %d, edge %d: target id %d" i j g.Digital.targets.(e))
        succs)
    g.Digital.states

let same_graph (a : Digital.graph) (b : Digital.graph) =
  a.Digital.states = b.Digital.states
  && a.Digital.offsets = b.Digital.offsets
  && a.Digital.targets = b.Digital.targets
  && a.Digital.ctrls = b.Digital.ctrls
  && Array.length a.Digital.kinds = Array.length b.Digital.kinds
  && Array.for_all2 same_kind a.Digital.kinds b.Digital.kinds

let check_ids_all_jobs ~what net =
  let g = Digital.explore net in
  check_id_contract ~what net g;
  let g1 = Digital.explore ~jobs:1 net and g4 = Digital.explore ~jobs:4 net in
  check_id_contract ~what:(what ^ ", jobs 1") net g1;
  check_id_contract ~what:(what ^ ", jobs 4") net g4;
  check (what ^ ": jobs 1 and jobs 4 graphs identical") true (same_graph g1 g4)

let test_id_contract_models () =
  check_ids_all_jobs ~what:"train-gate-2" (Train_gate.make ~n_trains:2);
  check_ids_all_jobs ~what:"2-train game" (Games.Train_game.make ~n_trains:2 ())

let test_id_contract_random () =
  for seed = 1 to 50 do
    let net = random_closed_net ~random_ctrl:true (Random.State.make [| seed |]) in
    check_ids_all_jobs ~what:(Printf.sprintf "seed %d" seed) net
  done

(* ------------------------------------------------------------------ *)
(* Priced (CORA)                                                       *)
(* ------------------------------------------------------------------ *)

(* A (rate r) --[x>=2, cost k]--> B. Min cost = 2r + k. *)
let priced_line ~rate ~edge_cost =
  let b = Model.builder () in
  let x = Model.fresh_clock b "x" in
  let p = Model.automaton b "P" in
  let l0 = Model.location p "A" in
  let l1 = Model.location p "B" in
  Model.edge p ~src:l0 ~dst:l1 ~clock_guard:[ Model.clock_ge x 2 ] ();
  let net = Model.build b in
  let cm =
    {
      Priced.loc_rate = (fun _ l -> if l = l0 then rate else 0);
      Priced.move_cost = (fun _ -> edge_cost);
    }
  in
  let target (st : Digital.dstate) = st.Digital.dlocs.(0) = l1 in
  (net, cm, target)

let test_min_cost_line () =
  let net, cm, target = priced_line ~rate:3 ~edge_cost:5 in
  match Priced.min_cost_reach net cm ~target with
  | Some o ->
    check_int "2*3+5" 11 o.Priced.cost;
    check_int "steps: two delays + edge" 3 (List.length o.Priced.steps)
  | None -> Alcotest.fail "target unreachable"

let test_min_cost_chooses_cheaper () =
  (* Two routes to B: wait 2 at rate 3 (cost 6), or an immediate edge of
     cost 100: Dijkstra must take the wait. *)
  let b = Model.builder () in
  let x = Model.fresh_clock b "x" in
  let p = Model.automaton b "P" in
  let l0 = Model.location p "A" in
  let l1 = Model.location p "B" in
  Model.edge p ~src:l0 ~dst:l1 ~clock_guard:[ Model.clock_ge x 2 ] ();
  Model.edge p ~src:l0 ~dst:l1 ~guard:(Expr.Int 1) ();
  let net = Model.build b in
  let cm =
    {
      Priced.loc_rate = (fun _ l -> if l = l0 then 3 else 0);
      Priced.move_cost =
        (fun mv ->
          (* the expensive edge is the one with a data guard *)
          let (_, e) = List.hd mv.Zone_graph.participants in
          if e.Model.data_guard <> None then 100 else 0);
    }
  in
  let target (st : Digital.dstate) = st.Digital.dlocs.(0) = l1 in
  match Priced.min_cost_reach net cm ~target with
  | Some o -> check_int "cheap route" 6 o.Priced.cost
  | None -> Alcotest.fail "unreachable"

let test_min_time_train_gate () =
  let net = Train_gate.make ~n_trains:2 in
  let cross = Model.loc_index net 0 "Cross" in
  let target (st : Digital.dstate) = st.Digital.dlocs.(0) = cross in
  match Priced.min_time_reach net ~target with
  | Some o -> check_int "fastest crossing at x=10" 10 o.Priced.cost
  | None -> Alcotest.fail "unreachable"

(* WCET-style: basic blocks with bounded duration; worst case = sum of
   upper bounds along the longest branch. *)
let test_max_cost_wcet () =
  let b = Model.builder () in
  let x = Model.fresh_clock b "x" in
  let p = Model.automaton b "P" in
  let entry = Model.location p "entry" ~invariant:[ Model.clock_le x 2 ] in
  let fast = Model.location p "fast" ~invariant:[ Model.clock_le x 3 ] in
  let slow = Model.location p "slow" ~invariant:[ Model.clock_le x 7 ] in
  let exit_l = Model.location p "exit" in
  Model.edge p ~src:entry ~dst:fast ~clock_guard:[ Model.clock_ge x 1 ]
    ~updates:[ Model.Reset (x, 0) ] ();
  Model.edge p ~src:entry ~dst:slow ~clock_guard:[ Model.clock_ge x 1 ]
    ~updates:[ Model.Reset (x, 0) ] ();
  Model.edge p ~src:fast ~dst:exit_l ~clock_guard:[ Model.clock_ge x 1 ] ();
  Model.edge p ~src:slow ~dst:exit_l ~clock_guard:[ Model.clock_ge x 2 ] ();
  let net = Model.build b in
  let cm = { Priced.free with Priced.loc_rate = (fun a _ -> if a = 0 then 1 else 0) } in
  let target (st : Digital.dstate) = st.Digital.dlocs.(0) = exit_l in
  (match Priced.max_cost_reach net cm ~target with
   | `Cost (c, _) -> check_int "WCET = 2 + 7" 9 c
   | `Unbounded -> Alcotest.fail "unexpected unbounded"
   | `Unreachable -> Alcotest.fail "unexpected unreachable");
  (* Min time = 1 + 1 (entry then fast branch). *)
  match Priced.min_time_reach net ~target with
  | Some o -> check_int "BCET = 2" 2 o.Priced.cost
  | None -> Alcotest.fail "unreachable"

let test_max_cost_unbounded () =
  (* A positive-rate loop that can defer the target forever. *)
  let b = Model.builder () in
  let x = Model.fresh_clock b "x" in
  let p = Model.automaton b "P" in
  let l0 = Model.location p "A" in
  let l1 = Model.location p "B" in
  Model.edge p ~src:l0 ~dst:l0 ~clock_guard:[ Model.clock_ge x 1 ]
    ~updates:[ Model.Reset (x, 0) ] ();
  Model.edge p ~src:l0 ~dst:l1 ();
  let net = Model.build b in
  let cm = { Priced.free with Priced.loc_rate = (fun a _ -> if a = 0 then 1 else 0) } in
  let target (st : Digital.dstate) = st.Digital.dlocs.(0) = l1 in
  match Priced.max_cost_reach net cm ~target with
  | `Unbounded -> ()
  | `Cost _ | `Unreachable -> Alcotest.fail "expected unbounded WCET"


(* ------------------------------------------------------------------ *)
(* Job-shop scheduling (CORA's optimization application)               *)
(* ------------------------------------------------------------------ *)

module Jobshop = Priced.Jobshop

let test_jobshop_single_job () =
  (* One job, durations sum. *)
  let inst = { Jobshop.machines = 2; jobs = [ [ (0, 2); (1, 3) ] ] } in
  match Jobshop.optimal inst with
  | Some s -> check_int "sum of durations" 5 s.Jobshop.makespan
  | None -> Alcotest.fail "infeasible"

let test_jobshop_parallel () =
  (* Two independent jobs on different machines run in parallel. *)
  let inst = { Jobshop.machines = 2; jobs = [ [ (0, 4) ]; [ (1, 3) ] ] } in
  match Jobshop.optimal inst with
  | Some s -> check_int "max of durations" 4 s.Jobshop.makespan
  | None -> Alcotest.fail "infeasible"

let test_jobshop_contention () =
  (* Known-optimal instance: machine 1's total load of 5 is the bound and
     a 5-makespan schedule exists. *)
  let inst =
    { Jobshop.machines = 2; jobs = [ [ (0, 2); (1, 2) ]; [ (1, 3); (0, 1) ] ] }
  in
  check_int "lower bound" 5 (Jobshop.makespan_lower_bound inst);
  match Jobshop.optimal inst with
  | Some s ->
    check_int "optimal makespan" 5 s.Jobshop.makespan;
    check "schedule steps recorded" true (List.length s.Jobshop.steps > 0)
  | None -> Alcotest.fail "infeasible"

let test_jobshop_exclusive () =
  (* Same machine serialises: two 3-unit tasks on one machine take 6. *)
  let inst = { Jobshop.machines = 1; jobs = [ [ (0, 3) ]; [ (0, 3) ] ] } in
  match Jobshop.optimal inst with
  | Some s -> check_int "serialised" 6 s.Jobshop.makespan
  | None -> Alcotest.fail "infeasible"

let test_jobshop_respects_bound () =
  (* The optimum never undercuts the admissible lower bound. *)
  List.iter
    (fun inst ->
      match Jobshop.optimal inst with
      | Some s ->
        check "optimum >= lower bound" true
          (s.Jobshop.makespan >= Jobshop.makespan_lower_bound inst)
      | None -> Alcotest.fail "infeasible")
    [
      { Jobshop.machines = 2; jobs = [ [ (0, 1); (1, 2) ]; [ (1, 1); (0, 2) ] ] };
      { Jobshop.machines = 3; jobs = [ [ (0, 2); (2, 1) ]; [ (1, 2) ]; [ (2, 2); (0, 1) ] ] };
    ]

let test_jobshop_validation () =
  (try
     ignore (Jobshop.optimal { Jobshop.machines = 1; jobs = [ [ (5, 1) ] ] });
     Alcotest.fail "expected bad machine"
   with Invalid_argument _ -> ());
  try
    ignore (Jobshop.optimal { Jobshop.machines = 1; jobs = [ [ (0, 0) ] ] });
    Alcotest.fail "expected bad duration"
  with Invalid_argument _ -> ()

(* ------------------------------------------------------------------ *)
(* Games (TIGA)                                                        *)
(* ------------------------------------------------------------------ *)

(* Tiny game: env owns an edge to Bad; controller cannot win safety. If
   the same edge is controllable instead, the controller just never takes
   it and wins. *)
let tiny_game ~env_owns_bad =
  let b = Model.builder () in
  let p = Model.automaton b "P" in
  let good = Model.location p "Good" in
  let bad = Model.location p "Bad" in
  Model.edge p ~src:good ~dst:bad ~ctrl:(not env_owns_bad) ();
  let net = Model.build b in
  let safe (st : Digital.dstate) = st.Digital.dlocs.(0) = good in
  (net, safe)

let test_tiny_safety_game () =
  let net, safe = tiny_game ~env_owns_bad:true in
  let s = Games.solve net (Games.Safety safe) in
  check "env-owned bad edge loses" false s.Games.initial_winning;
  let net2, safe2 = tiny_game ~env_owns_bad:false in
  let s2 = Games.solve net2 (Games.Safety safe2) in
  check "ctrl-owned bad edge wins" true s2.Games.initial_winning;
  check "closed loop avoids bad" true (Games.closed_loop_safe s2 ~safe:safe2)

let test_tiny_reach_game () =
  (* Controller owns the edge to the target: wins reachability. *)
  let b = Model.builder () in
  let x = Model.fresh_clock b "x" in
  let p = Model.automaton b "P" in
  let a = Model.location p "A" ~invariant:[ Model.clock_le x 3 ] in
  let g = Model.location p "G" in
  Model.edge p ~src:a ~dst:g ~clock_guard:[ Model.clock_ge x 1 ] ();
  let net = Model.build b in
  let target (st : Digital.dstate) = st.Digital.dlocs.(0) = g in
  let s = Games.solve net (Games.Reach target) in
  check "reach winnable" true s.Games.initial_winning;
  check "closed loop reaches" true (Games.closed_loop_reaches s ~target)

let test_tiny_reach_env_blocks () =
  (* Only the environment can move to the target: conservative semantics
     says the controller cannot force it (env may idle forever: location
     has no invariant). *)
  let b = Model.builder () in
  let p = Model.automaton b "P" in
  let a = Model.location p "A" in
  let g = Model.location p "G" in
  Model.edge p ~src:a ~dst:g ~ctrl:false ();
  let net = Model.build b in
  let target (st : Digital.dstate) = st.Digital.dlocs.(0) = g in
  let s = Games.solve net (Games.Reach target) in
  check "env-owned target not forceable" false s.Games.initial_winning

let test_train_game_safety () =
  let net = Games.Train_game.make ~n_trains:2 () in
  let safe = Games.Train_game.safe net in
  (* Without control, the raw game graph contains unsafe states. *)
  let g = Digital.explore net in
  let unsafe_reachable =
    Array.exists (fun st -> not (safe st)) g.Digital.states
  in
  check "uncontrolled game can collide" true unsafe_reachable;
  (* TIGA synthesis: the controller wins and the closed loop is safe. *)
  let s = Games.solve net (Games.Safety safe) in
  check "synthesis succeeds" true s.Games.initial_winning;
  check "closed loop safe" true (Games.closed_loop_safe s ~safe);
  check "winning region nontrivial" true
    (Games.winning_count s > 0
     && Games.winning_count s < Array.length s.Games.graph.Digital.states)

let test_train_game_reach () =
  let net = Games.Train_game.make ~n_trains:2 () in
  let target = Games.Train_game.all_crossed_once net in
  let s = Games.solve net (Games.Reach target) in
  check "all-cross objective winnable" true s.Games.initial_winning;
  check "closed loop reaches" true (Games.closed_loop_reaches s ~target)

(* ------------------------------------------------------------------ *)
(* E2 golden values                                                    *)
(* ------------------------------------------------------------------ *)

let edge_count (g : Digital.graph) = Array.length g.Digital.targets

(* MD5 over the strategy table in state-id order: the delay or the
   chosen move's label per entry. *)
let strategy_md5 (s : Games.solution) =
  let b = Buffer.create 65536 in
  for i = 0 to Array.length s.Games.winning - 1 do
    match Hashtbl.find_opt s.Games.strategy i with
    | None -> ()
    | Some `Delay -> Printf.bprintf b "%d delay\n" i
    | Some (`Move mv) -> Printf.bprintf b "%d %s\n" i mv.Zone_graph.mv_label
  done;
  Digest.to_hex (Digest.string (Buffer.contents b))

let check_golden ~states ~edges ~winning ~entries ~md5 ~closed_loop s =
  check_int "states" states (Array.length s.Games.graph.Digital.states);
  check_int "edges" edges (edge_count s.Games.graph);
  check_int "winning" winning (Games.winning_count s);
  check "initial winning" true s.Games.initial_winning;
  check_int "strategy entries" entries (Hashtbl.length s.Games.strategy);
  Alcotest.(check string) "strategy md5" md5 (strategy_md5 s);
  check "closed loop" true closed_loop

let test_e2_golden_safety2 () =
  let net = Games.Train_game.make ~n_trains:2 () in
  let safe = Games.Train_game.safe net in
  let s = Games.solve net (Games.Safety safe) in
  check_golden ~states:28_330 ~edges:77_473 ~winning:24_902 ~entries:24_230
    ~md5:"78efc713e21c67046a8e3969bfd2cf1a" ~closed_loop:(Games.closed_loop_safe s ~safe) s

let test_e2_golden_reach2 () =
  let net = Games.Train_game.make ~n_trains:2 () in
  let target = Games.Train_game.all_crossed_once net in
  let s = Games.solve net (Games.Reach target) in
  check_golden ~states:28_330 ~edges:77_473 ~winning:28_330 ~entries:27_163
    ~md5:"8adb10671f542c8f46627c9698daf247" ~closed_loop:(Games.closed_loop_reaches s ~target) s

(* ------------------------------------------------------------------ *)
(* Reference game solver                                               *)
(* ------------------------------------------------------------------ *)

(* The list-based solver the id-based one replaced, kept as an oracle.
   Its edges are rebuilt with [Digital.successors] and their target ids
   found by packing with [Digital.codec]; it shares no graph code with
   [Games]. *)
module Reference_game = struct
  type split = {
    u : (int * Digital.dtrans) list;
    c : (int * Digital.dtrans) list;
    delay : (int * Digital.dtrans) option;
  }

  (* Per-state transitions over the ids of [states]. *)
  let transitions net states =
    let _, pack = Digital.codec net in
    let index = Engine.Codec.Tbl.create (2 * Array.length states) in
    Array.iteri (fun i st -> Engine.Codec.Tbl.replace index (pack st) i) states;
    let id_of st = Engine.Codec.Tbl.find index (pack st) in
    (Array.map (Digital.successors net) states, id_of)

  let split_transitions (transitions, id_of) =
    Array.map
      (fun ts ->
        List.fold_left
          (fun acc t ->
            let tid = id_of t.Digital.target in
            match t.Digital.kind with
            | `Delay -> { acc with delay = Some (tid, t) }
            | `Act _ ->
              if t.Digital.tr_ctrl then { acc with c = (tid, t) :: acc.c }
              else { acc with u = (tid, t) :: acc.u })
          { u = []; c = []; delay = None }
          ts)
      transitions

  let action_of (t : Digital.dtrans) : Games.action =
    match t.Digital.kind with `Delay -> `Delay | `Act mv -> `Move mv

  let solve_reach states edges target =
    let n = Array.length states in
    let split = split_transitions edges in
    let preds_u = Array.make n [] and preds_c = Array.make n [] in
    let preds_d = Array.make n [] in
    Array.iteri
      (fun i s ->
        List.iter (fun (tid, _) -> preds_u.(tid) <- i :: preds_u.(tid)) s.u;
        List.iter (fun (tid, t) -> preds_c.(tid) <- (i, t) :: preds_c.(tid)) s.c;
        match s.delay with
        | Some (tid, t) -> preds_d.(tid) <- (i, t) :: preds_d.(tid)
        | None -> ())
      split;
    let winning = Array.make n false in
    let u_pending = Array.map (fun s -> List.length s.u) split in
    let ctrl_choice : (int, Games.action) Hashtbl.t = Hashtbl.create 1024 in
    let queue = Queue.create () in
    let try_win i =
      if not winning.(i) then begin
        let s = split.(i) in
        let env_forced = s.delay = None && s.u <> [] && u_pending.(i) = 0 in
        if u_pending.(i) = 0 && (Hashtbl.mem ctrl_choice i || env_forced)
        then begin
          winning.(i) <- true;
          Queue.push i queue
        end
      end
    in
    Array.iteri
      (fun i st ->
        if target st then begin
          winning.(i) <- true;
          Queue.push i queue
        end)
      states;
    while not (Queue.is_empty queue) do
      let t = Queue.pop queue in
      List.iter
        (fun p ->
          u_pending.(p) <- u_pending.(p) - 1;
          try_win p)
        preds_u.(t);
      List.iter
        (fun (p, tr) ->
          if not (Hashtbl.mem ctrl_choice p) then
            Hashtbl.replace ctrl_choice p (action_of tr);
          try_win p)
        (preds_c.(t) @ preds_d.(t))
    done;
    (winning, ctrl_choice)

  let solve_safety states edges safe =
    let n = Array.length states in
    let split = split_transitions edges in
    let preds_u = Array.make n [] and preds_c = Array.make n [] in
    let preds_d = Array.make n [] in
    Array.iteri
      (fun i s ->
        List.iter (fun (tid, _) -> preds_u.(tid) <- i :: preds_u.(tid)) s.u;
        List.iter (fun (tid, _) -> preds_c.(tid) <- i :: preds_c.(tid)) s.c;
        match s.delay with
        | Some (tid, _) -> preds_d.(tid) <- i :: preds_d.(tid)
        | None -> ())
      split;
    let kept = Array.make n true in
    let c_alive = Array.map (fun s -> List.length s.c) split in
    let delay_alive = Array.map (fun s -> s.delay <> None) split in
    let has_delay = Array.map (fun s -> s.delay <> None) split in
    let queue = Queue.create () in
    let ok i =
      let can_wait = (not has_delay.(i)) || delay_alive.(i) in
      can_wait || c_alive.(i) > 0
    in
    let drop i =
      if kept.(i) then begin
        kept.(i) <- false;
        Queue.push i queue
      end
    in
    Array.iteri (fun i st -> if not (safe st) then drop i) states;
    for i = 0 to n - 1 do
      if kept.(i) && not (ok i) then drop i
    done;
    while not (Queue.is_empty queue) do
      let t = Queue.pop queue in
      List.iter drop preds_u.(t);
      List.iter
        (fun p ->
          c_alive.(p) <- c_alive.(p) - 1;
          if kept.(p) && not (ok p) then drop p)
        preds_c.(t);
      List.iter
        (fun p ->
          delay_alive.(p) <- false;
          if kept.(p) && not (ok p) then drop p)
        preds_d.(t)
    done;
    let strategy = Hashtbl.create 1024 in
    Array.iteri
      (fun i s ->
        if kept.(i) then begin
          match List.find_opt (fun (tid, _) -> kept.(tid)) s.c with
          | Some (_, tr) -> Hashtbl.replace strategy i (action_of tr)
          | None -> (
              match s.delay with
              | Some (tid, tr) when kept.(tid) ->
                Hashtbl.replace strategy i (action_of tr)
              | Some _ | None -> ())
        end)
      split;
    (kept, strategy)
end

(* The kinds of state [i]'s edges in [g], in edge order. *)
let graph_kinds (g : Digital.graph) i =
  let first = g.Digital.offsets.(i) in
  List.init (g.Digital.offsets.(i + 1) - first) (fun j ->
      g.Digital.kinds.(first + j))

(* Position of a strategy choice in a state's edge-kind list: the delay,
   or the move itself (moves are compared physically, as the closed
   loop does). *)
let choice_position kinds (a : Games.action) =
  let rec find k = function
    | [] -> -1
    | kind :: rest -> (
        match (kind, a) with
        | `Delay, `Delay -> k
        | `Act mv, `Move mv' when mv == mv' -> k
        | _ -> find (k + 1) rest)
  in
  find 0 kinds

(* [s] must agree with the reference solver on [objective]: the same
   winning array and, per state, a strategy entry at the same edge
   position. *)
let agrees_with_reference ~what net objective (s : Games.solution) =
  let states = s.Games.graph.Digital.states in
  let edges = Reference_game.transitions net states in
  let winning, strategy =
    match objective with
    | Games.Safety safe -> Reference_game.solve_safety states edges safe
    | Games.Reach target -> Reference_game.solve_reach states edges target
  in
  let fail i fmt =
    Printf.ksprintf (fun m -> Alcotest.failf "%s, state %d: %s" what i m) fmt
  in
  if winning <> s.Games.winning then
    Alcotest.failf "%s: winning arrays differ" what;
  let ref_kinds = Array.map (List.map (fun t -> t.Digital.kind)) (fst edges) in
  Array.iteri
    (fun i _ ->
      match (Hashtbl.find_opt strategy i, Hashtbl.find_opt s.Games.strategy i)
      with
      | None, None -> ()
      | Some a, Some a' ->
        let p = choice_position ref_kinds.(i) a in
        let p' = choice_position (graph_kinds s.Games.graph i) a' in
        if p < 0 || p <> p' then fail i "choice at edge %d vs %d" p p'
      | Some _, None -> fail i "reference has a choice, solver none"
      | None, Some _ -> fail i "solver has a choice, reference none")
    states

let test_reference_train_games () =
  let games =
    [
      ("2-train", Games.Train_game.make ~n_trains:2 ());
      ("3-train compact", Games.Train_game.make ~constants:`Compact ~n_trains:3 ());
    ]
  in
  List.iter
    (fun (name, net) ->
      let safety = Games.Safety (Games.Train_game.safe net) in
      agrees_with_reference ~what:(name ^ " safety") net safety
        (Games.solve net safety))
    games;
  let net = Games.Train_game.make ~n_trains:2 () in
  let reach = Games.Reach (Games.Train_game.all_crossed_once net) in
  agrees_with_reference ~what:"2-train reach" net reach (Games.solve net reach)

(* Random closed networks with a random controllability flag per edge;
   both objectives on a location of automaton 0 drawn per network. *)
let test_reference_random_games () =
  for seed = 1 to 150 do
    let rng = Random.State.make [| seed |] in
    let net = random_closed_net ~random_ctrl:true rng in
    let n_locs = Array.length net.Model.automata.(0).Model.locations in
    let l = Random.State.int rng n_locs in
    let at_l (st : Digital.dstate) = st.Digital.dlocs.(0) = l in
    List.iter
      (fun (name, objective) ->
        let what = Printf.sprintf "seed %d %s" seed name in
        agrees_with_reference ~what net objective (Games.solve net objective))
      [
        ("safety", Games.Safety (fun st -> not (at_l st)));
        ("reach", Games.Reach at_l);
      ]
  done

let test_e2_golden_safety3 () =
  let net = Games.Train_game.make ~constants:`Compact ~n_trains:3 () in
  (* The game graph's moves are the sync index's shared records; a fresh
     move per edge took 111.1M minor words. *)
  let before = Gc.minor_words () in
  let g = Digital.explore net in
  let words = Gc.minor_words () -. before in
  check_int "explored states" 105_527 (Array.length g.Digital.states);
  check
    (Printf.sprintf "explore allocates <= 55M minor words (%.1fM)" (words /. 1e6))
    true (words <= 55e6);
  let safe = Games.Train_game.safe net in
  let s = Games.solve net (Games.Safety safe) in
  check_golden ~states:105_527 ~edges:377_014 ~winning:67_165 ~entries:56_939
    ~md5:"9066fe382fa984de7fc6289a150cfe89" ~closed_loop:(Games.closed_loop_safe s ~safe) s

let () =
  Alcotest.run "discrete-priced-games"
    [
      ( "digital",
        [
          Alcotest.test_case "rejects strict" `Quick test_rejects_strict;
          Alcotest.test_case "rejects broken initial invariant" `Quick
            test_rejects_broken_initial_invariant;
          Alcotest.test_case "cross-validation vs zones" `Slow
            test_cross_validation;
          Alcotest.test_case "saturation" `Quick test_digital_delay_saturation;
          QCheck_alcotest.to_alcotest prop_random_cross_validation;
          Alcotest.test_case "id contract: train models" `Slow
            test_id_contract_models;
          Alcotest.test_case "id contract: random networks" `Quick
            test_id_contract_random;
        ] );
      ( "priced",
        [
          Alcotest.test_case "min cost line" `Quick test_min_cost_line;
          Alcotest.test_case "chooses cheaper" `Quick test_min_cost_chooses_cheaper;
          Alcotest.test_case "min time train-gate" `Slow test_min_time_train_gate;
          Alcotest.test_case "wcet" `Quick test_max_cost_wcet;
          Alcotest.test_case "wcet unbounded" `Quick test_max_cost_unbounded;
        ] );
      ( "jobshop",
        [
          Alcotest.test_case "single job" `Quick test_jobshop_single_job;
          Alcotest.test_case "parallel" `Quick test_jobshop_parallel;
          Alcotest.test_case "contention" `Quick test_jobshop_contention;
          Alcotest.test_case "exclusive" `Quick test_jobshop_exclusive;
          Alcotest.test_case "bound respected" `Quick test_jobshop_respects_bound;
          Alcotest.test_case "validation" `Quick test_jobshop_validation;
        ] );
      ( "games",
        [
          Alcotest.test_case "tiny safety" `Quick test_tiny_safety_game;
          Alcotest.test_case "tiny reach" `Quick test_tiny_reach_game;
          Alcotest.test_case "env blocks reach" `Quick test_tiny_reach_env_blocks;
          Alcotest.test_case "train game safety" `Slow test_train_game_safety;
          Alcotest.test_case "train game reach" `Slow test_train_game_reach;
          Alcotest.test_case "E2 golden 2-train safety" `Slow
            test_e2_golden_safety2;
          Alcotest.test_case "E2 golden 2-train reach" `Slow
            test_e2_golden_reach2;
          Alcotest.test_case "E2 golden 3-train compact safety" `Slow
            test_e2_golden_safety3;
          Alcotest.test_case "reference solver: train games" `Slow
            test_reference_train_games;
          Alcotest.test_case "reference solver: random games" `Quick
            test_reference_random_games;
        ] );
    ]
