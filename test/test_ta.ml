(* Tests for the timed-automata engine: expressions, stores, the network
   builder, symbolic semantics, the checker's four query patterns, and the
   paper's train-gate case study (Fig. 1). *)

module Bound = Zones.Bound
module Dbm = Zones.Dbm
module Expr = Ta.Expr
module Store = Ta.Store
module Model = Ta.Model
module Prop = Ta.Prop
module Zone_graph = Ta.Zone_graph
module Checker = Ta.Checker
module Train_gate = Ta.Train_gate

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* Expr / Store                                                        *)
(* ------------------------------------------------------------------ *)

let test_expr_eval () =
  let sb = Store.create () in
  let a = Store.int_var sb ~init:7 "a" in
  let arr = Store.array_var sb "arr" 3 in
  let layout = Store.freeze sb in
  let store = Store.initial layout in
  store.(arr.Store.off + 1) <- 42;
  let e = Expr.Add (Expr.var a, Expr.index arr (Expr.Int 1)) in
  check_int "7+42" 49 (Expr.eval store e);
  check_int "ite" 1
    (Expr.eval store (Expr.Ite (Expr.Gt (Expr.var a, Expr.Int 3), Expr.Int 1, Expr.Int 2)));
  check "bool ops" true
    (Expr.eval_bool store
       (Expr.And (Expr.Le (Expr.Int 1, Expr.Int 2), Expr.Not (Expr.Int 0))));
  (try
     ignore (Expr.eval store (Expr.index arr (Expr.Int 5)));
     Alcotest.fail "expected bounds error"
   with Expr.Eval_error _ -> ());
  try
    ignore (Expr.eval store (Expr.Div (Expr.Int 1, Expr.Int 0)));
    Alcotest.fail "expected division error"
  with Expr.Eval_error _ -> ()

let test_store_layout () =
  let sb = Store.create () in
  let a = Store.int_var sb ~init:3 "a" in
  let arr = Store.array_var sb ~init:1 "arr" 4 in
  let b = Store.int_var sb "b" in
  let layout = Store.freeze sb in
  check_int "size" 6 (Store.size layout);
  check_int "offsets" 0 a.Store.off;
  check_int "array after scalar" 1 arr.Store.off;
  check_int "b last" 5 b.Store.off;
  let init = Store.initial layout in
  check_int "init scalar" 3 init.(0);
  check_int "init array" 1 init.(2);
  check_int "init default" 0 init.(5);
  check "find" true (Store.find layout "arr" == arr);
  let sb2 = Store.create () in
  ignore (Store.int_var sb2 "x");
  try
    ignore (Store.int_var sb2 "x");
    Alcotest.fail "expected duplicate error"
  with Invalid_argument _ -> ()

(* ------------------------------------------------------------------ *)
(* Small hand-built networks                                           *)
(* ------------------------------------------------------------------ *)

(* One automaton: A (inv x<=5) --[x>=3]--> B. *)
let single_automaton () =
  let b = Model.builder () in
  let x = Model.fresh_clock b "x" in
  let a = Model.automaton b "P" in
  let la = Model.location a "A" ~invariant:[ Model.clock_le x 5 ] in
  let lb = Model.location a "B" in
  Model.edge a ~src:la ~dst:lb ~clock_guard:[ Model.clock_ge x 3 ] ();
  (Model.build b, x)

let test_initial_zone () =
  let net, _x = single_automaton () in
  let st =
    Zone_graph.initial net ~extra:(Dbm.Extra_m net.Model.max_consts)
  in
  (* Delay-closed within the invariant: x in [0,5]. *)
  check "x=4 in initial" true (Dbm.satisfies (st.zone :> Dbm.t) [| 0.; 4. |]);
  check "x=6 not" false (Dbm.satisfies (st.zone :> Dbm.t) [| 0.; 6. |])

let test_single_reach () =
  let net, _ = single_automaton () in
  let q = Prop.Possibly (Prop.loc net "P" "B") in
  let r = Checker.check net q in
  check "B reachable" true r.holds;
  check "trace present" true (r.trace <> None);
  (* B with x < 3 unreachable: guard forces x>=3 and B has no invariant,
     but the zone on entry has x>=3. *)
  let q2 =
    Prop.Possibly
      (Prop.And (Prop.loc net "P" "B", Prop.Clock (Model.clock_lt 1 3)))
  in
  check "B with x<3 unreachable" false (Checker.check net q2).holds;
  let q3 =
    Prop.Invariant
      (Prop.Imply (Prop.loc net "P" "A", Prop.Clock (Model.clock_le 1 5)))
  in
  check "invariant holds in A" true (Checker.check net q3).holds

(* Binary synchronisation: sender S0->S1 on c!, receiver R0->R1 on c?. *)
let test_binary_sync () =
  let b = Model.builder () in
  let c = Model.channel b "c" in
  let s = Model.automaton b "S" in
  let s0 = Model.location s "S0" in
  let s1 = Model.location s "S1" in
  Model.edge s ~src:s0 ~dst:s1 ~sync:(Model.Emit c) ();
  let r = Model.automaton b "R" in
  let r0 = Model.location r "R0" in
  let r1 = Model.location r "R1" in
  Model.edge r ~src:r0 ~dst:r1 ~sync:(Model.Receive c) ();
  let net = Model.build b in
  (* Both move together: S1&R0 unreachable, S1&R1 reachable. *)
  let s1f = Prop.loc net "S" "S1" and r0f = Prop.loc net "R" "R0" in
  let r1f = Prop.loc net "R" "R1" in
  check "joint move" true
    (Checker.check net (Prop.Possibly (Prop.And (s1f, r1f)))).holds;
  check "no lone move" false
    (Checker.check net (Prop.Possibly (Prop.And (s1f, r0f)))).holds

(* Broadcast: one emitter, two receivers, one with a false data guard. *)
let broadcast_net () =
  let b = Model.builder () in
  let c = Model.channel b ~kind:Model.Broadcast "c" in
  let sb = Model.store b in
  let flag = Store.int_var sb "flag" in
  let s = Model.automaton b "S" in
  let s0 = Model.location s "S0" in
  let s1 = Model.location s "S1" in
  Model.edge s ~src:s0 ~dst:s1 ~sync:(Model.Emit c) ();
  let mk_receiver name guard =
    let r = Model.automaton b name in
    let r0 = Model.location r "R0" in
    let r1 = Model.location r "R1" in
    Model.edge r ~src:r0 ~dst:r1 ?guard ~sync:(Model.Receive c) ()
  in
  mk_receiver "R1" None;
  mk_receiver "R2" (Some (Expr.Eq (Expr.var flag, Expr.Int 1)));
  Model.build b

let test_broadcast () =
  let net = broadcast_net () in
  (* flag=0: R2's guard is false, so only R1 receives. *)
  let f =
    Prop.And
      ( Prop.loc net "S" "S1",
        Prop.And (Prop.loc net "R1" "R1", Prop.loc net "R2" "R0") )
  in
  check "partial broadcast" true (Checker.check net (Prop.Possibly f)).holds;
  let f2 = Prop.And (Prop.loc net "S" "S1", Prop.loc net "R1" "R0") in
  check "enabled receiver must join" false
    (Checker.check net (Prop.Possibly f2)).holds

(* Committed locations take priority over other components' moves: while
   P sits in its committed location (phase = 1), Q must not fire, so Q can
   never observe phase = 1. *)
let test_committed () =
  let b = Model.builder () in
  let sb = Model.store b in
  let phase = Store.int_var sb "phase" in
  let seen = Store.int_var sb ~init:(-1) "seen" in
  let p = Model.automaton b "P" in
  let p0 = Model.location p "P0" in
  let pc = Model.location p "PC" ~kind:Model.Committed in
  let p1 = Model.location p "P1" in
  Model.edge p ~src:p0 ~dst:pc
    ~updates:[ Model.Assign (Expr.Cell phase, Expr.Int 1) ] ();
  Model.edge p ~src:pc ~dst:p1
    ~updates:[ Model.Assign (Expr.Cell phase, Expr.Int 2) ] ();
  let q = Model.automaton b "Q" in
  let q0 = Model.location q "Q0" in
  let q1 = Model.location q "Q1" in
  Model.edge q ~src:q0 ~dst:q1
    ~updates:[ Model.Assign (Expr.Cell seen, Expr.var phase) ] ();
  let net = Model.build b in
  check "Q never fires during the committed phase" true
    (Checker.check net
       (Prop.Invariant (Prop.Data (Expr.Neq (Expr.var seen, Expr.Int 1)))))
      .holds;
  check "Q can observe phase 0 and 2" true
    (Checker.check net
       (Prop.Possibly (Prop.Data (Expr.Eq (Expr.var seen, Expr.Int 2)))))
      .holds

(* Urgent location: no time may pass, so a guard x>=1 is unreachable. *)
let test_urgent_location () =
  let b = Model.builder () in
  let x = Model.fresh_clock b "x" in
  let p = Model.automaton b "P" in
  let p0 = Model.location p "P0" ~kind:Model.Urgent in
  let p1 = Model.location p "P1" in
  Model.edge p ~src:p0 ~dst:p1 ~clock_guard:[ Model.clock_ge x 1 ] ();
  let net = Model.build b in
  check "urgent forbids delay" false
    (Checker.check net (Prop.Possibly (Prop.loc net "P" "P1"))).holds

(* Deadlock detection is exact on zones: without an invariant a state may
   delay past its only guard window and get stuck. *)
let test_deadlock_exact () =
  let build ~with_invariant =
    let b = Model.builder () in
    let x = Model.fresh_clock b "x" in
    let p = Model.automaton b "P" in
    let inv = if with_invariant then [ Model.clock_le x 3 ] else [] in
    let p0 = Model.location p "A" ~invariant:inv in
    Model.edge p ~src:p0 ~dst:p0
      ~clock_guard:[ Model.clock_ge x 2; Model.clock_le x 3 ]
      ~updates:[ Model.Reset (x, 0) ] ();
    Model.build b
  in
  check "no invariant: deadlock (delay past window)" false
    (Checker.check (build ~with_invariant:false) Prop.NoDeadlock).holds;
  check "invariant x<=3: deadlock-free" true
    (Checker.check (build ~with_invariant:true) Prop.NoDeadlock).holds

(* Liveness: idling forever must count as a counterexample. *)
let test_liveness_idle () =
  let build ~with_invariant =
    let b = Model.builder () in
    let x = Model.fresh_clock b "x" in
    let p = Model.automaton b "P" in
    let inv = if with_invariant then [ Model.clock_le x 5 ] else [] in
    let p0 = Model.location p "A" ~invariant:inv in
    let p1 = Model.location p "B" in
    Model.edge p ~src:p0 ~dst:p1 ~clock_guard:[ Model.clock_ge x 1 ] ();
    Model.build b
  in
  let q net = Prop.Eventually (Prop.loc net "P" "B") in
  let lazy_net = build ~with_invariant:false in
  check "can idle forever: A<> B fails" false
    (Checker.check lazy_net (q lazy_net)).holds;
  let forced_net = build ~with_invariant:true in
  check "invariant forces progress: A<> B holds" true
    (Checker.check forced_net (q forced_net)).holds

let test_liveness_cycle () =
  (* A and B alternate forever (invariants force moves) and C is only
     reachable from A: A<> C must fail on the A-B cycle. *)
  let b = Model.builder () in
  let x = Model.fresh_clock b "x" in
  let p = Model.automaton b "P" in
  let la = Model.location p "A" ~invariant:[ Model.clock_le x 1 ] in
  let lb = Model.location p "B" ~invariant:[ Model.clock_le x 1 ] in
  let lc = Model.location p "C" in
  Model.edge p ~src:la ~dst:lb ~updates:[ Model.Reset (x, 0) ] ();
  Model.edge p ~src:lb ~dst:la ~updates:[ Model.Reset (x, 0) ] ();
  Model.edge p ~src:la ~dst:lc ();
  let net = Model.build b in
  check "cycle avoiding C: A<> C fails" false
    (Checker.check net (Prop.Eventually (Prop.loc net "P" "C"))).holds;
  check "E<> C still true" true
    (Checker.check net (Prop.Possibly (Prop.loc net "P" "C"))).holds

(* ------------------------------------------------------------------ *)
(* Train-gate (Fig. 1)                                                 *)
(* ------------------------------------------------------------------ *)

let test_train_gate_safety () =
  let net = Train_gate.make ~n_trains:3 in
  let r = Checker.check net (Train_gate.safety net) in
  check "safety holds (3 trains)" true r.holds;
  check "explored some states" true (r.stats.Checker.visited > 10)

let test_train_gate_deadlock () =
  let net = Train_gate.make ~n_trains:3 in
  check "deadlock-free (3 trains)" true
    (Checker.check net Train_gate.no_deadlock).holds

let test_train_gate_liveness () =
  let net = Train_gate.make ~n_trains:2 in
  check "Train0.Appr --> Train0.Cross" true
    (Checker.check net (Train_gate.liveness net 0)).holds;
  check "Train1.Appr --> Train1.Cross" true
    (Checker.check net (Train_gate.liveness net 1)).holds

let test_train_gate_queue_bound () =
  let net = Train_gate.make ~n_trains:3 in
  let len = Store.find net.Model.layout "len" in
  let q =
    Prop.Invariant (Prop.Data (Expr.Le (Expr.var len, Expr.Int 3)))
  in
  check "queue never overflows" true (Checker.check net q).holds

let test_train_gate_crossing_reachable () =
  let net = Train_gate.make ~n_trains:2 in
  check "some train crosses" true
    (Checker.check net (Prop.Possibly (Train_gate.cross_formula net 0))).holds;
  (* Two trains never cross together. *)
  let both =
    Prop.And (Train_gate.cross_formula net 0, Train_gate.cross_formula net 1)
  in
  check "never both" false (Checker.check net (Prop.Possibly both)).holds

(* A broken gate that never stops trains lets two trains cross at once. *)
let test_broken_gate_unsafe () =
  let n_trains = 2 in
  let b = Model.builder () in
  let appr = Array.init n_trains (fun i -> Model.channel b (Printf.sprintf "appr%d" i)) in
  let stop = Array.init n_trains (fun i -> Model.channel b (Printf.sprintf "stop%d" i)) in
  let go = Array.init n_trains (fun i -> Model.channel b (Printf.sprintf "go%d" i)) in
  let leave = Array.init n_trains (fun i -> Model.channel b (Printf.sprintf "leave%d" i)) in
  for i = 0 to n_trains - 1 do
    let x = Model.fresh_clock b (Printf.sprintf "x%d" i) in
    let a = Model.automaton b (Printf.sprintf "Train%d" i) in
    let safe = Model.location a "Safe" in
    let appr_l = Model.location a "Appr" ~invariant:[ Model.clock_le x 20 ] in
    let stop_l = Model.location a "Stop" in
    let start_l = Model.location a "Start" ~invariant:[ Model.clock_le x 15 ] in
    let cross_l = Model.location a "Cross" ~invariant:[ Model.clock_le x 5 ] in
    Model.set_initial a safe;
    Model.edge a ~src:safe ~dst:appr_l ~sync:(Model.Emit appr.(i))
      ~updates:[ Model.Reset (x, 0) ] ();
    Model.edge a ~src:appr_l ~dst:stop_l ~clock_guard:[ Model.clock_le x 10 ]
      ~sync:(Model.Receive stop.(i)) ();
    Model.edge a ~src:stop_l ~dst:start_l ~sync:(Model.Receive go.(i))
      ~updates:[ Model.Reset (x, 0) ] ();
    Model.edge a ~src:start_l ~dst:cross_l ~clock_guard:[ Model.clock_ge x 7 ]
      ~updates:[ Model.Reset (x, 0) ] ();
    Model.edge a ~src:appr_l ~dst:cross_l ~clock_guard:[ Model.clock_ge x 10 ]
      ~updates:[ Model.Reset (x, 0) ] ();
    Model.edge a ~src:cross_l ~dst:safe ~clock_guard:[ Model.clock_ge x 3 ]
      ~sync:(Model.Emit leave.(i)) ()
  done;
  (* Gate that acknowledges everything and never stops anyone. *)
  let g = Model.automaton b "Gate" in
  let idle = Model.location g "Idle" in
  for e = 0 to n_trains - 1 do
    Model.edge g ~src:idle ~dst:idle ~sync:(Model.Receive appr.(e)) ();
    Model.edge g ~src:idle ~dst:idle ~sync:(Model.Receive leave.(e)) ()
  done;
  let net = Model.build b in
  let both =
    Prop.And
      (Prop.loc net "Train0" "Cross", Prop.loc net "Train1" "Cross")
  in
  let r = Checker.check net (Prop.Possibly both) in
  check "broken gate lets both cross" true r.holds;
  check "witness trace" true (r.trace <> None)

(* Subsumption ablation: same verdicts, usually fewer states. *)
let test_subsumption_ablation () =
  let net = Train_gate.make ~n_trains:2 in
  let with_sub = Checker.check ~subsumption:true net (Train_gate.safety net) in
  let without = Checker.check ~subsumption:false net (Train_gate.safety net) in
  check "same verdict" true (with_sub.holds = without.holds);
  check "subsumption explores no more states" true
    (with_sub.stats.Checker.visited <= without.stats.Checker.visited)

(* Two paths producing the exact same symbolic state: the second insert is
   rejected as already covered (equal counts as inclusion). *)
let test_subsumption_equal_zone () =
  let b = Model.builder () in
  let x = Model.fresh_clock b "x" in
  let p = Model.automaton b "P" in
  let la = Model.location p "A" in
  let lb = Model.location p "B" in
  Model.edge p ~src:la ~dst:lb ~updates:[ Model.Reset (x, 0) ] ();
  Model.edge p ~src:la ~dst:lb ~updates:[ Model.Reset (x, 0) ] ();
  let net = Model.build b in
  let r = Checker.check net (Prop.Possibly Prop.False) in
  check "exhaustive run" false r.holds;
  check "equal re-reach subsumed" true (r.stats.Checker.subsumed >= 1);
  check "nothing evicted" true (r.stats.Checker.dropped = 0)

(* Successively weaker guards into the same location: each later zone
   strictly contains the earlier stored one, which must be evicted. *)
let test_subsumption_drops_weaker () =
  let b = Model.builder () in
  let x = Model.fresh_clock b "x" in
  let p = Model.automaton b "P" in
  let la = Model.location p "A" in
  let lb = Model.location p "B" in
  (* Successors are generated in reverse edge order, so the tightest zone
     (x>=3) is stored first and each later, strictly larger zone evicts
     the one before it. *)
  Model.edge p ~src:la ~dst:lb ~clock_guard:[ Model.clock_ge x 1 ] ();
  Model.edge p ~src:la ~dst:lb ~clock_guard:[ Model.clock_ge x 2 ] ();
  Model.edge p ~src:la ~dst:lb ~clock_guard:[ Model.clock_ge x 3 ] ();
  (* [x] is inactive in [B], where its own bounds would free it: keep
     it active so the three zones differ there. *)
  let net = Model.keep_active (Model.build b) [ x ] in
  (* Under Extra-M the three zones stay distinct; the default LU seal
     would collapse them (no upper guards, so every lower bound widens
     to x>0) and nothing would need evicting. *)
  let r = Checker.check ~extrapolation:`K net (Prop.Possibly Prop.False) in
  check "exhaustive run" false r.holds;
  (* x>=2 evicts the stored x>=3 zone, then x>=1 evicts x>=2. *)
  check "widening zones evict stored ones" true (r.stats.Checker.dropped >= 2)

(* max_states truncation raises [Truncated] with the explored prefix,
   both on the subsumption path and on the exact liveness graph. *)
let test_max_states_truncation () =
  let net = Train_gate.make ~n_trains:2 in
  List.iter
    (fun (name, q) ->
      match Checker.check ~max_states:3 net q with
      | _ -> Alcotest.failf "%s: expected Truncated" name
      | exception Checker.Truncated { reason = `Max_states; stats } ->
        check (name ^ " stats truncated") true stats.Checker.truncated
      | exception Checker.Truncated _ ->
        Alcotest.failf "%s: truncated for another reason" name)
    [ ("reachability", Train_gate.safety net);
      ("liveness", Train_gate.liveness net 0) ]

(* Extrapolation ablation: every seal-time abstraction must reach the
   same verdict, and coarser abstractions cannot enlarge the zone graph.
   Sealing also makes pointer equality the common comparison. *)
let test_extrapolation_ablation () =
  let net = Ta.Fischer.make ~n:3 () in
  let q = Ta.Fischer.mutex net in
  let none = Checker.check ~extrapolation:`None net q in
  let k = Checker.check ~extrapolation:`K net q in
  let cmp0 = Zones.Dbm.cmp_stats () in
  let lu = Checker.check ~extrapolation:`Lu net q in
  let cmp1 = Zones.Dbm.cmp_stats () in
  check "same verdict (k)" true (none.holds = k.holds);
  check "same verdict (lu)" true (k.holds = lu.holds);
  check "k does not enlarge the graph" true
    (k.stats.Checker.visited <= none.stats.Checker.visited);
  check "lu does not enlarge the graph" true
    (lu.stats.Checker.visited <= k.stats.Checker.visited);
  check "sealed fast path taken" true (lu.stats.Checker.dbm_phys_eq > 0);
  check "phys-eq is the common case" true
    (lu.stats.Checker.dbm_phys_eq
     > cmp1.Zones.Dbm.full_scans - cmp0.Zones.Dbm.full_scans)


(* ------------------------------------------------------------------ *)
(* Fischer's protocol                                                  *)
(* ------------------------------------------------------------------ *)

module Fischer = Ta.Fischer

let test_fischer_mutex () =
  List.iter
    (fun n ->
      let net = Fischer.make ~n () in
      check
        (Printf.sprintf "mutex holds for %d processes" n)
        true
        (Checker.check net (Fischer.mutex net)).holds;
      check "cs reachable" true (Checker.check net (Fischer.cs_reachable net)).holds)
    [ 2; 3 ]

let test_fischer_broken () =
  (* The textbook bug: waiting only >= k (instead of > k) breaks mutual
     exclusion. *)
  let net = Fischer.make ~strict_wait:false ~n:2 () in
  let r = Checker.check net (Fischer.mutex net) in
  check "non-strict wait violates mutex" false r.holds;
  check "counterexample trace" true (r.trace <> None)

let test_fischer_deadlock_free () =
  let net = Fischer.make ~n:2 () in
  check "deadlock-free" true (Checker.check net Fischer.no_deadlock).holds

let test_fischer_k_scaling () =
  (* Larger k only changes timing, not correctness. *)
  let net = Fischer.make ~k:5 ~n:2 () in
  check "mutex with k=5" true (Checker.check net (Fischer.mutex net)).holds




let test_dot_export () =
  let net = Train_gate.make ~n_trains:2 in
  let dot = Ta.Dot.of_network net in
  let has affix = Astring.String.is_infix ~affix dot in
  check "digraph" true (has "digraph network");
  check "clusters per automaton" true
    (has "cluster_0" && has "cluster_2" (* 2 trains + gate *));
  check "sync labels" true (has "appr0!" && has "appr0?");
  check "balanced braces" true
    (let count c = String.fold_left (fun acc ch -> if ch = c then acc + 1 else acc) 0 dot in
     count '{' = count '}')




let test_rich_trace () =
  (* [x] is inactive in [B], so keep it: the rendered zone names it. *)
  let net, x = single_automaton () in
  let net = Model.keep_active net [ x ] in
  let r =
    Checker.check ~rich_trace:true net (Prop.Possibly (Prop.loc net "P" "B"))
  in
  match r.Checker.trace with
  | Some (step :: _) ->
    check "label present" true (Astring.String.is_infix ~affix:"P.A->B" step);
    check "state annotation present" true (Astring.String.is_infix ~affix:"@" step);
    check "zone rendered" true (Astring.String.is_infix ~affix:"x" step)
  | Some [] | None -> Alcotest.fail "expected a witness trace"

(* ------------------------------------------------------------------ *)
(* Zone-graph internals: enabling zones and weakest preconditions      *)
(* ------------------------------------------------------------------ *)

let test_move_enabling_zone_wp () =
  (* Edge A -> B resets x := 0 but B requires y <= 2 (y not reset): the
     enabling zone must carry the target invariant back over the reset. *)
  let b = Model.builder () in
  let x = Model.fresh_clock b "x" in
  let y = Model.fresh_clock b "y" in
  let p = Model.automaton b "P" in
  let la = Model.location p "A" in
  let lb = Model.location p "B" ~invariant:[ Model.clock_le y 2 ] in
  Model.edge p ~src:la ~dst:lb ~updates:[ Model.Reset (x, 0) ] ();
  let net = Model.build b in
  let locs = [| la |] and store = [||] in
  match Zone_graph.moves net locs store with
  | [ mv ] ->
    let g = Zone_graph.move_enabling_zone net locs store mv in
    check "y=1 enabled" true (Dbm.satisfies g [| 0.; 5.; 1. |]);
    check "y=3 disabled (target invariant)" false
      (Dbm.satisfies g [| 0.; 5.; 3. |]);
    check "x unconstrained (reset)" true (Dbm.satisfies g [| 0.; 100.; 2. |])
  | _ -> Alcotest.fail "expected exactly one move"

let test_move_enabling_zone_impossible () =
  (* Reset x := 5 into an invariant x <= 2: the move can never fire. *)
  let b = Model.builder () in
  let x = Model.fresh_clock b "x" in
  let p = Model.automaton b "P" in
  let la = Model.location p "A" in
  let lb = Model.location p "B" ~invariant:[ Model.clock_le x 2 ] in
  Model.edge p ~src:la ~dst:lb ~updates:[ Model.Reset (x, 5) ] ();
  let net = Model.build b in
  (match Zone_graph.moves net [| la |] [||] with
   | [ mv ] ->
     check "never enabled" true
       (Dbm.is_empty (Zone_graph.move_enabling_zone net [| la |] [||] mv))
   | _ -> Alcotest.fail "expected one move");
  (* And the checker agrees: B is unreachable. *)
  check "B unreachable" false
    (Checker.check net (Prop.Possibly (Prop.loc net "P" "B"))).holds

let test_deadlocked_direct () =
  (* A state whose only guard window is already past is deadlocked. *)
  let b = Model.builder () in
  let x = Model.fresh_clock b "x" in
  let p = Model.automaton b "P" in
  let la = Model.location p "A" in
  let lb = Model.location p "B" in
  Model.edge p ~src:la ~dst:lb
    ~clock_guard:[ Model.clock_ge x 1; Model.clock_le x 2 ] ();
  let net = Model.build b in
  let init =
    Zone_graph.initial net ~extra:(Dbm.Extra_m net.Model.max_consts)
  in
  (* The delay-closed initial zone includes x > 2 valuations. *)
  check "initial state contains deadlocked valuations" true
    (Checker.deadlocked net init);
  (* Restricting to the window removes them (re-sealed: states carry
     canon handles only). *)
  let inside =
    { init with
      Zone_graph.zone =
        Dbm.seal (Dbm.constrain (init.Zone_graph.zone :> Dbm.t) 1 0 (Bound.le 2))
    }
  in
  check "within the window: not deadlocked" false
    (Checker.deadlocked net inside)

(* ------------------------------------------------------------------ *)
(* Network union (parallel composition)                                *)
(* ------------------------------------------------------------------ *)

let half_sender () =
  let b = Model.builder () in
  let c = Model.channel b "c" in
  let y = Model.fresh_clock b "y" in
  let s = Model.automaton b "S" in
  let s0 = Model.location s "S0" in
  let s1 = Model.location s "S1" in
  Model.edge s ~src:s0 ~dst:s1 ~clock_guard:[ Model.clock_ge y 1 ]
    ~sync:(Model.Emit c) ();
  Model.build b

let half_receiver name =
  let b = Model.builder () in
  let c = Model.channel b "c" in
  let sb = Model.store b in
  let got = Store.int_var sb "got" in
  let r = Model.automaton b name in
  let r0 = Model.location r "R0" in
  let r1 = Model.location r "R1" in
  Model.edge r ~src:r0 ~dst:r1 ~sync:(Model.Receive c)
    ~updates:[ Model.Assign (Expr.Cell got, Expr.Int 1) ] ();
  Model.build b

let test_union_synchronises () =
  let net = Model.union (half_sender ()) (half_receiver "R") in
  check_int "clocks merged" 1 net.Model.n_clocks;
  check_int "channel merged" 1 (Array.length net.Model.channels);
  let joint =
    Prop.And
      ( Prop.loc net "S" "S1",
        Prop.And
          ( Prop.loc net "R" "R1",
            Prop.Data (Expr.Eq (Expr.var (Store.find net.Model.layout "got"), Expr.Int 1)) ) )
  in
  check "joint move across union" true
    (Checker.check net (Prop.Possibly joint)).holds;
  let early =
    Prop.And (Prop.loc net "S" "S1", Prop.Clock (Model.clock_lt 1 1))
  in
  check "guard survives remap" false
    (Checker.check net (Prop.Possibly early)).holds

let test_union_validation () =
  (try
     ignore (Model.union (half_receiver "R") (half_receiver "R"));
     Alcotest.fail "expected duplicate component error"
   with Invalid_argument _ -> ());
  let with_prim () =
    let b = Model.builder () in
    let p = Model.automaton b "P" in
    let l0 = Model.location p "L0" in
    Model.edge p ~src:l0 ~dst:l0 ~updates:[ Model.Prim ("nop", fun _ -> ()) ] ();
    Model.build b
  in
  try
    ignore (Model.union (half_sender ()) (with_prim ()));
    Alcotest.fail "expected Prim rejection"
  with Invalid_argument _ -> ()

(* The sync index files edges by channel id, so an id outside the
   network's channels is refused at build time. *)
let test_undeclared_channel () =
  let foreign = Model.builder () in
  ignore (Model.channel foreign "a");
  let c = Model.channel foreign "c" in
  let b = Model.builder () in
  let p = Model.automaton b "P" in
  let l0 = Model.location p "L0" in
  Model.edge p ~src:l0 ~dst:l0 ~sync:(Model.Emit c) ();
  match Model.build b with
  | (_ : Model.network) -> Alcotest.fail "expected an undeclared-channel error"
  | exception Invalid_argument _ -> ()

(* ------------------------------------------------------------------ *)
(* Reference successor enumeration and deadlock test                   *)
(* ------------------------------------------------------------------ *)

(* The enumeration, delay rule and deadlock formula as they stood
   before the per-location sync index: a filter over each automaton's
   out-edges once per channel, a [Format] label per move, and every
   escape zone intersected with the state's zone before the federation
   inclusion test. [Zone_graph] and [Checker] must agree with them
   exactly. *)
module Reference = struct
  let data_enabled store (e : Model.edge) =
    match e.data_guard with None -> true | Some g -> Expr.eval_bool store g

  let loc_kind (net : Model.network) locs i =
    net.automata.(i).locations.(locs.(i)).Model.kind

  let committed_present net locs =
    let found = ref false in
    Array.iteri
      (fun i _ -> if loc_kind net locs i = Model.Committed then found := true)
      net.Model.automata;
    !found

  let urgent_present net locs =
    let found = ref false in
    Array.iteri
      (fun i _ ->
        match loc_kind net locs i with
        | Model.Urgent | Model.Committed -> found := true
        | Model.Normal -> ())
      net.Model.automata;
    !found

  let enabled_edges net locs store i pred =
    let a = net.Model.automata.(i) in
    List.filter
      (fun e -> pred e.Model.sync && data_enabled store e)
      a.Model.out.(locs.(i))

  let label_of net participants =
    let part (i, (e : Model.edge)) =
      let a = net.Model.automata.(i) in
      Format.asprintf "%s.%s->%s%s" a.Model.auto_name
        a.Model.locations.(e.src).loc_name a.Model.locations.(e.dst).loc_name
        (match e.sync with
         | Model.Tau -> ""
         | s -> Format.asprintf "[%a]" Model.pp_sync s)
    in
    String.concat " " (List.map part participants)

  let emits (ch : Model.chan) = function
    | Model.Emit c -> c.Model.chan_id = ch.chan_id
    | _ -> false

  let recvs (ch : Model.chan) = function
    | Model.Receive c -> c.Model.chan_id = ch.chan_id
    | _ -> false

  let moves net locs store : Zone_graph.move list =
    let committed = committed_present net locs in
    let allowed participants =
      (not committed)
      || List.exists
           (fun (i, _) -> loc_kind net locs i = Model.Committed)
           participants
    in
    let out = ref [] in
    let push participants =
      if allowed participants then
        out :=
          { Zone_graph.mv_label = label_of net participants; participants }
          :: !out
    in
    let n = Array.length net.Model.automata in
    for i = 0 to n - 1 do
      List.iter
        (fun e -> push [ (i, e) ])
        (enabled_edges net locs store i (fun s -> s = Model.Tau))
    done;
    Array.iter
      (fun (ch : Model.chan) ->
        match ch.kind with
        | Model.Binary ->
          for i = 0 to n - 1 do
            List.iter
              (fun e1 ->
                for j = 0 to n - 1 do
                  if j <> i then
                    List.iter
                      (fun e2 -> push [ (i, e1); (j, e2) ])
                      (enabled_edges net locs store j (recvs ch))
                done)
              (enabled_edges net locs store i (emits ch))
          done
        | Model.Broadcast ->
          for i = 0 to n - 1 do
            List.iter
              (fun e1 ->
                let rec expand j acc =
                  if j = n then push (List.rev acc)
                  else if j = i then expand (j + 1) acc
                  else
                    match enabled_edges net locs store j (recvs ch) with
                    | [] -> expand (j + 1) acc
                    | choices ->
                      List.iter
                        (fun e2 -> expand (j + 1) ((j, e2) :: acc))
                        choices
                in
                expand 0 [ (i, e1) ])
              (enabled_edges net locs store i (emits ch))
          done)
      net.Model.channels;
    List.rev !out

  let urgent_sync_enabled net locs store =
    let n = Array.length net.Model.automata in
    let exists_chan (ch : Model.chan) =
      let has i pred = enabled_edges net locs store i pred <> [] in
      let some_emitter = ref false and emitter_recv_pair = ref false in
      for i = 0 to n - 1 do
        if has i (emits ch) then begin
          some_emitter := true;
          for j = 0 to n - 1 do
            if j <> i && has j (recvs ch) then emitter_recv_pair := true
          done
        end
      done;
      match ch.kind with
      | Model.Broadcast -> !some_emitter
      | Model.Binary -> !emitter_recv_pair
    in
    Array.exists
      (fun ch -> ch.Model.urgent && exists_chan ch)
      net.Model.channels

  let delay_allowed net locs store =
    (not (urgent_present net locs)) && not (urgent_sync_enabled net locs store)

  let deadlocked net (st : Zone_graph.state) =
    let delay = delay_allowed net st.locs st.store in
    let escapes =
      List.filter_map
        (fun mv ->
          let g = Zone_graph.move_enabling_zone net st.locs st.store mv in
          if Dbm.is_empty g then None
          else begin
            let g = if delay then Dbm.down g else g in
            let e = Dbm.intersect (st.zone :> Dbm.t) g in
            if Dbm.is_empty e then None else Some e
          end)
        (moves net st.locs st.store)
    in
    let fed =
      List.fold_left Zones.Fed.add
        (Zones.Fed.empty ~clocks:net.Model.n_clocks)
        escapes
    in
    not (Zones.Fed.dbm_subset (st.zone :> Dbm.t) fed)
end

(* Two broadcast emitters that also receive, a receiver with two
   choices, a committed location and an urgent binary channel. *)
let broadcast_choice_net () =
  let b = Model.builder () in
  let bc = Model.channel b ~kind:Model.Broadcast "b" in
  let c = Model.channel b ~urgent:true "c" in
  let x = Model.fresh_clock b "x" in
  let flag = Store.int_var (Model.store b) "flag" in
  let e1 = Model.automaton b "E1" in
  let a0 = Model.location e1 "A0" and a1 = Model.location e1 "A1" in
  Model.edge e1 ~src:a0 ~dst:a1 ~sync:(Model.Emit bc)
    ~updates:[ Model.Reset (x, 0) ] ();
  Model.edge e1 ~src:a1 ~dst:a0
    ~guard:(Expr.Eq (Expr.var flag, Expr.Int 1))
    ~sync:(Model.Emit bc) ();
  Model.edge e1 ~src:a0 ~dst:a0 ~sync:(Model.Receive bc) ();
  Model.edge e1 ~src:a1 ~dst:a0 ~sync:(Model.Receive c) ();
  let e2 = Model.automaton b "E2" in
  let b0 = Model.location e2 "B0" in
  let b1 = Model.location e2 "B1" ~invariant:[ Model.clock_le x 3 ] in
  Model.edge e2 ~src:b0 ~dst:b1 ~sync:(Model.Emit bc) ();
  Model.edge e2 ~src:b0 ~dst:b0 ~sync:(Model.Receive bc) ();
  Model.edge e2 ~src:b1 ~dst:b0 ~clock_guard:[ Model.clock_ge x 1 ]
    ~updates:
      [ Model.Assign (Expr.Cell flag, Expr.Sub (Expr.Int 1, Expr.var flag)) ]
    ();
  let r = Model.automaton b "R" in
  let r0 = Model.location r "R0" and r1 = Model.location r "R1" in
  let rc = Model.location r "RC" ~kind:Model.Committed in
  Model.edge r ~src:r0 ~dst:r1 ~sync:(Model.Receive bc) ();
  Model.edge r ~src:r0 ~dst:r0 ~sync:(Model.Receive bc) ();
  Model.edge r ~src:r1 ~dst:rc ~sync:(Model.Emit c) ();
  Model.edge r ~src:rc ~dst:r0 ();
  Model.edge r ~src:rc ~dst:r1
    ~guard:(Expr.Eq (Expr.var flag, Expr.Int 0))
    ~sync:(Model.Receive bc) ();
  Model.build b

let reference_nets () =
  [
    ("train-gate-3", Train_gate.make ~n_trains:3);
    ("fischer-3", Fischer.make ~n:3 ());
    ("broadcast", broadcast_net ());
    ("broadcast choices", broadcast_choice_net ());
    ("union", Model.union (half_sender ()) (half_receiver "R"));
  ]
  @ List.init 50 (fun i ->
        ( Printf.sprintf "ta-gen %d" i,
          Gen.Ta_gen.build (Gen.Ta_gen.generate Gen.Rng.(child (make 14) i)) ))

(* Distinct discrete parts of the reachable zone graph. *)
let reachable_discrete net =
  let seen = Hashtbl.create 64 in
  List.filter_map
    (fun (st : Zone_graph.state) ->
      let k = Zone_graph.discrete_key st in
      if Hashtbl.mem seen k then None
      else begin
        Hashtbl.add seen k ();
        Some k
      end)
    (Checker.reachable_states net)

let same_participants (a : Zone_graph.move) (b : Zone_graph.move) =
  List.length a.participants = List.length b.participants
  && List.for_all2
       (fun (i, e) (j, e') -> i = j && e == e')
       a.participants b.participants

let test_moves_match_reference () =
  List.iter
    (fun (name, net) ->
      List.iter
        (fun (locs, store) ->
          let got = Zone_graph.moves net locs store in
          let want = Reference.moves net locs store in
          Alcotest.(check (list string))
            (name ^ " labels")
            (List.map (fun (m : Zone_graph.move) -> m.mv_label) want)
            (List.map (fun (m : Zone_graph.move) -> m.mv_label) got);
          check (name ^ " participants") true
            (List.for_all2 same_participants got want);
          check (name ^ " delay rule")
            (Reference.delay_allowed net locs store)
            (Zone_graph.delay_allowed net locs store))
        (reachable_discrete net))
    (reference_nets ())

(* [moves] allocates its result list and nothing else on internal and
   binary moves, which are all train-gate-4 has: 6 words a move under
   this loop. Building a record, label and participant list per binary
   move per state cost 339.1. *)
let test_moves_allocation () =
  let net = Train_gate.make ~n_trains:4 in
  let states = reachable_discrete net in
  let n_moves =
    List.fold_left
      (fun n (locs, store) -> n + List.length (Zone_graph.moves net locs store))
      0 states
  in
  let before = Gc.minor_words () in
  List.iter
    (fun (locs, store) ->
      ignore (Sys.opaque_identity (Zone_graph.moves net locs store)))
    states;
  let per_move = (Gc.minor_words () -. before) /. float_of_int n_moves in
  check
    (Printf.sprintf "<= 50 minor words per move (%.1f)" per_move)
    true (per_move <= 50.0)

(* A binary move is the sync index's prebuilt record: every state that
   fires the pair returns the same physical record, with the label and
   participants the reference enumeration builds afresh. *)
let test_pair_moves_shared () =
  let net = Train_gate.make ~n_trains:3 in
  let first = Hashtbl.create 16 and repeats = ref 0 in
  List.iter
    (fun (locs, store) ->
      List.iter2
        (fun (got : Zone_graph.move) (want : Zone_graph.move) ->
          if List.length got.participants = 2 then begin
            Alcotest.(check string) "pair label" want.mv_label got.mv_label;
            check (got.mv_label ^ " participants") true
              (same_participants got want);
            match Hashtbl.find_opt first got.mv_label with
            | None -> Hashtbl.add first got.mv_label got
            | Some mv ->
              incr repeats;
              check (got.mv_label ^ " shared across states") true (mv == got)
          end)
        (Zone_graph.moves net locs store)
        (Reference.moves net locs store))
    (reachable_discrete net);
  check "a pair move fires in two states" true (!repeats > 0)

let test_deadlocked_matches_reference () =
  let nets =
    [
      ("fischer-4", Fischer.make ~n:4 ());
      ("train-gate-3", Train_gate.make ~n_trains:3);
      ("broadcast choices", broadcast_choice_net ());
    ]
    @ List.init 30 (fun i ->
          ( Printf.sprintf "ta-gen %d" i,
            Gen.Ta_gen.build (Gen.Ta_gen.generate Gen.Rng.(child (make 15) i))
          ))
  in
  List.iter
    (fun (name, net) ->
      (* [reachable_states ~extrapolation:`K] explores under the Extra-M
         bounds and in the BFS order of a no-deadlock check. *)
      let states = Checker.reachable_states ~extrapolation:`K net in
      let want = List.map (Reference.deadlocked net) states in
      List.iter2
        (fun st want ->
          check (name ^ " deadlocked") want (Checker.deadlocked net st))
        states want;
      (* The check walks escapes memoised per discrete state: it must
         stop exactly at the first state the reference finds
         deadlocked. *)
      let r = Checker.check net Prop.NoDeadlock in
      match List.find_index Fun.id want with
      | None -> check (name ^ " no-deadlock holds") true r.Checker.holds
      | Some i ->
        check (name ^ " no-deadlock fails") false r.Checker.holds;
        check_int (name ^ " visited up to the first deadlock") (i + 1)
          r.Checker.stats.Checker.visited)
    nets

(* ------------------------------------------------------------------ *)
(* Observer-clock time-bounded queries                                 *)
(* ------------------------------------------------------------------ *)

module Observer = Ta.Observer

let test_observer_bounded_reach () =
  (* B is reachable only after x >= 3: within 2 it is not, within 3 it
     is (at exactly t = 3). *)
  let net, _ = single_automaton () in
  let b_f = Prop.loc net "P" "B" in
  check "not within 2" false (Observer.possibly_within net b_f ~bound:2).Checker.holds;
  check "within 3" true (Observer.possibly_within net b_f ~bound:3).Checker.holds;
  check "within 10" true (Observer.possibly_within net b_f ~bound:10).Checker.holds

let test_observer_invariant_until () =
  let net, _ = single_automaton () in
  let a_f = Prop.loc net "P" "A" in
  (* Up to time 2 the system is necessarily still in A... *)
  check "A holds until 2" true
    (Observer.invariant_until net a_f ~bound:2).Checker.holds;
  (* ...but by time 4 it may have moved to B. *)
  check "A can be left by 4" false
    (Observer.invariant_until net a_f ~bound:4).Checker.holds

let test_observer_train_gate () =
  let net = Ta.Train_gate.make ~n_trains:2 in
  let cross = Ta.Train_gate.cross_formula net 0 in
  (* Minimum crossing time is 10 (matches the CORA result). *)
  check "no crossing within 9" false
    (Observer.possibly_within net cross ~bound:9).Checker.holds;
  check "crossing within 10" true
    (Observer.possibly_within net cross ~bound:10).Checker.holds

(* ------------------------------------------------------------------ *)
(* Per-location clock bounds                                           *)
(* ------------------------------------------------------------------ *)

(* [(owner, lower, upper)] of an owned clock. *)
let owned (net : Model.network) x =
  match net.Model.scopes.(x) with
  | Model.Owned { owner; lower; upper } -> (owner, lower, upper)
  | Model.Global -> Alcotest.failf "clock %d must be owned" x

let check_global name (net : Model.network) x =
  check name true (net.Model.scopes.(x) = Model.Global)

(* Bounds of clock [x] at location [loc] of its owner, by name. *)
let bounds_at net x loc =
  let owner, lower, upper = owned net x in
  let l = Model.loc_index net owner loc in
  (lower.(l), upper.(l))

(* Fischer's process compares its clock in [req] (x <= k) and [wait]
   (x > k) only, and every edge into either resets it: it is inactive
   in [idle] and [cs]. *)
let test_scopes_fischer () =
  let net = Fischer.make ~n:3 () in
  for pid = 1 to 3 do
    let owner, _, _ = owned net pid in
    check_int "owned by its process" (pid - 1) owner;
    let at = bounds_at net pid in
    check "inactive in idle" true (at "idle" = (-1, -1));
    check "inactive in cs" true (at "cs" = (-1, -1));
    check "req: upper k only" true (at "req" = (-1, 2));
    check "wait: lower k only" true (at "wait" = (2, -1))
  done

(* A train's clock is reset on leaving [Safe] and [Stop]; [Cross]'s
   bounds do not flow back into [Safe] across the reset-free edge,
   since [Safe] resets before any test. *)
let test_scopes_train_gate () =
  let net = Train_gate.make ~n_trains:2 in
  for i = 0 to 1 do
    let x = Train_gate.clock_of_train net i in
    let owner, _, _ = owned net x in
    check_int "owned by its train" i owner;
    let at = bounds_at net x in
    check "inactive in Safe" true (at "Safe" = (-1, -1));
    check "inactive in Stop" true (at "Stop" = (-1, -1));
    check "Appr" true (at "Appr" = (10, 20));
    check "Cross" true (at "Cross" = (3, 5))
  done

(* A clock that two components mention, or none, keeps the global
   bound; so do the observer's clock and the clocks [keep_active]
   names. *)
let test_scopes_global () =
  let b = Model.builder () in
  let x = Model.fresh_clock b "x" in
  let y = Model.fresh_clock b "y" in
  let idle = Model.fresh_clock b "idle" in
  let p = Model.automaton b "P" in
  let p0 = Model.location p "P0" in
  let p1 = Model.location p "P1" in
  Model.edge p ~src:p0 ~dst:p1 ~clock_guard:[ Model.clock_ge x 2 ]
    ~updates:[ Model.Reset (y, 0) ] ();
  let q = Model.automaton b "Q" in
  let q0 = Model.location q "Q0" ~invariant:[ Model.clock_le x 4 ] in
  Model.edge q ~src:q0 ~dst:q0 ~updates:[ Model.Reset (x, 0) ] ();
  let net = Model.build b in
  check_global "x, mentioned by P and Q" net x;
  check_global "idle, mentioned by none" net idle;
  let owner, _, _ = owned net y in
  check_int "y, reset by P alone" 0 owner;
  let net', t = Ta.Observer.add_global_clock net in
  check_global "observer clock" net' t;
  let owner', _, _ = owned net' y in
  check_int "y still owned" 0 owner';
  check_global "y kept active" (Model.keep_active net [ y ]) y;
  check "no owned clock named: the same network" true
    (Model.keep_active net [ x; idle ] == net);
  (* Composition recomputes ownership on the merged components. *)
  let net, _ = single_automaton () in
  let u = Model.union net (half_receiver "R") in
  let owner, _, _ = owned u 1 in
  check_int "union keeps P's clock owned" 0 owner

(* A move that leaves the source zone untouched (no guard, no reset, no
   invariant, a committed target that lets no time pass) hands [seal]
   an already-sealed zone. It is sealed again under the target's bounds:
   [x] is inactive in [B], so [A]'s invariant x <= 5 is gone there. *)
let test_seal_identity_target_bounds () =
  let b = Model.builder () in
  let x = Model.fresh_clock b "x" in
  let p = Model.automaton b "P" in
  let la = Model.location p "A" ~invariant:[ Model.clock_le x 5 ] in
  let lb = Model.location p "B" ~kind:Model.Committed in
  let lc = Model.location p "C" in
  Model.edge p ~src:la ~dst:lb ();
  (* The guard x >= 5 keeps A's invariant under Extra-LU too. *)
  Model.edge p ~src:la ~dst:lc ~clock_guard:[ Model.clock_ge x 5 ] ();
  Model.edge p ~src:lb ~dst:lc ~updates:[ Model.Reset (x, 0) ] ();
  let net = Model.build b in
  check "x inactive in B" true (bounds_at net x "B" = (-1, -1));
  check "x active in A" true (bounds_at net x "A" = (5, 5));
  List.iter
    (fun extra ->
      let init = Zone_graph.initial net ~extra in
      check "x <= 5 in A" false (Dbm.satisfies (init.zone :> Dbm.t) [| 0.; 7. |]);
      let mv =
        List.find
          (fun (mv : Zone_graph.move) -> mv.mv_label = "P.A->B")
          (Zone_graph.moves net init.locs init.store)
      in
      match Zone_graph.apply_move net ~extra init mv with
      | Some st ->
        check "in B" true (st.locs = [| lb |]);
        check "x freed in B" true (Dbm.satisfies (st.zone :> Dbm.t) [| 0.; 7. |]);
        check "sealed" true (Dbm.is_sealed (st.zone :> Dbm.t))
      | None -> Alcotest.fail "A -> B must fire")
    [
      Dbm.Extra_m net.Model.max_consts;
      (let lower, upper = Model.lu_bounds net in
       Dbm.Extra_lu { lower; upper });
    ];
  (* Under all-global bounds the same move keeps the source zone. *)
  let net = Model.keep_active net [ x ] in
  let extra = Dbm.Extra_m net.Model.max_consts in
  let init = Zone_graph.initial net ~extra in
  match List.assoc_opt "P.A->B" (Zone_graph.successors net ~extra init) with
  | Some st -> check "global: the same handle" true (st.zone == init.zone)
  | None -> Alcotest.fail "A -> B must fire"

(* Per-location bounds must not change a verdict: NoDeadlock and a
   safety query on random closed networks, each at [`Lu] and [`K],
   against the same network with every clock kept active (one bound
   per clock for the whole network). *)
let test_scopes_agree_with_global () =
  let owned_nets = ref 0 and smaller = ref 0 in
  for i = 0 to 1999 do
    let spec = Gen.Ta_gen.generate Gen.Rng.(child (make 24) i) in
    let net = Gen.Ta_gen.build spec in
    let global =
      Model.keep_active net (List.init net.Model.n_clocks succ)
    in
    if global != net then incr owned_nets;
    List.iter
      (fun (extrapolation, q) ->
        let r = Checker.check ~extrapolation ~max_states:50_000 net q in
        let g = Checker.check ~extrapolation ~max_states:50_000 global q in
        if r.Checker.holds <> g.Checker.holds then
          Alcotest.failf "network %d: per-location %b, global %b" i
            r.Checker.holds g.Checker.holds;
        if r.Checker.stats.Checker.visited < g.Checker.stats.Checker.visited
        then incr smaller)
      [
        (`Lu, Prop.NoDeadlock);
        (`K, Prop.NoDeadlock);
        (`Lu, Prop.Invariant (Prop.Not (Gen.Ta_gen.target_formula spec)));
        (`K, Prop.Invariant (Prop.Not (Gen.Ta_gen.target_formula spec)));
      ]
  done;
  check "some networks own a clock" true (!owned_nets > 100);
  check "some checks explore fewer states" true (!smaller > 0)

(* ------------------------------------------------------------------ *)
(* Random-network properties                                           *)
(* ------------------------------------------------------------------ *)

(* Small random closed networks (shared-variable free): reachability
   verdicts must not depend on the subsumption optimisation. *)
let random_net rng =
  let n_autos = 1 + Random.State.int rng 2 in
  let b = Model.builder () in
  for a = 0 to n_autos - 1 do
    let x = Model.fresh_clock b (Printf.sprintf "x%d" a) in
    let pa = Model.automaton b (Printf.sprintf "P%d" a) in
    let n_locs = 2 + Random.State.int rng 2 in
    let locs =
      Array.init n_locs (fun l ->
          let invariant =
            if Random.State.int rng 3 = 0 then
              [ Model.clock_le x (1 + Random.State.int rng 4) ]
            else []
          in
          Model.location pa (Printf.sprintf "l%d" l) ~invariant)
    in
    for _ = 1 to 1 + Random.State.int rng 4 do
      let src = locs.(Random.State.int rng n_locs) in
      let dst = locs.(Random.State.int rng n_locs) in
      let clock_guard =
        if Random.State.bool rng then
          [ Model.clock_ge x (Random.State.int rng 5) ]
        else []
      in
      let updates =
        if Random.State.bool rng then [ Model.Reset (x, 0) ] else []
      in
      Model.edge pa ~src ~dst ~clock_guard ~updates ()
    done
  done;
  Model.build b

let prop_subsumption_preserves_verdicts =
  QCheck.Test.make ~name:"subsumption preserves reachability verdicts"
    ~count:150
    (QCheck.make
       QCheck.Gen.(
         map
           (fun seed ->
             let rng = Random.State.make [| seed |] in
             (random_net rng, seed))
           (int_bound 1_000_000))
       ~print:(fun (_, seed) -> Printf.sprintf "net seed=%d" seed))
    (fun (net, seed) ->
      let rng = Random.State.make [| seed; 1 |] in
      let a = Random.State.int rng (Array.length net.Model.automata) in
      let locs = net.Model.automata.(a).Model.locations in
      let l = Random.State.int rng (Array.length locs) in
      let q = Prop.Possibly (Prop.Loc (a, l)) in
      let on = (Checker.check ~subsumption:true net q).Checker.holds in
      let off = (Checker.check ~subsumption:false net q).Checker.holds in
      on = off)

let () =
  Alcotest.run "ta"
    [
      ( "expr-store",
        [
          Alcotest.test_case "expr eval" `Quick test_expr_eval;
          Alcotest.test_case "store layout" `Quick test_store_layout;
        ] );
      ( "semantics",
        [
          Alcotest.test_case "initial zone" `Quick test_initial_zone;
          Alcotest.test_case "single reach" `Quick test_single_reach;
          Alcotest.test_case "binary sync" `Quick test_binary_sync;
          Alcotest.test_case "broadcast" `Quick test_broadcast;
          Alcotest.test_case "committed" `Quick test_committed;
          Alcotest.test_case "urgent location" `Quick test_urgent_location;
        ] );
      ( "checker",
        [
          Alcotest.test_case "deadlock exact" `Quick test_deadlock_exact;
          Alcotest.test_case "liveness idle" `Quick test_liveness_idle;
          Alcotest.test_case "liveness cycle" `Quick test_liveness_cycle;
        ] );
      ( "rich-trace",
        [ Alcotest.test_case "annotated witness" `Quick test_rich_trace ] );
      ( "clock-scopes",
        [
          Alcotest.test_case "fischer" `Quick test_scopes_fischer;
          Alcotest.test_case "train-gate" `Quick test_scopes_train_gate;
          Alcotest.test_case "global clocks" `Quick test_scopes_global;
          Alcotest.test_case "seal identity under target bounds" `Quick
            test_seal_identity_target_bounds;
          Alcotest.test_case "agree with global bounds" `Quick
            test_scopes_agree_with_global;
        ] );
      ( "zone-graph",
        [
          Alcotest.test_case "wp of target invariant" `Quick
            test_move_enabling_zone_wp;
          Alcotest.test_case "impossible move" `Quick
            test_move_enabling_zone_impossible;
          Alcotest.test_case "deadlocked direct" `Quick test_deadlocked_direct;
          Alcotest.test_case "moves match the reference enumeration" `Quick
            test_moves_match_reference;
          Alcotest.test_case "moves allocate only the list" `Quick
            test_moves_allocation;
          Alcotest.test_case "pair moves shared across states" `Quick
            test_pair_moves_shared;
          Alcotest.test_case "deadlocked matches the reference formula" `Quick
            test_deadlocked_matches_reference;
        ] );
      ( "union",
        [
          Alcotest.test_case "synchronises" `Quick test_union_synchronises;
          Alcotest.test_case "validation" `Quick test_union_validation;
          Alcotest.test_case "undeclared channel" `Quick test_undeclared_channel;
        ] );
      ( "dot",
        [ Alcotest.test_case "export" `Quick test_dot_export ] );
      ( "observer",
        [
          Alcotest.test_case "bounded reach" `Quick test_observer_bounded_reach;
          Alcotest.test_case "invariant until" `Quick test_observer_invariant_until;
          Alcotest.test_case "train-gate bound" `Quick test_observer_train_gate;
        ] );
      ( "random",
        [ QCheck_alcotest.to_alcotest prop_subsumption_preserves_verdicts ] );
      ( "fischer",
        [
          Alcotest.test_case "mutex" `Quick test_fischer_mutex;
          Alcotest.test_case "broken variant" `Quick test_fischer_broken;
          Alcotest.test_case "deadlock-free" `Quick test_fischer_deadlock_free;
          Alcotest.test_case "k scaling" `Quick test_fischer_k_scaling;
        ] );
      ( "train-gate",
        [
          Alcotest.test_case "safety" `Quick test_train_gate_safety;
          Alcotest.test_case "deadlock-free" `Quick test_train_gate_deadlock;
          Alcotest.test_case "liveness" `Slow test_train_gate_liveness;
          Alcotest.test_case "queue bound" `Quick test_train_gate_queue_bound;
          Alcotest.test_case "crossing" `Quick test_train_gate_crossing_reachable;
          Alcotest.test_case "broken gate unsafe" `Quick test_broken_gate_unsafe;
          Alcotest.test_case "subsumption ablation" `Quick test_subsumption_ablation;
        ] );
      ( "engine-integration",
        [
          Alcotest.test_case "equal zone subsumed" `Quick
            test_subsumption_equal_zone;
          Alcotest.test_case "weaker zones dropped" `Quick
            test_subsumption_drops_weaker;
          Alcotest.test_case "max-states truncation" `Quick
            test_max_states_truncation;
          Alcotest.test_case "extrapolation ablation" `Quick
            test_extrapolation_ablation;
        ] );
    ]
