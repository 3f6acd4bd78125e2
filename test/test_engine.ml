(* Tests for the shared exploration engine: the pluggable state stores
   (discrete / exact / subsume / best-cost), the search orders, trace
   reconstruction, truncation reporting, the node arena, and hash-consed
   DBM sealing. *)

module Dbm = Zones.Dbm
module Bound = Zones.Bound
module Store = Engine.Store
module Core = Engine.Core
module Stats = Engine.Stats
module Arena = Engine.Arena
module Codec = Engine.Codec

(* A one-word codec for plain-int test states: the keys every store
   test and every core test probes with. *)
let ispec = Codec.spec [ Codec.Word "v" ]
let ikey n = Codec.encode ispec (fun _ -> n)

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* Hand-built zones over two clocks                                    *)
(* ------------------------------------------------------------------ *)

(* Store zones are sealed canon handles — the store API accepts nothing
   else. *)
let raw_x_le n = Dbm.constrain (Dbm.universal ~clocks:2) 1 0 (Bound.le n)
let zone_x_le n = Dbm.seal (raw_x_le n)
let zone_y_le n = Dbm.seal (Dbm.constrain (Dbm.universal ~clocks:2) 2 0 (Bound.le n))

(* ------------------------------------------------------------------ *)
(* Stores                                                              *)
(* ------------------------------------------------------------------ *)

(* Each store is driven the way the core drives it: the caller
   computes the packed key and hands it to every probe. *)
let test_discrete_store () =
  let s = Store.discrete_keyed () in
  let ins v ~id = s.Store.kinsert v ~key:(ikey v) ~id in
  (match ins 1 ~id:0 with
   | Store.Added { dropped; _ } -> check_int "no evictions" 0 dropped
   | _ -> Alcotest.fail "first insert must be Added");
  (match ins 2 ~id:1 with
   | Store.Added _ -> ()
   | _ -> Alcotest.fail "distinct state must be Added");
  (match ins 1 ~id:2 with
   | Store.Dup id -> check_int "dup reports original id" 0 id
   | _ -> Alcotest.fail "repeat insert must be Dup");
  check_int "two states stored" 2 (s.Store.ksize ());
  check "discrete stores are never stale" false (s.Store.kstale 1 ~key:(ikey 1));
  check "words estimate is positive" true (s.Store.kwords () > 0)

let test_exact_store () =
  let s = Store.exact_keyed ~zone:snd () in
  let ins ((k, _) as st) ~id = s.Store.kinsert st ~key:(ikey k) ~id in
  (match ins (0, zone_x_le 3) ~id:0 with
   | Store.Added _ -> ()
   | _ -> Alcotest.fail "first insert must be Added");
  (* Equal zone under the same key: duplicate, pointing at the original. *)
  (match ins (0, zone_x_le 3) ~id:1 with
   | Store.Dup id -> check_int "dup id" 0 id
   | _ -> Alcotest.fail "equal zone must be Dup");
  (* A strictly larger zone is still a distinct state for an exact store. *)
  (match ins (0, zone_x_le 5) ~id:1 with
   | Store.Added _ -> ()
   | _ -> Alcotest.fail "unequal zone must be Added");
  (* Same zone under another key is unrelated. *)
  (match ins (1, zone_x_le 3) ~id:2 with
   | Store.Added _ -> ()
   | _ -> Alcotest.fail "other key must be Added");
  check_int "three states stored" 3 (s.Store.ksize ())

let test_subsume_store () =
  let s = Store.subsume_keyed ~zone:snd () in
  let ins ((k, _) as st) ~id = s.Store.kinsert st ~key:(ikey k) ~id in
  (match ins (0, zone_x_le 1) ~id:0 with
   | Store.Added _ -> ()
   | _ -> Alcotest.fail "first insert must be Added");
  (* Incomparable zone: kept alongside. *)
  (match ins (0, zone_y_le 1) ~id:1 with
   | Store.Added { dropped; _ } -> check_int "incomparable evicts nothing" 0 dropped
   | _ -> Alcotest.fail "incomparable zone must be Added");
  check_int "two incomparable zones stored" 2 (s.Store.ksize ());
  (* Equal to a stored zone: covered. *)
  (match ins (0, zone_x_le 1) ~id:2 with
   | Store.Covered -> ()
   | _ -> Alcotest.fail "equal zone must be Covered");
  (* Strictly inside a stored zone: covered. *)
  (match ins (0, Dbm.seal (Dbm.constrain (zone_x_le 1 :> Dbm.t) 2 0 (Bound.le 0))) ~id:2 with
   | Store.Covered -> ()
   | _ -> Alcotest.fail "included zone must be Covered");
  (* Strictly containing both stored zones: both must be dropped. *)
  (match ins (0, Dbm.seal (Dbm.universal ~clocks:2)) ~id:2 with
   | Store.Added { dropped; _ } -> check_int "both stored zones evicted" 2 dropped
   | _ -> Alcotest.fail "superset zone must be Added");
  check_int "only the superset remains" 1 (s.Store.ksize ());
  (* Zones under other keys are untouched by eviction. *)
  (match ins (1, zone_x_le 1) ~id:3 with
   | Store.Added { dropped; _ } -> check_int "other key untouched" 0 dropped
   | _ -> Alcotest.fail "other key must be Added")

let test_best_cost_store () =
  let s = Store.best_cost_keyed ~cost:snd () in
  let ins ((k, _) as st) ~id = s.Store.kinsert st ~key:(ikey k) ~id in
  let stale ((k, _) as st) = s.Store.kstale st ~key:(ikey k) in
  (match ins (1, 5) ~id:0 with
   | Store.Added _ -> ()
   | _ -> Alcotest.fail "first insert must be Added");
  (* Worse cost: covered by the cheaper stored entry. *)
  (match ins (1, 7) ~id:1 with
   | Store.Covered -> ()
   | _ -> Alcotest.fail "worse cost must be Covered");
  (* Better cost: re-opens the state rather than evicting a rival. *)
  (match ins (1, 3) ~id:1 with
   | Store.Added { dropped; reopened } ->
     check_int "re-opening is not an eviction" 0 dropped;
     check "re-opening reported" true reopened
   | _ -> Alcotest.fail "better cost must be Added");
  check "superseded entry is stale" true (stale (1, 5));
  check "current best is not stale" false (stale (1, 3));
  check_int "one key stored" 1 (s.Store.ksize ())

let test_store_size_hint () =
  (* A tiny hint must not limit capacity: the table grows by doubling. *)
  let s = Store.discrete_keyed ~size_hint:1 () in
  for i = 0 to 999 do
    match s.Store.kinsert i ~key:(ikey i) ~id:i with
    | Store.Added _ -> ()
    | _ -> Alcotest.fail "fresh state must be Added"
  done;
  check_int "all stored past the hint" 1000 (s.Store.ksize ())

(* ------------------------------------------------------------------ *)
(* The core loop                                                        *)
(* ------------------------------------------------------------------ *)

(* A small diamond over ints: 0 -> {1, 2} -> 3, plus a tail 3 -> 4. *)
let diamond n =
  if n = 0 then [ ("a", 1); ("b", 2) ]
  else if n = 1 || n = 2 then [ ("c", 3) ]
  else if n = 3 then [ ("d", 4) ]
  else []

(* A sequential run: the one loop over a single shard, no pool. *)
let run_seq ?max_states ?order ?record_edges ~store ~key ~successors
    ~on_state init =
  Core.run_sharded ?max_states ?order ?record_edges ~shards:1 ~store ~key
    ~successors ~on_state ~init ()

(* Plain-int states in a discrete store. *)
let run_ints ?max_states ?order ?record_edges =
  run_seq ?max_states ?order ?record_edges
    ~store:(fun () -> Store.discrete_keyed ())
    ~key:ikey

let run_diamond ~on_state () = run_ints ~successors:diamond ~on_state 0

let test_core_bfs_trace () =
  let out = run_diamond ~on_state:(fun n -> if n = 4 then Some n else None) () in
  (match out.Core.found with
   | Some (4, steps) ->
     (* BFS reaches 3 first through 1 (discovery order). *)
     Alcotest.(check (list string))
       "witness labels" [ "a"; "c"; "d" ]
       (List.map fst steps);
     Alcotest.(check (list int)) "witness states" [ 1; 3; 4 ] (List.map snd steps)
   | _ -> Alcotest.fail "expected to find 4");
  check_int "five states discovered" 5 (Array.length out.Core.states);
  check_int "initial state is id 0" 0 out.Core.states.(0);
  (* 3 and 4 popped? visited counts pops up to the hit. *)
  check "visited all five" true (out.Core.stats.Stats.visited = 5);
  check "one duplicate (3 via 2)" true (out.Core.stats.Stats.subsumed >= 1);
  check "frontier was tracked" true (out.Core.stats.Stats.peak_frontier >= 2);
  check "not truncated" false out.Core.stats.Stats.truncated;
  check "one shard reports no par info" true (out.Core.par = None)

let test_core_exhaustive () =
  let out = run_diamond ~on_state:(fun _ -> None) () in
  check "nothing found" true (out.Core.found = None);
  check_int "all states visited" 5 out.Core.stats.Stats.visited;
  check_int "all states stored" 5 out.Core.stats.Stats.stored

let test_core_priority () =
  (* Priority by value: pops ascending regardless of push order. *)
  let popped = ref [] in
  let succ n = if n = 0 then [ ("x", 9); ("x", 4); ("x", 7) ] else [] in
  let (_ : (int, string, unit) Core.outcome) =
    run_ints ~order:(Core.Priority Fun.id) ~successors:succ
      ~on_state:(fun n ->
        popped := n :: !popped;
        None)
      0
  in
  Alcotest.(check (list int)) "ascending pops" [ 0; 4; 7; 9 ] (List.rev !popped)

let test_core_dijkstra () =
  (* Weighted graph: 0 -5-> 2, 0 -1-> 1, 1 -1-> 2, 2 -1-> 3. The cheap
     route to 3 costs 3; the direct edge to 2 is re-opened at cost 2. *)
  let edges = function
    | 0 -> [ (5, 2); (1, 1) ]
    | 1 -> [ (1, 2) ]
    | 2 -> [ (1, 3) ]
    | _ -> []
  in
  let successors (n, c) =
    List.map (fun (w, m) -> (Printf.sprintf "%d->%d" n m, (m, c + w))) (edges n)
  in
  let out =
    run_seq ~order:(Core.Priority snd)
      ~store:(fun () -> Store.best_cost_keyed ~cost:snd ())
      ~key:(fun (n, _) -> ikey n)
      ~successors
      ~on_state:(fun (n, c) -> if n = 3 then Some c else None)
      (0, 0)
  in
  (match out.Core.found with
   | Some (cost, steps) ->
     check_int "optimal cost" 3 cost;
     Alcotest.(check (list string))
       "optimal path" [ "0->1"; "1->2"; "2->3" ]
       (List.map fst steps)
   | None -> Alcotest.fail "3 must be reachable");
  (* The cost-5 entry for node 2 was superseded and skipped at pop. *)
  check "re-opening recorded" true (out.Core.stats.Stats.reopened >= 1)

let test_core_truncation () =
  (* An infinite chain: the engine must stop and report, not raise. *)
  let out =
    run_ints ~max_states:10
      ~successors:(fun n -> [ ("s", n + 1) ])
      ~on_state:(fun _ -> None)
      0
  in
  check "truncated reported" true out.Core.stats.Stats.truncated;
  check "cause reported" true (out.Core.stopped = Some Core.Max_states);
  check "nothing found" true (out.Core.found = None);
  check "visited bounded" true (out.Core.stats.Stats.visited <= 11)

let test_core_record_edges () =
  let out =
    run_ints ~record_edges:true ~successors:diamond
      ~on_state:(fun _ -> None)
      0
  in
  check_int "edge rows per state" 5 (Array.length out.Core.edges);
  (* Both edges into 3 survive, including the duplicate via 2. *)
  let into_3 =
    Array.fold_left
      (fun acc row ->
        acc + List.length (List.filter (fun (_, dst) -> dst = 3) row))
      0 out.Core.edges
  in
  check_int "duplicate edge recorded" 2 into_3;
  (* Generation order is preserved per node. *)
  Alcotest.(check (list string))
    "labels out of 0" [ "a"; "b" ]
    (List.map fst out.Core.edges.(0))

let test_core_rejecting_init () =
  let store () =
    let s = Store.discrete_keyed () in
    (match s.Store.kinsert 0 ~key:(ikey 0) ~id:0 with
     | Store.Added _ -> ()
     | _ -> Alcotest.fail "setup insert");
    s
  in
  try
    ignore
      (run_seq ~store ~key:ikey
         ~successors:(fun _ -> [])
         ~on_state:(fun _ -> None)
         0);
    Alcotest.fail "expected Invalid_argument"
  with Invalid_argument _ -> ()

(* [Core.run] over a hand-built [Store.t] that derives its own keys —
   the way an external harness drives the engine — must reproduce the
   checker's sequential run of fischer-4 mutex. *)
let test_core_run_adapter () =
  let net = Ta.Fischer.make ~n:4 () in
  let bad =
    match Ta.Fischer.mutex net with
    | Ta.Prop.Invariant f -> Ta.Prop.Not f
    | _ -> Alcotest.fail "mutex is a safety query"
  in
  let lower, upper = Ta.Prop.merge_lu net bad in
  let extra = Dbm.Extra_lu { lower; upper } in
  let key = Ta.Zone_graph.pack (Ta.Zone_graph.codec net) in
  let k = Store.subsume_keyed ~zone:(fun st -> st.Ta.Zone_graph.zone) () in
  let store =
    {
      Store.name = k.Store.kname;
      insert = (fun s ~id -> k.Store.kinsert s ~key:(key s) ~id);
      stale = (fun s -> k.Store.kstale s ~key:(key s));
      size = k.Store.ksize;
      words = k.Store.kwords;
    }
  in
  let out =
    Core.run ~store
      ~successors:(Ta.Zone_graph.successors net ~extra)
      ~on_state:(fun st ->
        if Ta.Prop.holds_somewhere net st bad then Some () else None)
      ~init:(Ta.Zone_graph.initial net ~extra)
      ()
  in
  let r = Ta.Checker.check net (Ta.Fischer.mutex net) in
  check "no violation found" true (out.Core.found = None);
  check "one shard reports no par info" true (out.Core.par = None);
  check "wall time measured" true (out.Core.stats.Stats.time_s > 0.0);
  Alcotest.(check string)
    "stats match the checker (time aside)"
    (Stats.to_json { r.Ta.Checker.stats with Stats.time_s = 0.0 })
    (Stats.to_json { out.Core.stats with Stats.time_s = 0.0 })

(* ------------------------------------------------------------------ *)
(* Arena                                                                *)
(* ------------------------------------------------------------------ *)

let test_arena_growth () =
  let a = Arena.create () in
  for i = 0 to 999 do
    check_int "append-only ids" i (Arena.add a i)
  done;
  check_int "size" 1000 (Arena.size a);
  check_int "random access" 123 (Arena.get a 123);
  check_int "to_array keeps order" 999 (Arena.to_array a).(999);
  (try
     ignore (Arena.get a 1000);
     Alcotest.fail "expected out-of-range failure"
   with Invalid_argument _ -> ());
  let seen = ref 0 in
  Arena.iteri (fun i v -> if i = v then incr seen) a;
  check_int "iteri covers everything" 1000 !seen

let test_arena_keyed () =
  let a = Arena.Keyed.create ~size_hint:4 () in
  let k n = ikey n in
  (match Arena.Keyed.intern a (k 7) 70 with
   | 0, true -> ()
   | _ -> Alcotest.fail "first intern must be fresh id 0");
  (match Arena.Keyed.intern a (k 8) 80 with
   | 1, true -> ()
   | _ -> Alcotest.fail "second intern must be fresh id 1");
  (* Same key again (a distinct packed value, equal words): known id,
     original payload kept. *)
  (match Arena.Keyed.intern a (k 7) 999 with
   | 0, false -> ()
   | _ -> Alcotest.fail "re-intern must answer the existing id");
  check_int "payload survives re-intern" 70 (Arena.Keyed.get a 0);
  check_int "size counts unique keys" 2 (Arena.Keyed.size a);
  check "find known" true (Arena.Keyed.find a (k 8) = Some 1);
  check "find unknown" true (Arena.Keyed.find a (k 9) = None);
  check_int "to_array in id order" 80 (Arena.Keyed.to_array a).(1);
  check "words estimate positive" true (Arena.Keyed.words a > 0)

(* ------------------------------------------------------------------ *)
(* Hash-consed DBMs                                                     *)
(* ------------------------------------------------------------------ *)

let test_seal_physical_equality () =
  let z1 = zone_x_le 3 in
  let z2 = zone_x_le 3 in
  check "equal zones share one representative" true (z1 == z2);
  check "distinct zones stay distinct" false (z1 == zone_x_le 4);
  (* The pointer-equality fast path is counted, not scanned. *)
  Dbm.reset_cmp_stats ();
  check "subset via fast path" true (Dbm.subset (z1 :> Dbm.t) (z2 :> Dbm.t));
  check "equal via fast path" true (Dbm.equal (z1 :> Dbm.t) (z2 :> Dbm.t));
  let c = Dbm.cmp_stats () in
  check_int "two fast-path hits" 2 c.Dbm.phys_hits;
  check_int "no full scans" 0 c.Dbm.full_scans;
  (* Structurally equal but un-sealed: full scan. *)
  check "slow path still correct" true (Dbm.equal (raw_x_le 3) (raw_x_le 3));
  check "full scan counted" true ((Dbm.cmp_stats ()).Dbm.full_scans >= 1);
  (* Sealed handles carry the memoized hash used by the fused store key. *)
  check "memoized hash agrees" true
    (Dbm.hash (z1 :> Dbm.t) = Dbm.hash (z2 :> Dbm.t))

let test_stats_json () =
  let s =
    {
      Stats.visited = 3; stored = 2; subsumed = 1; dropped = 0;
      reopened = 0; peak_frontier = 2; store_words = 7; truncated = false;
      time_s = 0.5; dbm_phys_eq = 4; dbm_full_cmp = 6; dbm_lattice_cmp = 9;
      phases = [];
    }
  in
  let j = Stats.to_json s in
  List.iter
    (fun affix -> check affix true (Astring.String.is_infix ~affix j))
    [
      "\"visited\":3"; "\"stored\":2"; "\"subsumed\":1"; "\"dropped\":0";
      "\"reopened\":0"; "\"peak_frontier\":2"; "\"store_words\":7";
      "\"truncated\":false";
      "\"dbm_phys_eq\":4"; "\"dbm_full_cmp\":6"; "\"dbm_lattice_cmp\":9";
      "\"store_hit_rate\":";
    ]

(* ------------------------------------------------------------------ *)
(* Sharded parallel core                                               *)
(* ------------------------------------------------------------------ *)

(* Route by decoded state value: every diamond edge changes the value,
   so with [v mod shards] every successor is a cross-shard hand-off —
   the mailbox protocol is exercised on each transition. *)
let shard_by_value nsh pk = (Codec.decode ispec pk).(0) mod nsh

let run_diamond_sharded ?pool ?record_edges ?on_state ~shards () =
  let on_state = Option.value on_state ~default:(fun _ -> None) in
  Core.run_sharded ~shards ~shard_of:(shard_by_value shards) ?pool
    ?record_edges
    ~store:(fun () -> Store.discrete_keyed ())
    ~key:ikey ~successors:diamond ~on_state ~init:0 ()

let test_sharded_exhaustive () =
  let out = run_diamond_sharded ~shards:4 () in
  check "nothing found" true (out.Core.found = None);
  check_int "all states discovered" 5 (Array.length out.Core.states);
  check_int "initial state is id 0" 0 out.Core.states.(0);
  check_int "all visited" 5 out.Core.stats.Stats.visited;
  check_int "all stored" 5 out.Core.stats.Stats.stored;
  check_int "one duplicate (3 via 2)" 1 out.Core.stats.Stats.subsumed;
  check "scheduling times are pinned" true
    (out.Core.stats.Stats.time_s = 0.0 && out.Core.stats.Stats.phases = []);
  match out.Core.par with
  | None -> Alcotest.fail "sharded outcome must carry par info"
  | Some p ->
    check_int "every edge crossed shards" 5 p.Core.handoffs;
    check "rounds counted" true (p.Core.rounds >= 3);
    check "mailboxes saw traffic" true (p.Core.mailbox_hwm >= 1);
    check_int "no pool, no steals" 0 p.Core.steals

let test_sharded_witness_trace () =
  let out =
    run_diamond_sharded ~shards:4
      ~on_state:(fun n -> if n = 4 then Some n else None)
      ()
  in
  match out.Core.found with
  | Some (4, steps) ->
    (* Canonical winner: node 3 is first merged from the lower source
       shard (via 1), exactly the sequential BFS witness. *)
    Alcotest.(check (list string))
      "witness labels" [ "a"; "c"; "d" ]
      (List.map fst steps);
    Alcotest.(check (list int)) "witness states" [ 1; 3; 4 ] (List.map snd steps)
  | _ -> Alcotest.fail "expected to find 4"

(* Full structural identity across pool sizes — the determinism
   contract on states, parents, edges, stats and the deterministic
   par fields (steals excluded: scheduling-dependent by design). *)
let test_sharded_pool_identity () =
  let run pool = run_diamond_sharded ?pool ~record_edges:true ~shards:4 () in
  let a = run None in
  let b = Par.Pool.with_pool ~jobs:3 (fun p -> run (Some p)) in
  check "states identical" true (a.Core.states = b.Core.states);
  check "parents identical" true (a.Core.parents = b.Core.parents);
  check "edges identical" true (a.Core.edges = b.Core.edges);
  Alcotest.(check string)
    "stats identical" (Stats.to_json a.Core.stats) (Stats.to_json b.Core.stats);
  match (a.Core.par, b.Core.par) with
  | Some pa, Some pb ->
    check_int "rounds identical" pa.Core.rounds pb.Core.rounds;
    check_int "handoffs identical" pa.Core.handoffs pb.Core.handoffs;
    check_int "mailbox hwm identical" pa.Core.mailbox_hwm pb.Core.mailbox_hwm
  | _ -> Alcotest.fail "both runs must carry par info"

let test_sharded_record_edges () =
  let out = run_diamond_sharded ~record_edges:true ~shards:4 () in
  check_int "edge rows per state" 5 (Array.length out.Core.edges);
  let id_of v =
    let found = ref (-1) in
    Array.iteri (fun i s -> if s = v then found := i) out.Core.states;
    !found
  in
  (* Both edges into 3 survive — including the cross-shard duplicate
     via 2, whose destination id travelled back in the producer's
     resolution slot. *)
  let into_3 =
    Array.fold_left
      (fun acc row ->
        acc + List.length (List.filter (fun (_, dst) -> dst = id_of 3) row))
      0 out.Core.edges
  in
  check_int "duplicate edge recorded" 2 into_3;
  Alcotest.(check (list string))
    "labels out of 0 in generation order" [ "a"; "b" ]
    (List.map fst out.Core.edges.(id_of 0))

let test_sharded_best_cost () =
  (* The Dijkstra diamond of [test_core_dijkstra], in quiescent sharded
     mode: a worse-cost witness (via the direct 0 -5-> 2 edge) is found
     in an earlier round, then superseded by the cheap path — [prefer]
     must settle on the optimum. *)
  let edges = function
    | 0 -> [ (5, 2); (1, 1) ]
    | 1 -> [ (1, 2) ]
    | 2 -> [ (1, 3) ]
    | _ -> []
  in
  let successors (n, c) =
    List.map (fun (w, m) -> (Printf.sprintf "%d->%d" n m, (m, c + w))) (edges n)
  in
  let out =
    Core.run_sharded ~shards:4
      ~shard_of:(shard_by_value 4)
      ~stop_on_found:false ~prefer:compare
      ~store:(fun () -> Store.best_cost_keyed ~cost:snd ())
      ~key:(fun (n, _) -> ikey n)
      ~successors
      ~on_state:(fun (n, c) -> if n = 3 then Some c else None)
      ~init:(0, 0) ()
  in
  (match out.Core.found with
   | Some (cost, steps) ->
     check_int "optimal cost" 3 cost;
     Alcotest.(check (list string))
       "optimal path" [ "0->1"; "1->2"; "2->3" ]
       (List.map fst steps)
   | None -> Alcotest.fail "3 must be reachable");
  check "re-opening recorded" true (out.Core.stats.Stats.reopened >= 1)

(* jobs=1 vs jobs=4 byte-identity on real models, through the full
   checker: verdict, witness trace and rendered stats JSON. *)
let test_sharded_checker_identity () =
  List.iter
    (fun n ->
      let net = Ta.Fischer.make ~n () in
      List.iter
        (fun (qname, q) ->
          let r1 = Ta.Checker.check ~jobs:1 net q in
          let r4 = Ta.Checker.check ~jobs:4 net q in
          check (Printf.sprintf "fischer-%d %s verdict" n qname) r1.Ta.Checker.holds
            r4.Ta.Checker.holds;
          check
            (Printf.sprintf "fischer-%d %s trace" n qname)
            true
            (r1.Ta.Checker.trace = r4.Ta.Checker.trace);
          Alcotest.(check string)
            (Printf.sprintf "fischer-%d %s stats bytes" n qname)
            (Stats.to_json r1.Ta.Checker.stats)
            (Stats.to_json r4.Ta.Checker.stats))
        [ ("mutex", Ta.Fischer.mutex net); ("deadlock-free", Ta.Fischer.no_deadlock) ])
    [ 4; 5 ]

(* The memory budget is summed over shard stores, each shard polling
   the totals at the last barrier plus its own growth: the truncation
   point — and therefore the whole reported prefix — must not depend on
   the pool size. *)
let test_sharded_mem_budget_identity () =
  let net = Ta.Fischer.make ~n:4 () in
  let q = Ta.Fischer.mutex net in
  let run jobs =
    match Ta.Checker.check ~jobs ~mem_budget_words:60_000 net q with
    | (_ : Ta.Checker.result) -> Alcotest.fail "budget must truncate the run"
    | exception Ta.Checker.Truncated { reason = `Mem_budget; stats } -> stats
    | exception Ta.Checker.Truncated { reason = `Stop; _ } ->
      Alcotest.fail "wrong truncation reason"
  in
  let s1 = run 1 in
  let s4 = run 4 in
  check "budget truncation reported" true s1.Ta.Checker.truncated;
  Alcotest.(check string)
    "truncated stats identical across pool sizes" (Stats.to_json s1)
    (Stats.to_json s4)

(* ------------------------------------------------------------------ *)
(* Golden values of the sequential engine                              *)
(* ------------------------------------------------------------------ *)

(* Counters of jobs-less runs, pinned so that any change to the
   exploration loop shows up as a diff here. [store_words] and [time_s]
   are left out: they depend on the heap layout and the host. *)
let check_counts name (s : Stats.t) ~visited ~stored ~subsumed ~dropped ~peak =
  check_int (name ^ " visited") visited s.Stats.visited;
  check_int (name ^ " stored") stored s.Stats.stored;
  check_int (name ^ " subsumed") subsumed s.Stats.subsumed;
  check_int (name ^ " dropped") dropped s.Stats.dropped;
  check_int (name ^ " peak frontier") peak s.Stats.peak_frontier

let test_golden_fischer4 () =
  let net = Ta.Fischer.make ~n:4 () in
  List.iter
    (fun (name, q) ->
      let r = Ta.Checker.check net q in
      check (name ^ " holds") true r.Ta.Checker.holds;
      check (name ^ " sequential") true (r.Ta.Checker.par = None);
      check_counts name r.Ta.Checker.stats ~visited:3077 ~stored:3077
        ~subsumed:4252 ~dropped:0 ~peak:297)
    [ ("mutex", Ta.Fischer.mutex net); ("no-deadlock", Ta.Fischer.no_deadlock) ]

let test_golden_broken_fischer3 () =
  let net = Ta.Fischer.make ~strict_wait:false ~n:3 () in
  let r = Ta.Checker.check net (Ta.Fischer.mutex net) in
  check "mutex violated" false r.Ta.Checker.holds;
  check_counts "broken fischer-3" r.Ta.Checker.stats ~visited:86 ~stored:128
    ~subsumed:61 ~dropped:3 ~peak:46;
  Alcotest.(check (option (list string)))
    "witness"
    (Some
       [
         "P1.idle->req"; "P2.idle->req"; "P1.req->wait"; "P1.wait->cs";
         "P2.req->wait"; "P2.wait->cs";
       ])
    r.Ta.Checker.trace

let truncated_stats ?stop ?mem_budget_words () =
  let net = Ta.Fischer.make ~n:4 () in
  match Ta.Checker.check ?stop ?mem_budget_words net (Ta.Fischer.mutex net) with
  | (_ : Ta.Checker.result) -> Alcotest.fail "the run must be truncated"
  | exception Ta.Checker.Truncated { stats; _ } -> stats

let test_golden_stop () =
  let polls = ref 0 in
  let s =
    truncated_stats
      ~stop:(fun () ->
        incr polls;
        !polls >= 100)
      ()
  in
  check_int "stop polled once per visited state" 100 !polls;
  check_int "visited" 100 s.Stats.visited;
  check_int "stored" 181 s.Stats.stored

let test_golden_mem_budget () =
  let s = truncated_stats ~mem_budget_words:20_000 () in
  check_int "visited" 1769 s.Stats.visited;
  check_int "stored" 2049 s.Stats.stored

let test_golden_digital () =
  let g, s = Discrete.Digital.explore_stats (Ta.Train_gate.make ~n_trains:2) in
  check_int "states" 2058 (Array.length g.Discrete.Digital.states);
  check_int "visited" 2058 s.Stats.visited;
  check_int "transitions" 3846
    (Array.fold_left (fun a l -> a + List.length l) 0 g.Discrete.Digital.transitions)

let test_golden_cora_wcet () =
  let net = Ta.Train_gate.make ~n_trains:2 in
  let cross = Ta.Model.loc_index net 0 "Cross" in
  match
    Priced.min_time_reach net ~target:(fun st ->
        st.Discrete.Digital.dlocs.(0) = cross)
  with
  | None -> Alcotest.fail "Cross must be reachable"
  | Some o ->
    check_int "cost" 10 o.Priced.cost;
    check_int "explored" 293 o.Priced.explored;
    Alcotest.(check (list string))
      "steps"
      ([ "Train0.Safe->Appr[appr0!] Gate.Free->Occ[appr0?]" ]
       @ List.init 10 (fun _ -> "delay")
       @ [ "Train0.Appr->Cross" ])
      o.Priced.steps

let () =
  Alcotest.run "engine"
    [
      ( "stores",
        [
          Alcotest.test_case "discrete" `Quick test_discrete_store;
          Alcotest.test_case "exact" `Quick test_exact_store;
          Alcotest.test_case "subsume" `Quick test_subsume_store;
          Alcotest.test_case "best-cost" `Quick test_best_cost_store;
          Alcotest.test_case "size hint" `Quick test_store_size_hint;
        ] );
      ( "core",
        [
          Alcotest.test_case "bfs trace" `Quick test_core_bfs_trace;
          Alcotest.test_case "exhaustive" `Quick test_core_exhaustive;
          Alcotest.test_case "priority order" `Quick test_core_priority;
          Alcotest.test_case "dijkstra" `Quick test_core_dijkstra;
          Alcotest.test_case "truncation" `Quick test_core_truncation;
          Alcotest.test_case "record edges" `Quick test_core_record_edges;
          Alcotest.test_case "rejecting init" `Quick test_core_rejecting_init;
          Alcotest.test_case "run adapter" `Quick test_core_run_adapter;
        ] );
      ( "arena",
        [
          Alcotest.test_case "growth" `Quick test_arena_growth;
          Alcotest.test_case "keyed" `Quick test_arena_keyed;
        ] );
      ( "hashcons",
        [
          Alcotest.test_case "sealing" `Quick test_seal_physical_equality;
          Alcotest.test_case "stats json" `Quick test_stats_json;
        ] );
      ( "golden",
        [
          Alcotest.test_case "fischer-4 mutex and no-deadlock" `Quick
            test_golden_fischer4;
          Alcotest.test_case "broken fischer-3 witness" `Quick
            test_golden_broken_fischer3;
          Alcotest.test_case "stop hook truncation" `Quick test_golden_stop;
          Alcotest.test_case "mem budget truncation" `Quick
            test_golden_mem_budget;
          Alcotest.test_case "digital train-gate-2" `Quick test_golden_digital;
          Alcotest.test_case "cora wcet" `Quick test_golden_cora_wcet;
        ] );
      ( "sharded",
        [
          Alcotest.test_case "exhaustive cross-shard" `Quick
            test_sharded_exhaustive;
          Alcotest.test_case "witness trace" `Quick test_sharded_witness_trace;
          Alcotest.test_case "pool identity" `Quick test_sharded_pool_identity;
          Alcotest.test_case "record edges" `Quick test_sharded_record_edges;
          Alcotest.test_case "best cost" `Quick test_sharded_best_cost;
          Alcotest.test_case "checker jobs identity" `Slow
            test_sharded_checker_identity;
          Alcotest.test_case "mem budget identity" `Quick
            test_sharded_mem_budget_identity;
        ] );
    ]
