(* Benchmark worker: the process run.py spawns
   fresh for every sample, so each measurement pays what a one-shot CLI
   user pays (cold heap, cold intern tables) and never what an earlier
   sample warmed up.

     worker.exe setup <workload>        build the workload's models, exit
     worker.exe run <workload> <i>      run its query i untraced
     worker.exe trace <workload>        traced per-layer rebuild
     worker.exe calibrate <jobs>        time the calibration kernel

   Every mode first builds the workload's models and prints
   [ready {"build_s": ...}]; run.py times spawn-to-ready as set-up
   and ready-to-last-line as the query's wall time. [run] prints the
   query's verdict as one JSON line; [trace] prints one JSON object of
   per-layer metrics, the verdicts it checked and any mismatch between
   the traced rebuild and the untraced checker. *)

open Quantlib
module Json = Obs.Json
module Dbm = Zones.Dbm
module Zg = Ta.Zone_graph

let emit j =
  print_endline (Json.to_string j);
  flush stdout

let wall f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

(* ------------------------------------------------------------------ *)
(* Workload models                                                      *)
(* ------------------------------------------------------------------ *)

(* A named query over a built network, as `quantcli check` runs it. *)
type query = { qname : string; net : Ta.Model.network; q : Ta.Prop.query }

let model_queries (spec : Serve.Models.spec) n =
  let net = spec.Serve.Models.make n in
  List.map
    (fun (name, q) ->
      { qname = Printf.sprintf "%s-%d/%s" spec.Serve.Models.name n name; net; q })
    (spec.Serve.Models.queries net)

(* zone-seq: the cold one-shot path of `quantcli check` on the two
   classic UPPAAL models. zone-sharded: the same fischer-5 queries on
   the sharded engine (`quantcli check --jobs 2`). *)
let zone_seq_queries () =
  model_queries Serve.Models.fischer 5 @ model_queries Serve.Models.train_gate 5

let zone_sharded_queries () = model_queries Serve.Models.fischer 5

(* The smoke test's small sharded checks (`run.py --smoke`). *)
let smoke_queries () =
  model_queries Serve.Models.fischer 3 @ model_queries Serve.Models.fischer 4

(* The E1 zone checks of the paper suite, rebuilt under the tracer. *)
let e1_queries () =
  let tg4 = Ta.Train_gate.make ~n_trains:4 and f3 = Ta.Fischer.make ~n:3 () in
  [
    { qname = "train-gate-4/safety"; net = tg4; q = Ta.Train_gate.safety tg4 };
    { qname = "train-gate-4/no deadlock"; net = tg4; q = Ta.Train_gate.no_deadlock };
    { qname = "fischer-3/mutual exclusion"; net = f3; q = Ta.Fischer.mutex f3 };
  ]

(* The models quantd-mix requests touch, built the way the daemon's
   registry builds them; only their build time is reported. *)
let served_models () =
  List.iter
    (fun (spec : Serve.Models.spec) ->
      List.iter (fun n -> ignore (spec.Serve.Models.make n)) [ 2; 3; 4 ])
    Serve.Models.all;
  ignore (Modest.Brp.make ())

(* ------------------------------------------------------------------ *)
(* Per-domain self-time accumulators                                    *)
(* ------------------------------------------------------------------ *)

(* One slot per wrapped layer call. Each domain owns its arrays (via
   Domain.DLS) and writes them without synchronisation; the arrays are
   registered once per domain and summed after the run, when the pool
   is quiescent. Ticks are Obs.Clock readings (~8ns a read). *)
let s_moves = 0
let s_apply = 1
let s_pack = 2
let s_store = 3
let s_deadlock = 4
let s_prop = 5
let s_enabled = 6 (* calls only: apply_move calls that produced a successor *)
let n_slots = 7

let registered : (float array * int array) list ref = ref []
let reg_lock = Mutex.create ()

let slots_key =
  Domain.DLS.new_key (fun () ->
      let cell = (Array.make n_slots 0.0, Array.make n_slots 0) in
      Mutex.protect reg_lock (fun () -> registered := cell :: !registered);
      cell)

let timed slot f =
  let ticks, calls = Domain.DLS.get slots_key in
  let t0 = Obs.Clock.now () in
  let r = f () in
  ticks.(slot) <- ticks.(slot) +. (Obs.Clock.now () -. t0);
  calls.(slot) <- calls.(slot) + 1;
  r

let count slot =
  let _, calls = Domain.DLS.get slots_key in
  calls.(slot) <- calls.(slot) + 1

let slot_totals () =
  let secs = Array.make n_slots 0.0 and calls = Array.make n_slots 0 in
  List.iter
    (fun (t, c) ->
      for i = 0 to n_slots - 1 do
        secs.(i) <- secs.(i) +. Obs.Clock.to_s t.(i);
        calls.(i) <- calls.(i) + c.(i)
      done)
    !registered;
  (secs, calls)

(* Raw tallies summed over every traced exploration of a sample; the
   derived per-layer metrics are computed from them once at the end. *)
let raw : (string, float) Hashtbl.t = Hashtbl.create 64
let get k = Option.value (Hashtbl.find_opt raw k) ~default:0.0
let add k v = Hashtbl.replace raw k (get k +. v)
let addi k v = add k (float_of_int v)
let maxi k v = Hashtbl.replace raw k (Float.max (get k) (float_of_int v))

(* The denominator of every time share: the traced explorations' busy
   time, summed over domains when sharded. *)
let busy () = get "zone_busy_s"

(* ------------------------------------------------------------------ *)
(* Traced rebuild of Ta.Checker's zone exploration                      *)
(* ------------------------------------------------------------------ *)

(* The extrapolation and witness predicate Ta.Checker.check uses for
   each query shape the workloads run (safety, reachability, deadlock);
   [found = None] means the query holds unless it is a reachability
   query. *)
let plan net = function
  | Ta.Prop.Invariant f | Ta.Prop.Possibly f as q ->
    let f = match q with Ta.Prop.Invariant _ -> Ta.Prop.Not f | _ -> f in
    let lower, upper = Ta.Prop.merge_lu net f in
    ( Dbm.Extra_lu { lower; upper },
      (fun st ->
        if timed s_prop (fun () -> Ta.Prop.holds_somewhere net st f) then Some ()
        else None),
      match q with Ta.Prop.Possibly _ -> true | _ -> false )
  | Ta.Prop.NoDeadlock ->
    ( Dbm.Extra_m (Array.copy net.Ta.Model.max_consts),
      (fun st ->
        if timed s_deadlock (fun () -> Ta.Checker.deadlocked net st) then Some ()
        else None),
      false )
  | Ta.Prop.Eventually _ | Ta.Prop.LeadsTo _ ->
    invalid_arg "worker: liveness queries are not traced"

let traced_successors net ~extra (st : Zg.state) =
  let mvs = timed s_moves (fun () -> Zg.moves net st.Zg.locs st.Zg.store) in
  List.filter_map
    (fun (mv : Zg.move) ->
      match timed s_apply (fun () -> Zg.apply_move net ~extra st mv) with
      | Some st' ->
        count s_enabled;
        Some (mv.Zg.mv_label, st')
      | None -> None)
    mvs

(* Ta.Checker's exploration rebuilt with the packing and the keyed
   store insert timed apart: Core.run over the store Store.subsume ~key
   builds (the key is computed on insert and on the stale probe), or,
   with a pool, Core.run_sharded over Ta.Checker's per-shard store. *)
let rebuild ?pool { net; q; _ } =
  let extra, on_state, reach = plan net q in
  let spec = Zg.codec net in
  let key st = timed s_pack (fun () -> Zg.pack spec st) in
  let zone (st : Zg.state) = st.Zg.zone in
  let timed_insert (k : _ Engine.Store.keyed) s ~key ~id =
    timed s_store (fun () -> k.Engine.Store.kinsert s ~key ~id)
  in
  let successors = traced_successors net ~extra in
  let init = Zg.initial net ~extra in
  let out, run_s =
    wall (fun () ->
        match pool with
        | None ->
          let k = Engine.Store.subsume_keyed ~zone () in
          let store =
            {
              Engine.Store.name = k.Engine.Store.kname;
              insert = (fun s ~id -> timed_insert k s ~key:(key s) ~id);
              stale = (fun s -> k.Engine.Store.kstale s ~key:(key s));
              size = k.Engine.Store.ksize;
              words = k.Engine.Store.kwords;
            }
          in
          Engine.Core.run ~store ~successors ~on_state ~init ()
        | Some pool ->
          let store () =
            let k = Engine.Store.subsume_keyed ~size_hint:256 ~zone () in
            { k with Engine.Store.kinsert = timed_insert k }
          in
          Engine.Core.run_sharded ~pool ~store ~key ~successors ~on_state ~init ())
  in
  (out, run_s, reach)

(* One query's traced rebuild under the flight recorder; returns its
   verdict and stats for {!against_checker}. *)
let traced_query ?pool (qr : query) =
  let cmp0 = Dbm.cmp_stats () in
  (* enable zeroes the phase totals, so they cover this rebuild alone. *)
  Obs.Flight.enable ();
  let out, run_s, reach = rebuild ?pool qr in
  let ph = Obs.Flight.totals () in
  let phase name = match List.assoc_opt name ph with Some (_, s) -> s | None -> 0.0 in
  (match pool with
   | None -> add "zone_busy_s" run_s
   | Some pool ->
     add "zone_busy_s" (phase "engine.shard_merge" +. phase "engine.shard_expand");
     add "par_wall_s" (run_s *. float_of_int (Par.Pool.jobs pool)));
  Obs.Flight.disable ();
  let cmp1 = Dbm.cmp_stats () in
  maxi "dbm_intern" (Dbm.intern_size ());
  add "zone_traced_s" run_s;
  List.iter (fun (name, (_, s)) -> add ("ph." ^ name) s) ph;
  let st = out.Engine.Core.stats in
  addi "visited" st.Engine.Stats.visited;
  addi "stored" st.Engine.Stats.stored;
  addi "subsumed" st.Engine.Stats.subsumed;
  addi "dropped" st.Engine.Stats.dropped;
  addi "words" st.Engine.Stats.store_words;
  maxi "peak_frontier" st.Engine.Stats.peak_frontier;
  addi "lattice" (cmp1.Dbm.lattice_scans - cmp0.Dbm.lattice_scans);
  addi "phys" (cmp1.Dbm.phys_hits - cmp0.Dbm.phys_hits);
  addi "full" (cmp1.Dbm.full_scans - cmp0.Dbm.full_scans);
  (match out.Engine.Core.par with
   | Some p ->
     addi "rounds" p.Engine.Core.rounds;
     addi "handoffs" p.Engine.Core.handoffs;
     addi "steals" p.Engine.Core.steals;
     maxi "mailbox_hwm" p.Engine.Core.mailbox_hwm
   | None -> ());
  ((out.Engine.Core.found <> None) = reach, st)

(* The untraced reference check a rebuild must reproduce: verdict,
   visited, stored and subsumed — and every stat when sharded. *)
let against_checker ?pool (qr : query) (holds, st) =
  let jobs = Option.map Par.Pool.jobs pool in
  let ref_r = Ta.Checker.check ?jobs ?pool qr.net qr.q in
  let ref_st = ref_r.Ta.Checker.stats in
  let mismatch =
    if holds <> ref_r.Ta.Checker.holds then Some "verdict"
    else if pool <> None then
      if Engine.Stats.to_json st <> Engine.Stats.to_json ref_st then Some "stats"
      else None
    else if
      st.Engine.Stats.visited <> ref_st.Engine.Stats.visited
      || st.Engine.Stats.stored <> ref_st.Engine.Stats.stored
      || st.Engine.Stats.subsumed <> ref_st.Engine.Stats.subsumed
    then Some "visited/stored/subsumed"
    else None
  in
  ( Json.Obj [ ("query", Json.Str qr.qname); ("holds", Json.Bool ref_r.Ta.Checker.holds) ],
    Option.map (fun what -> Json.Str (qr.qname ^ ": traced rebuild differs in " ^ what)) mismatch )

(* Layer metrics of the traced zone explorations, as shares of the busy
   time (the explorations' wall time; summed domain busy time when
   sharded) so that a layer a workload never reaches reads 0. Nesting:
   dbm.extrapolate and dbm.seal (disjoint) inside apply_move;
   store.insert inside store.subsume, and both with store.probe inside
   the keyed insert; every named phase inside engine.shard_merge or
   engine.shard_expand when sharded. *)
let zone_metrics () =
  let secs, calls = slot_totals () in
  let ph name = get ("ph." ^ name) in
  let busy = busy () in
  let share x = if busy > 0.0 then x /. busy else 0.0 in
  let ratio a b = if b > 0.0 then a /. b else 0.0 in
  let seal = ph "dbm.seal" and extrapolate = ph "dbm.extrapolate" in
  let probe = ph "store.probe" and subsume = ph "store.subsume" in
  let insert = ph "store.insert" and frontier = ph "engine.frontier_pop" in
  let attributed =
    frontier +. secs.(s_prop) +. secs.(s_deadlock) +. secs.(s_moves)
    +. secs.(s_apply) +. secs.(s_pack) +. secs.(s_store)
  in
  let f x = Json.Float x and i x = Json.Int x in
  let fi k = i (int_of_float (get k)) in
  [
    ("trace.busy_s", f busy);
    ("ta.zone_graph.moves_share", f (share secs.(s_moves)));
    ("ta.zone_graph.moves_calls", i calls.(s_moves));
    ( "ta.zone_graph.apply_self_share",
      f (share (secs.(s_apply) -. seal -. extrapolate)) );
    ("ta.zone_graph.apply_calls", i calls.(s_apply));
    ( "ta.zone_graph.enabled_ratio",
      f (ratio (float_of_int calls.(s_enabled)) (float_of_int calls.(s_apply))) );
    ("zones.dbm.extrapolate_share", f (share extrapolate));
    ("zones.dbm.seal_share", f (share seal));
    ("zones.dbm.lattice_scans", fi "lattice");
    ("zones.dbm.scans_per_state", f (ratio (get "lattice") (get "visited")));
    ( "zones.dbm.phys_eq_ratio",
      f (ratio (get "phys") (get "phys" +. get "full")) );
    ("zones.dbm.intern_size", fi "dbm_intern");
    ("engine.codec.pack_share", f (share secs.(s_pack)));
    ("engine.codec.pack_calls", i calls.(s_pack));
    ("engine.store.call_share", f (share (secs.(s_store) -. probe -. subsume)));
    ("engine.store.probe_share", f (share probe));
    ("engine.store.subsume_share", f (share (subsume -. insert)));
    ("engine.store.insert_share", f (share insert));
    ( "engine.store.covered_ratio",
      f
        (ratio (get "subsumed")
           (get "stored" +. get "dropped" +. get "subsumed")) );
    ("engine.store.dropped", fi "dropped");
    ("engine.store.words", fi "words");
    ("engine.core.visited", fi "visited");
    ("engine.core.peak_frontier", fi "peak_frontier");
    ("engine.core.frontier_share", f (share frontier));
    ("engine.core.unattributed_ratio", f (share (busy -. attributed)));
    ("ta.checker.deadlock_share", f (share secs.(s_deadlock)));
    ("ta.checker.deadlock_calls", i calls.(s_deadlock));
    ("ta.prop.eval_share", f (share secs.(s_prop)));
    ("par.rounds", fi "rounds");
    ("par.handoffs", fi "handoffs");
    ("par.steals", fi "steals");
    ("par.mailbox_hwm", fi "mailbox_hwm");
    ("par.merge_share", f (share (ph "engine.shard_merge")));
    ("par.expand_share", f (share (ph "engine.shard_expand")));
    ("par.busy_ratio", f (ratio busy (get "par_wall_s")));
  ]

(* ------------------------------------------------------------------ *)
(* Worker modes                                                         *)
(* ------------------------------------------------------------------ *)

(* The calibration kernel: fixed work that runs no quantlib code
   (allocation, polymorphic hashing, a hash table, a sort), timed
   in-process. run.py times it next to every sample and scales the
   sample by it, so the speed drift of a shared host cancels out of the
   reported times while a change to quantlib cannot move the yardstick.
   It runs on [jobs] domains at once and is timed until the last one
   ends: a workload that keeps two cores busy is slowed by a neighbour
   on either core. *)
let calibrate jobs =
  let kernel () =
    let h = Hashtbl.create 1024 in
    for i = 0 to 150_000 do
      let a = Array.init 8 (fun j -> ((i * 31) + (j * 7)) land 1023) in
      Hashtbl.replace h (Hashtbl.hash a + i) a
    done;
    let keys = Hashtbl.fold (fun k _ acc -> k :: acc) h [] in
    ignore (List.length (List.sort compare keys))
  in
  let (), s =
    wall (fun () ->
        let others = List.init (jobs - 1) (fun _ -> Domain.spawn kernel) in
        kernel ();
        List.iter Domain.join others)
  in
  emit (Json.Obj [ ("calibrate_s", Json.Float s) ])

let gc_metrics () =
  let g = Gc.quick_stat () in
  [
    ( "gc.top_heap_mb",
      Json.Float (float_of_int (g.Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.0) );
    ("gc.major_collections", Json.Int g.Gc.major_collections);
    ("gc.minor_mwords", Json.Float (g.Gc.minor_words /. 1e6));
  ]

let ready build_s =
  Printf.printf "ready %s\n%!" (Json.to_string (Json.Obj [ ("build_s", Json.Float build_s) ]))

let usage () =
  prerr_endline
    "usage: worker.exe (setup|run|trace) \
     (zone-seq|zone-sharded|paper-suite|quantd-mix|smoke) [QUERY] | calibrate JOBS";
  exit 2

let zone_queries = function
  | "zone-seq" -> zone_seq_queries ()
  | "zone-sharded" -> zone_sharded_queries ()
  | "paper-suite" -> e1_queries ()
  | "smoke" -> smoke_queries ()
  | _ -> usage ()

let with_workload_pool workload f =
  if workload = "zone-sharded" || workload = "smoke" then Par.Pool.with_pool ~jobs:2 (fun p -> f (Some p))
  else f None

(* Query [i] of the workload, or with [None] (setup) nothing after ready. *)
let run_query workload i =
  let qs, build_s = wall (fun () -> Array.of_list (zone_queries workload)) in
  with_workload_pool workload @@ fun pool ->
  ready build_s;
  Option.iter
    (fun i ->
      let qr = qs.(i) in
      let jobs = Option.map Par.Pool.jobs pool in
      let r = Ta.Checker.check ?jobs ?pool qr.net qr.q in
      emit
        (Json.Obj
           [ ("query", Json.Str qr.qname); ("holds", Json.Bool r.Ta.Checker.holds) ]))
    i

(* The traced sample. [zone_traced_s] (the traced explorations alone)
   lets run.py price the tracer against an untraced sample of the
   same queries. *)
let trace workload =
  let qs, build_s = wall (fun () -> zone_queries workload) in
  with_workload_pool workload @@ fun pool ->
  ready build_s;
  (* Every rebuild runs before any reference check, so no untraced run
     warms the heap or the intern tables for a traced one. *)
  let traced = List.map (traced_query ?pool) qs in
  let rows = List.map2 (against_checker ?pool) qs traced in
  let metrics =
    (("trace.wall_s", Json.Float (get "zone_traced_s")) :: zone_metrics ()) @ gc_metrics ()
  in
  emit
    (Json.Obj
       [
         ("metrics", Json.Obj metrics);
         ("zone_traced_s", Json.Float (get "zone_traced_s"));
         ("verdicts", Json.Arr (List.map fst rows));
         ("mismatches", Json.Arr (List.filter_map snd rows));
       ])

let () =
  match Array.to_list Sys.argv |> List.tl with
  | [ "setup"; "quantd-mix" ] ->
    let (), build_s = wall served_models in
    ready build_s
  | [ "setup"; workload ] -> run_query workload None
  | [ "run"; workload; i ] -> run_query workload (Some (int_of_string i))
  | [ "trace"; workload ] -> trace workload
  | [ "calibrate"; jobs ] -> calibrate (int_of_string jobs)
  | _ -> usage ()
