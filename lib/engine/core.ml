module Pqueue = Quant_util.Pqueue
module Dbm = Zones.Dbm

(* Engine instruments on the default Obs registry: handles are resolved
   once here; the loop below pays one mutable write per update. *)
let m_runs = Obs.counter "engine.runs"
let m_visited = Obs.counter "engine.visited"
let m_stored = Obs.counter "engine.stored"
let m_subsumed = Obs.counter "engine.subsumed"
let m_dropped = Obs.counter "engine.dropped"
let m_reopened = Obs.counter "engine.reopened"
let m_truncated = Obs.counter "engine.truncated"
let m_peak_frontier = Obs.gauge "engine.peak_frontier"
let m_fanout = Obs.histogram "engine.fanout"
let m_run_wall = Obs.histogram "engine.run_wall_s"

(* Flight-recorder phases (ids interned once; recording is a no-op
   unless [Obs.Flight.enable] ran). [codec.encode] is the packed-key
   construction of every successor, timed here because the loop, not
   the store, computes keys. *)
let ph_pop = Obs.Flight.intern "engine.frontier_pop"
let ph_frontier_len = Obs.Flight.intern "engine.frontier_len"
let ph_encode = Obs.Flight.intern "codec.encode"
let ph_shard_merge = Obs.Flight.intern "engine.shard_merge"
let ph_shard_expand = Obs.Flight.intern "engine.shard_expand"
let ph_mailbox_len = Obs.Flight.intern "engine.mailbox_len"

type 's order = Bfs | Priority of ('s -> int)

type ('s, 'l) node = { state : 's; parent : int; label : 'l option }

type stop_cause = Max_states | Mem_budget | Stop_requested

type par_info = {
  par_shards : int;
  rounds : int;
  steals : int;
  handoffs : int;
  mailbox_hwm : int;
}

type ('s, 'l, 'a) outcome = {
  found : ('a * ('l * 's) list) option;
  states : 's array;
  parents : (int * 'l option) array;
  edges : ('l * int) list array;
  stopped : stop_cause option;
  stats : Stats.t;
  par : par_info option;
}

(* ------------------------------------------------------------------ *)
(* The passed/waiting loop.

   The packed-state space is partitioned over [shards] disjoint shards
   by key hash; each shard owns a private arena, keyed store and
   frontier, so no lock ever guards a store probe. Execution proceeds
   in barrier-synchronised rounds (Par.Shards): a shard's step first
   {e merges} the mailbox messages other shards addressed to it in the
   previous round, then {e expands} its frontier to exhaustion —
   in-shard successors continue within the same round, cross-shard
   successors are pushed into the current round's outboxes. The round
   barrier is the only synchronisation: a mailbox is written by exactly
   one shard step in round [r] and read by exactly one in round [r+1].
   A sequential run is the one-shard case: every successor stays in
   its shard, so the run is a single round of a plain BFS (or
   Dijkstra) loop.

   Determinism: which domain runs a shard step never influences what
   the step computes — shard state is touched only by its own step, and
   messages are merged in (source shard, push order), a key order
   independent of scheduling. Node ids are made canonical after the
   run by densely renumbering shards in rotation order starting at the
   initial state's shard, so the initial state is id 0 and every id,
   trace, edge list and stat is byte-identical across pool sizes.
   [time_s] and [phases] are scheduling observables once there are
   several shards, so multi-shard stats pin them to [0.0] / [[]];
   wall-clock belongs to the caller's bench harness, steal counts to
   {!par_info}. *)

(* A shard's waiting list of local arena indices: FIFO for [Bfs], a
   binary heap for [Priority] (ties in insertion order). *)
type 's frontier = Fifo of int Queue.t | Heap of int Pqueue.t * ('s -> int)

let frontier_push f idx st =
  match f with
  | Fifo q -> Queue.push idx q
  | Heap (h, pri) -> Pqueue.push h ~priority:(pri st) idx

(* The next local index, or -1 when the frontier is empty. *)
let frontier_pop = function
  | Fifo q -> if Queue.is_empty q then -1 else Queue.pop q
  | Heap (h, _) -> (
      match Pqueue.pop_min h with Some (_, idx) -> idx | None -> -1)

let frontier_length = function
  | Fifo q -> Queue.length q
  | Heap (h, _) -> Pqueue.length h

(* A successor handed across shards. [m_res]/[m_res_i] carry the
   producer's edge-resolution slot: the consumer writes the id it
   assigned (or keeps -1 for covered) before the next barrier, which is
   what makes [record_edges] exact under sharding. *)
type ('s, 'l) msg = {
  m_state : 's;
  m_key : Codec.packed;
  m_parent : int;
  m_label : 'l;
  m_res : int array;
  m_res_i : int; (* -1 when edges are off *)
}

type ('s, 'l, 'a) shard = {
  sid : int;
  arena : ('s, 'l) node Arena.t; (* parents: global ids, -1 for the root *)
  st : 's Store.keyed;
  frontier : 's frontier;
  mutable visited : int;
  mutable subsumed : int;
  mutable dropped : int;
  mutable reopened : int;
  mutable peak : int;
  mutable sent : int;
  mutable witnesses : (int * 'a) list; (* local idx, newest first *)
  mutable halted : bool; (* a witness (stop_on_found) or a bound tripped *)
  mutable cause : stop_cause option; (* the bound this shard tripped *)
  mutable elog : (int * 'l array * int array) list; (* gid, labels, dst gids *)
  (* Bound polling: this shard's counts at the last barrier, its last
     measured store words, and the node count at which it next
     measures them. *)
  mutable visited_mark : int;
  mutable nodes_mark : int;
  mutable words : int;
  mutable words_mark : int;
  mutable next_words : int;
}

let run_sharded ?(max_states = 1_000_000) ?stop ?mem_budget_words
    ?(order = Bfs) ?(record_edges = false) ?(stop_on_found = true) ?prefer
    ?(shards = 64) ?shard_of ?pool ~(store : unit -> 's Store.keyed)
    ~(key : 's -> Codec.packed) ~successors ~on_state ~init () =
  if shards < 1 then invalid_arg "Engine: shards must be >= 1";
  let nsh = shards in
  let solo = nsh = 1 in
  Obs.Span.with_ ~name:(if solo then "engine.run" else "engine.run_sharded")
  @@ fun () ->
  let t0 = Unix.gettimeofday () in
  let cmp0 = Dbm.cmp_stats () in
  let fl0 =
    if solo && Obs.Flight.is_enabled () then Obs.Flight.totals () else []
  in
  let route =
    match shard_of with
    | Some f -> f
    | None ->
      (* Route on the high half of the memoized key hash: the store's
         probe tables index on the low bits, so low-bit routing would
         cluster every shard's entries into a slice of its table. *)
      fun pk -> Codec.hash pk lsr 32 mod nsh
  in
  let shard_arr =
    Array.init nsh (fun sid ->
        {
          sid;
          arena = Arena.create ();
          st = store ();
          frontier =
            (match order with
             | Bfs -> Fifo (Queue.create ())
             | Priority f -> Heap (Pqueue.create (), f));
          visited = 0;
          subsumed = 0;
          dropped = 0;
          reopened = 0;
          peak = 0;
          sent = 0;
          witnesses = [];
          halted = false;
          cause = None;
          elog = [];
          visited_mark = 0;
          nodes_mark = 0;
          words = 0;
          words_mark = 0;
          next_words = 2048;
        })
  in
  (* boxes.(p).(src).(dst): double-buffered so round r writes parity p
     while reading parity 1-p; the barrier flip in [continue_] is the
     happens-before edge between writer and reader. *)
  let boxes =
    Array.init 2 (fun _ ->
        Array.init nsh (fun _ -> Array.init nsh (fun _ -> Par.Mailbox.create ())))
  in
  let parity = ref 0 in
  let stopped = ref None in
  let no_res = [||] in
  (* Offer a state to shard [sh]'s store; on acceptance commit it to the
     arena and frontier. Returns the global id it lives under, -1 when
     covered. Global ids interleave shards ([idx * nsh + sid]) so a
     node's home shard is recoverable from its id alone. *)
  let accept sh ~parent ~label ~pk st =
    let gid = (Arena.size sh.arena * nsh) + sh.sid in
    match sh.st.Store.kinsert st ~key:pk ~id:gid with
    | Store.Added { dropped = d; reopened = r } ->
      sh.dropped <- sh.dropped + d;
      if r then sh.reopened <- sh.reopened + 1;
      frontier_push sh.frontier
        (Arena.add sh.arena { state = st; parent; label })
        st;
      let len = frontier_length sh.frontier in
      if len > sh.peak then sh.peak <- len;
      gid
    | Store.Dup id' ->
      sh.subsumed <- sh.subsumed + 1;
      id'
    | Store.Covered ->
      sh.subsumed <- sh.subsumed + 1;
      -1
  in
  (* Bounds are polled after every visited state, each shard against
     the totals at the last barrier plus its own growth since: exactly
     per-state polling with one shard, and independent of scheduling
     with several. The store's retained-words walk is O(store size), so
     it is measured at geometrically spaced node counts: the total cost
     stays a constant factor of one final walk, yet a run that outgrows
     its budget is caught within ~25% of the threshold. *)
  let visited_base = ref 0 and nodes_base = ref 0 and words_base = ref 0 in
  let bound_hit sh =
    let nodes = !nodes_base + Arena.size sh.arena - sh.nodes_mark in
    if !visited_base + sh.visited - sh.visited_mark > max_states
       || nodes > max_states
    then Some Max_states
    else if match stop with Some f -> f () | None -> false then
      Some Stop_requested
    else
      match mem_budget_words with
      | Some budget when nodes >= sh.next_words ->
        sh.next_words <- nodes + max 1024 (nodes / 4);
        sh.words <- sh.st.Store.kwords ();
        if !words_base + sh.words - sh.words_mark > budget then
          Some Mem_budget
        else None
      | _ -> None
  in
  let expand sh idx =
    let node = Arena.get sh.arena idx in
    (* Nodes keep no packed key, which keeps the arena small: the stale
       probe re-encodes the state. *)
    if not (sh.st.Store.kstale node.state ~key:(key node.state)) then begin
      sh.visited <- sh.visited + 1;
      (* Periodic frontier-depth samples become a counter track in the
         trace; the mask check is the only always-on cost. *)
      if sh.visited land 1023 = 0 then
        Obs.Flight.sample ph_frontier_len
          (float_of_int (frontier_length sh.frontier));
      match bound_hit sh with
      | Some _ as cause ->
        sh.cause <- cause;
        sh.halted <- true
      | None -> (
        match on_state node.state with
        | Some payload ->
          sh.witnesses <- (idx, payload) :: sh.witnesses;
          if stop_on_found then sh.halted <- true
        | None ->
          let gid = (idx * nsh) + sh.sid in
          let succs = successors node.state in
          Obs.Metrics.Histogram.observe m_fanout
            (float_of_int (List.length succs));
          let res =
            if record_edges && succs <> [] then begin
              let labels = Array.of_list (List.map fst succs) in
              let dsts = Array.make (Array.length labels) (-1) in
              sh.elog <- (gid, labels, dsts) :: sh.elog;
              dsts
            end
            else no_res
          in
          let cur = boxes.(!parity) in
          List.iteri
            (fun j (label, st') ->
              let fl = Obs.Flight.start () in
              let pk = key st' in
              Obs.Flight.stop ph_encode fl;
              let ds = route pk in
              if ds = sh.sid then begin
                let g' = accept sh ~parent:gid ~label:(Some label) ~pk st' in
                if res != no_res then res.(j) <- g'
              end
              else begin
                sh.sent <- sh.sent + 1;
                Par.Mailbox.push cur.(sh.sid).(ds)
                  {
                    m_state = st';
                    m_key = pk;
                    m_parent = gid;
                    m_label = label;
                    m_res = res;
                    m_res_i = (if res != no_res then j else -1);
                  }
              end)
            succs)
    end
  in
  let step sid =
    let sh = shard_arr.(sid) in
    (* A single shard merges nothing and waits at no barrier: its time
       is the run's own, so it records no shard phases (the negative
       sentinel turns both stops into no-ops). *)
    let fl = if solo then -1.0 else Obs.Flight.start () in
    (* Merge: drain last round's inboxes in source-shard order; within a
       box, FIFO push order. Both orders are scheduling-independent. *)
    let prev = boxes.(1 - !parity) in
    for src = 0 to nsh - 1 do
      let box = prev.(src).(sid) in
      if Par.Mailbox.length box > 0 then begin
        Obs.Flight.sample ph_mailbox_len (float_of_int (Par.Mailbox.length box));
        Par.Mailbox.iter
          (fun m ->
            let g =
              accept sh ~parent:m.m_parent ~label:(Some m.m_label) ~pk:m.m_key
                m.m_state
            in
            if m.m_res_i >= 0 then m.m_res.(m.m_res_i) <- g)
          box;
        Par.Mailbox.clear box
      end
    done;
    let fl = Obs.Flight.stop_start ph_shard_merge fl in
    (* Expand to local exhaustion; in-shard successors keep the round
       going, cross-shard ones wait in the outboxes for the barrier. *)
    let rec drain () =
      if not sh.halted then begin
        let fp = Obs.Flight.start () in
        let idx = frontier_pop sh.frontier in
        Obs.Flight.stop ph_pop fp;
        if idx >= 0 then begin
          expand sh idx;
          drain ()
        end
      end
    in
    drain ();
    Obs.Flight.stop ph_shard_expand fl
  in
  let pk0 = key init in
  let s0 = route pk0 in
  if s0 < 0 || s0 >= nsh then invalid_arg "Engine: shard_of out of range";
  ignore (accept shard_arr.(s0) ~parent:(-1) ~label:None ~pk:pk0 init);
  if Arena.size shard_arr.(s0).arena = 0 then
    invalid_arg "Engine: store rejected the initial state";
  let sum f = Array.fold_left (fun a sh -> a + f sh) 0 shard_arr in
  let pending () =
    Array.exists
      (fun row -> Array.exists (fun b -> Par.Mailbox.length b > 0) row)
      boxes.(!parity)
    || Array.exists (fun sh -> frontier_length sh.frontier > 0) shard_arr
  in
  let continue_ () =
    let cause =
      Array.fold_left
        (fun acc sh -> if acc = None then sh.cause else acc)
        None shard_arr
    in
    if stop_on_found && Array.exists (fun sh -> sh.witnesses <> []) shard_arr
    then false
    else if cause <> None then begin
      stopped := cause;
      false
    end
    else if not (pending ()) then false
    else begin
      visited_base := sum (fun sh -> sh.visited);
      nodes_base := sum (fun sh -> Arena.size sh.arena);
      words_base := sum (fun sh -> sh.words);
      Array.iter
        (fun sh ->
          sh.visited_mark <- sh.visited;
          sh.nodes_mark <- Arena.size sh.arena;
          sh.words_mark <- sh.words)
        shard_arr;
      parity := 1 - !parity;
      true
    end
  in
  let pstats = Par.Shards.run ?pool ~shards:nsh ~step ~continue_ () in
  (* Canonical dense renumbering: shards in rotation order from the
     initial state's shard, nodes in arena (insertion) order within a
     shard. The rotation puts the initial state at id 0. *)
  let rotation = Array.init nsh (fun i -> (s0 + i) mod nsh) in
  let base = Array.make nsh 0 in
  let total = ref 0 in
  Array.iter
    (fun sid ->
      base.(sid) <- !total;
      total := !total + Arena.size shard_arr.(sid).arena)
    rotation;
  let dense_of gid = if gid < 0 then -1 else base.(gid mod nsh) + (gid / nsh) in
  let n = !total in
  let states = Array.make n init in
  let parents = Array.make n (-1, None) in
  Array.iter
    (fun sid ->
      Arena.iteri
        (fun idx nd ->
          states.(base.(sid) + idx) <- nd.state;
          parents.(base.(sid) + idx) <- (dense_of nd.parent, nd.label))
        shard_arr.(sid).arena)
    rotation;
  let edges =
    if not record_edges then [||]
    else begin
      let a = Array.make n [] in
      Array.iter
        (fun sid ->
          List.iter
            (fun (gid, labels, dsts) ->
              let l = ref [] in
              for j = Array.length labels - 1 downto 0 do
                (* -1 slots: covered successors, or cross-shard hand-offs
                   the run truncated before merging. *)
                if dsts.(j) >= 0 then
                  l := (labels.(j), dense_of dsts.(j)) :: !l
              done;
              a.(dense_of gid) <- !l)
            shard_arr.(sid).elog)
        rotation;
      a
    end
  in
  (* Witness choice: the canonical minimum over all shards — [prefer]
     first (when given), then the smallest canonical id. With
     [stop_on_found] every witness is from the same (first hitting)
     round, so this is exactly "first witness a sequential rotation
     sweep would meet". *)
  let chosen = ref None in
  Array.iter
    (fun sid ->
      let sh = shard_arr.(sid) in
      List.iter
        (fun (idx, payload) ->
          let gid = (idx * nsh) + sh.sid in
          match !chosen with
          | None -> chosen := Some (payload, gid)
          | Some (bp, bg) ->
            let c = match prefer with Some f -> f payload bp | None -> 0 in
            if c < 0 || (c = 0 && dense_of gid < dense_of bg) then
              chosen := Some (payload, gid))
        (List.rev sh.witnesses))
    rotation;
  let trace_to gid =
    let rec walk gid acc =
      if gid < 0 then acc
      else begin
        let nd = Arena.get shard_arr.(gid mod nsh).arena (gid / nsh) in
        match nd.label with
        | None -> acc
        | Some l -> walk nd.parent ((l, nd.state) :: acc)
      end
    in
    walk gid []
  in
  let cmp1 = Dbm.cmp_stats () in
  let stats =
    {
      Stats.visited = sum (fun sh -> sh.visited);
      stored = sum (fun sh -> sh.st.Store.ksize ());
      subsumed = sum (fun sh -> sh.subsumed);
      dropped = sum (fun sh -> sh.dropped);
      reopened = sum (fun sh -> sh.reopened);
      peak_frontier = sum (fun sh -> sh.peak);
      store_words = sum (fun sh -> sh.st.Store.kwords ());
      truncated = !stopped <> None;
      time_s = (if solo then Unix.gettimeofday () -. t0 else 0.0);
      dbm_phys_eq = cmp1.Dbm.phys_hits - cmp0.Dbm.phys_hits;
      dbm_full_cmp = cmp1.Dbm.full_scans - cmp0.Dbm.full_scans;
      dbm_lattice_cmp = cmp1.Dbm.lattice_scans - cmp0.Dbm.lattice_scans;
      phases =
        (if solo && Obs.Flight.is_enabled () then
           Stats.phase_delta fl0 (Obs.Flight.totals ())
         else []);
    }
  in
  let mailbox_hwm =
    Array.fold_left
      (fun acc plane ->
        Array.fold_left
          (fun acc row ->
            Array.fold_left (fun acc b -> max acc (Par.Mailbox.hwm b)) acc row)
          acc plane)
      0 boxes
  in
  (* Publish the run's counters to the registry (bulk adds at the end of
     the run: the loop above never touches a hashtable). *)
  Obs.Metrics.Counter.incr m_runs;
  Obs.Metrics.Counter.add m_visited stats.Stats.visited;
  Obs.Metrics.Counter.add m_stored stats.Stats.stored;
  Obs.Metrics.Counter.add m_subsumed stats.Stats.subsumed;
  Obs.Metrics.Counter.add m_dropped stats.Stats.dropped;
  Obs.Metrics.Counter.add m_reopened stats.Stats.reopened;
  if stats.Stats.truncated then Obs.Metrics.Counter.incr m_truncated;
  Obs.Metrics.Gauge.set_max m_peak_frontier
    (float_of_int stats.Stats.peak_frontier);
  if solo then Obs.Metrics.Histogram.observe m_run_wall stats.Stats.time_s;
  {
    found = Option.map (fun (p, gid) -> (p, trace_to gid)) !chosen;
    states;
    parents;
    edges;
    stopped = !stopped;
    stats;
    par =
      (if solo then None
       else
         Some
           {
             par_shards = nsh;
             rounds = pstats.Par.Shards.rounds;
             steals = pstats.Par.Shards.steals;
             handoffs = sum (fun sh -> sh.sent);
             mailbox_hwm;
           });
  }

(* The pre-keyed entry point: one shard, no pool, and the caller's
   store lifted to a keyed one that ignores the key. Nothing in the
   library calls it; it stays only until perfbench (which builds a
   [Store.t] and calls [run]) next changes. *)
let no_key = Codec.encode (Codec.spec []) (fun _ -> 0)

let run ?max_states ?stop ?mem_budget_words ?order ?record_edges ~store
    ~successors ~on_state ~init () =
  let keyed =
    {
      Store.kname = store.Store.name;
      kinsert = (fun s ~key:_ ~id -> store.Store.insert s ~id);
      kstale = (fun s ~key:_ -> store.Store.stale s);
      ksize = store.Store.size;
      kwords = store.Store.words;
    }
  in
  run_sharded ?max_states ?stop ?mem_budget_words ?order ?record_edges
    ~shards:1
    ~store:(fun () -> keyed)
    ~key:(fun _ -> no_key)
    ~successors ~on_state ~init ()

(* The one place a caller's [jobs] request becomes an engine
   configuration; see the interface. *)
let with_jobs jobs pool f =
  match jobs with
  | None -> f ~shards:1 ~size_hint:4096 None
  | Some j -> (
    if j < 1 then invalid_arg "Engine: jobs must be >= 1";
    (* Per-shard tables start small: 64 shards at the default 4096
       buckets would retain half a megaword before storing anything,
       which the memory-budget accounting would charge to the run. *)
    let f = f ~shards:64 ~size_hint:256 in
    match pool with
    | Some _ -> f pool
    | None when j = 1 -> f None
    | None -> Par.Pool.with_pool ~jobs:j (fun p -> f (Some p)))
