module Digital = Discrete.Digital
module Zone_graph = Ta.Zone_graph

type cost_model = {
  loc_rate : int -> int -> int;
  move_cost : Zone_graph.move -> int;
}

let free = { loc_rate = (fun _ _ -> 0); move_cost = (fun _ -> 0) }

type outcome = {
  cost : int;
  steps : string list;
  explored : int;
  stats : Engine.Stats.t;
  par : Engine.Core.par_info option;
}

let rate_of net cm (st : Digital.dstate) =
  let total = ref 0 in
  Array.iteri (fun i l -> total := !total + cm.loc_rate i l) st.Digital.dlocs;
  ignore net;
  !total

let trans_cost net cm st (kind : Digital.kind) =
  match kind with
  | `Delay -> rate_of net cm st
  | `Act mv -> cm.move_cost mv

let trans_label (kind : Digital.kind) =
  match kind with
  | `Delay -> "delay"
  | `Act mv -> mv.Zone_graph.mv_label

(* Dijkstra on the digital graph, generated on the fly: the engine core
   with a [best_cost] store and a cost-priority frontier. States carry
   their accumulated cost; re-improved states are re-enqueued and stale
   entries skipped at pop time, so a popped state's cost is optimal. *)
let min_cost_reach ?jobs ?pool net cm ~target =
  (* Keyed on the packed digital state: Dijkstra re-probes the
     best-cost table on every insert and every pop (staleness), so the
     memoized full-width hash pays off twice per state. *)
  let _spec, pack = Digital.codec net in
  let key (st, _) = pack st in
  let successors (st, cost) =
    List.map
      (fun (t : Digital.dtrans) ->
        ( trans_label t.kind,
          (t.target, cost + trans_cost net cm st t.kind) ))
      (Digital.successors net st)
  in
  let on_state (st, cost) = if target st then Some cost else None in
  (* One shard is Dijkstra: the frontier is cost-ordered, so the first
     target pop is optimal. Several shards make the search
     Bellman-Ford-flavoured: each shard relaxes its cost-ordered
     frontier in rounds, cheaper paths re-open settled keys, and the run
     ends at quiescence — no relaxation pending anywhere — rather than
     at the first target pop. Every witness cost is collected and the
     minimum returned, so the answer (and all stats) is identical for
     every [j >= 1]; termination holds because costs are non-negative
     and a key re-opens only on a strictly cheaper path. *)
  let out =
    Engine.Core.with_jobs jobs pool @@ fun ~shards ~size_hint pool ->
    Engine.Core.run_sharded ~max_states:max_int
      ~order:(Engine.Core.Priority snd) ~stop_on_found:(shards = 1)
      ~prefer:compare ~shards ?pool
      ~store:(fun () -> Engine.Store.best_cost_keyed ~size_hint ~cost:snd ())
      ~key ~successors ~on_state
      ~init:(Digital.initial net, 0)
      ()
  in
  Option.map
    (fun (cost, steps) ->
      {
        cost;
        steps = List.map fst steps;
        (* The target pop itself is not an expansion. *)
        explored = out.Engine.Core.stats.Engine.Stats.visited - 1;
        stats = out.Engine.Core.stats;
        par = out.Engine.Core.par;
      })
    out.Engine.Core.found

(* Longest path to the target over the reachable digital graph, via the
   SCC condensation: a cycle (SCC) containing a positive-cost edge from
   which the target is still reachable makes the worst case unbounded;
   all remaining cycles cost 0, so paths never gain by looping and the
   condensation DAG dynamic program is exact (edges within a zero-cost
   SCC contribute nothing; cross edges carry their costs). *)
let max_cost_reach net cm ~target =
  let g = Digital.explore net in
  let n = Array.length g.states in
  (* Targets are absorbing, so the SCC decomposition must not follow
     their outgoing edges (a target can then never sit on a cycle). *)
  let succs id =
    if target g.states.(id) then []
    else
      List.init (g.offsets.(id + 1) - g.offsets.(id)) (fun j ->
          g.targets.(g.offsets.(id) + j))
  in
  let comp, n_comps = Quant_util.Scc.compute ~n ~succs in
  (* best.(c): largest cost from component c to a target, None when the
     target is unreachable from c. Component ids are in reverse
     topological order, so increasing order visits successors first. *)
  let best = Array.make n_comps None in
  let members = Array.make n_comps [] in
  for id = n - 1 downto 0 do
    members.(comp.(id)) <- id :: members.(comp.(id))
  done;
  let improve c v =
    match best.(c) with Some b when b >= v -> () | _ -> best.(c) <- Some v
  in
  let unbounded = ref false in
  (* Target states are absorbing: the question is the worst cost until
     the target is first reached, so their outgoing edges are ignored. *)
  for c = 0 to n_comps - 1 do
    List.iter
      (fun id ->
        let st = g.states.(id) in
        if target st then improve c 0
        else
          for e = g.offsets.(id) to g.offsets.(id + 1) - 1 do
            let cost = trans_cost net cm st g.kinds.(e) in
            let c' = comp.(g.targets.(e)) in
            if c' <> c then
              match best.(c') with
              | Some b -> improve c (cost + b)
              | None -> ()
          done)
      members.(c)
  done;
  (* Unboundedness: a positive-cost edge inside an SCC of non-target
     states from which the target is still reachable. *)
  for id = 0 to n - 1 do
    let st = g.states.(id) in
    if not (target st) then
      for e = g.offsets.(id) to g.offsets.(id + 1) - 1 do
        let cost = trans_cost net cm st g.kinds.(e) in
        let tid = g.targets.(e) in
        if cost > 0 && comp.(tid) = comp.(id)
           && (not (target g.states.(tid)))
           && best.(comp.(id)) <> None
        then unbounded := true
      done
  done;
  if !unbounded then `Unbounded
  else
    (* The initial state is id 0. *)
    match best.(comp.(0)) with
    | Some c -> `Cost (c, n)
    | None -> `Unreachable

(* Elapsed time = rate 1 globally, attributed to component 0 so the sum
   over the location vector stays 1. *)
let min_time_reach net ~target =
  min_cost_reach net
    { free with loc_rate = (fun a _ -> if a = 0 then 1 else 0) }
    ~target
