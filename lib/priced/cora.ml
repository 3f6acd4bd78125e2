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

let trans_cost net cm st (t : Digital.dtrans) =
  match t.Digital.kind with
  | `Delay -> rate_of net cm st
  | `Act mv -> cm.move_cost mv

let trans_label (t : Digital.dtrans) =
  match t.Digital.kind with
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
      (fun t ->
        (trans_label t, (t.Digital.target, cost + trans_cost net cm st t)))
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
  let graph = Digital.explore net in
  let n = Array.length graph.Digital.states in
  let id_of st = Digital.id_of graph st in
  (* Targets are absorbing, so the SCC decomposition must not follow
     their outgoing edges (a target can then never sit on a cycle). *)
  let succs id =
    if target graph.Digital.states.(id) then []
    else
      List.map (fun t -> id_of t.Digital.target) graph.Digital.transitions.(id)
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
        let st = graph.Digital.states.(id) in
        if target st then improve c 0
        else
          List.iter
            (fun t ->
              let cost = trans_cost net cm st t in
              let c' = comp.(id_of t.Digital.target) in
              if c' <> c then
                match best.(c') with
                | Some b -> improve c (cost + b)
                | None -> ())
            graph.Digital.transitions.(id))
      members.(c)
  done;
  (* Unboundedness: a positive-cost edge inside an SCC of non-target
     states from which the target is still reachable. *)
  for id = 0 to n - 1 do
    let st = graph.Digital.states.(id) in
    if not (target st) then
      List.iter
        (fun t ->
          let cost = trans_cost net cm st t in
          let tid = id_of t.Digital.target in
          if cost > 0 && comp.(tid) = comp.(id)
             && (not (target graph.Digital.states.(tid)))
             && best.(comp.(id)) <> None
          then unbounded := true)
        graph.Digital.transitions.(id)
  done;
  if !unbounded then `Unbounded
  else
    match best.(comp.(id_of (Digital.initial net))) with
    | Some c -> `Cost (c, n)
    | None -> `Unreachable

(* Elapsed time = rate 1 globally, attributed to component 0 so the sum
   over the location vector stays 1. *)
let min_time_reach net ~target =
  min_cost_reach net
    { free with loc_rate = (fun a _ -> if a = 0 then 1 else 0) }
    ~target
