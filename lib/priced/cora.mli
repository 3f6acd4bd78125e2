(** Priced-reachability algorithms (see {!Priced} for the library root).

    A cost model annotates a network with location cost {e rates} (cost
    per time unit, summed over the location vector) and per-move firing
    costs. Minimum-cost reachability runs Dijkstra on the digital-clocks
    graph; maximum-cost reachability (the WCET question of the METAMOC
    application, ref. [4] of the paper) runs a longest-path pass that
    rejects positive-cost cycles.

    Exact for closed, diagonal-free models — which priced models here are
    by construction ({!Digital.is_closed} is enforced). *)

type cost_model = {
  loc_rate : int -> int -> int;
      (** [loc_rate auto loc] — cost per time unit while [auto] stays at
          [loc]; the network's rate is the sum over components. *)
  move_cost : Ta.Zone_graph.move -> int;  (** firing cost of a move *)
}

(** Zero-cost model (useful as a base to override). *)
val free : cost_model

type outcome = {
  cost : int;
  steps : string list;  (** labels of an optimal run, ["delay"] for waits *)
  explored : int;  (** digital states expanded before the target popped *)
  stats : Engine.Stats.t;  (** the engine run's full instrumentation *)
  par : Engine.Core.par_info option;
      (** sharded-run observables when run with [jobs], else [None] *)
}

(** [min_cost_reach net cm ~target] is the cheapest cost to reach a state
    whose discrete part satisfies [target], or [None] if unreachable.
    Runs Dijkstra on the shared {!Engine.Core}: a
    {!Engine.Store.best_cost_keyed} store with a cost-priority frontier.

    With [jobs] the search is spread over the engine's shards in
    Bellman-Ford style: shards relax their frontiers in barrier rounds,
    cheaper paths re-open settled keys, and the run ends at quiescence
    with the minimum over all collected target costs. The optimal cost
    is identical to Dijkstra's; the reported witness run, [explored]
    and store stats are deterministic per mode but differ between the
    sequential and the sharded search order. [pool] reuses a
    caller-owned domain pool. *)
val min_cost_reach :
  ?jobs:int ->
  ?pool:Par.Pool.t ->
  Ta.Model.network ->
  cost_model ->
  target:(Discrete.Digital.dstate -> bool) ->
  outcome option

(** [max_cost_reach net cm ~target] is the worst-case cost over all runs
    that reach [target], for WCET-style questions.
    [`Unbounded] reports a reachable positive-cost cycle from which the
    target is still reachable. [`Unreachable] if no run reaches it. *)
val max_cost_reach :
  Ta.Model.network ->
  cost_model ->
  target:(Discrete.Digital.dstate -> bool) ->
  [ `Cost of int * int | `Unbounded | `Unreachable ]
(** [`Cost (cost, explored)] *)

(** [min_time_reach net ~target] is minimum-cost reachability under the
    uniform rate 1 (elapsed time), UPPAAL-CORA's most common use. *)
val min_time_reach :
  Ta.Model.network ->
  target:(Discrete.Digital.dstate -> bool) ->
  outcome option
