(** The generic symbolic exploration core.

    One passed/waiting loop serves every backend: the UPPAAL-style
    checker, CORA's cost-optimal search, the digital-clock graph builder
    that TIGA games and ECDAR refinement run on. The pieces that differ
    per backend plug in:

    - the {e state store} ({!Store.keyed}) decides coverage/subsumption;
    - the {e search order} picks BFS or a priority queue;
    - [successors] generates the labelled transition relation on the fly;
    - [on_state] may short-circuit with a payload (witness found).

    The loop is sharded ({!run_sharded}): a sequential run is the
    one-shard case with no pool. The core owns the node arenas, parent
    links and trace reconstruction, and reports a {!Stats.t} for every
    run. *)

type 's order =
  | Bfs
  | Priority of ('s -> int)
      (** smallest priority first; ties broken by insertion order *)

(** Why a run stopped before draining its frontier: the [max_states]
    cap, the [mem_budget_words] retained-heap budget, or the caller's
    [stop] hook (deadline / cancellation). In every case the outcome's
    [stats] are valid for the explored prefix — truncation is an
    explicit, reportable result, not a crash. *)
type stop_cause = Max_states | Mem_budget | Stop_requested

(** Parallel-execution observables of a multi-shard run. Everything
    here except [steals] is deterministic (identical for every pool
    size); [steals] counts shard steps run by a non-home domain and
    varies run to run — it is reported for bench visibility and must
    never feed back into results. *)
type par_info = {
  par_shards : int;  (** shard count the state space was split over *)
  rounds : int;  (** barrier rounds until quiescence / stop *)
  steals : int;  (** stolen shard steps (scheduling-dependent) *)
  handoffs : int;  (** cross-shard successor messages sent *)
  mailbox_hwm : int;  (** largest backlog any single mailbox held *)
}

(** Recorded successor edges, flat: state [i]'s edges are
    [offsets.(i) .. offsets.(i + 1) - 1] of [labels] and [targets] (the
    target ids), in generation order. [offsets] has one entry per state
    plus one. *)
type 'l edges = { offsets : int array; labels : 'l array; targets : int array }

type ('s, 'l, 'a) outcome = {
  found : ('a * ('l * 's) list) option;
      (** the payload returned by [on_state], with the labelled steps of
          a run from the initial state to the state that produced it *)
  states : 's array;  (** arena states, indexed by id; id 0 is initial *)
  parents : (int * 'l option) array;
      (** discovery parent and edge label per id; [(-1, None)] for the
          initial state *)
  edges : 'l edges;
      (** per-id successor edges, only when [record_edges] (empty
          arrays otherwise). Edges to states the store answered
          [Covered] for are not recorded, so meaningful graph building
          requires an exact store. *)
  stopped : stop_cause option;
      (** [None] for a complete run; mirrored as [stats.truncated] *)
  stats : Stats.t;
  par : par_info option;
      (** [Some] for runs over several shards, [None] for one shard *)
}

(** [run_sharded ~store ~key ~successors ~on_state ~init ()] explores
    from [init] until [on_state] returns a payload, the frontier drains,
    or a bound trips.

    The packed-key space is partitioned over [shards] (default 64)
    disjoint shards — by the high bits of {!Codec.hash}, or by
    [shard_of] when given (tests use it to force cross-shard traffic).
    Each shard owns a private keyed store ([store ()] is called once
    per shard) and a frontier ordered by [order] (default [Bfs]);
    successors landing on another shard travel through double-buffered
    per-(src,dst) mailboxes merged after the next round barrier
    ({!Par.Shards.run}); termination is quiescence — all frontiers and
    mailboxes empty at a barrier. With [shards = 1] every successor
    stays home and the run is one round of a plain sequential search:
    BFS, or with a {!Store.best_cost_keyed} store and a [Priority]
    order exactly Dijkstra — re-improved states are re-enqueued and
    stale entries skipped at pop time.

    {b Determinism}: verdicts, traces, ids, edges and stats are
    byte-identical for every pool size, including [jobs = 1] — shard
    state is only ever touched by its own step, messages merge in
    (source shard, FIFO) order, node ids are canonically renumbered
    (dense, shards rotated so the initial state is id 0), and the
    witness is the [prefer]-minimal (ties: smallest canonical id) over
    all shards. With several shards the stats pin the scheduling
    observables: [time_s] is [0.0] and [phases] is [[]]; wall-clock
    timing belongs to the caller, and scheduling-dependent counts
    (steals) live only in {!par_info}. A one-shard run reports its real
    [time_s] and flight [phases], and [par = None].

    [stop_on_found = true] (default) stops at the first barrier after
    any shard hit a witness — with one shard, at the first witness.
    [false] runs to quiescence collecting every witness and returns the
    [prefer]-best — the mode CORA's multi-shard cost search uses, where
    later rounds can re-open states on cheaper paths
    ([Store.best_cost_keyed] re-opens, stale entries are skipped at
    pop).

    Bounds are polled after every visited state: [max_states] on
    visited and stored states, the [stop] hook (deadline /
    cancellation; with several shards it is called from the pool's
    domains), and [mem_budget_words] on the stores' retained words
    ({!Store.keyed.kwords}, measured at geometrically spaced sizes).
    Each shard compares the totals at the last barrier plus its own
    growth since, so with one shard polling is exact and with several
    the truncation point does not depend on scheduling. A tripped bound
    ends the run at the next barrier with [stopped] set; the outcome's
    [stats] are valid for the explored prefix — truncation is an
    explicit, reportable result, not a crash.

    @raise Invalid_argument if [shards < 1], [shard_of] answers out of
    range for the initial state, or the store rejects the initial
    state. *)
val run_sharded :
  ?max_states:int ->
  ?stop:(unit -> bool) ->
  ?mem_budget_words:int ->
  ?order:'s order ->
  ?record_edges:bool ->
  ?stop_on_found:bool ->
  ?prefer:('a -> 'a -> int) ->
  ?shards:int ->
  ?shard_of:(Codec.packed -> int) ->
  ?pool:Par.Pool.t ->
  store:(unit -> 's Store.keyed) ->
  key:('s -> Codec.packed) ->
  successors:('s -> ('l * 's) list) ->
  on_state:('s -> 'a option) ->
  init:'s ->
  unit ->
  ('s, 'l, 'a) outcome

(** [run ~store ...] is {!run_sharded} with one shard and no pool over a
    store that derives its own keys. Kept for callers that build a
    {!Store.t} by hand; library code calls {!run_sharded}. *)
val run :
  ?max_states:int ->
  ?stop:(unit -> bool) ->
  ?mem_budget_words:int ->
  ?order:'s order ->
  ?record_edges:bool ->
  store:'s Store.t ->
  successors:('s -> ('l * 's) list) ->
  on_state:('s -> 'a option) ->
  init:'s ->
  unit ->
  ('s, 'l, 'a) outcome

(** [with_jobs jobs pool f] turns a caller's [jobs] request into the
    arguments of one {!run_sharded} call, [f ~shards ~size_hint pool].
    [None] is a sequential run: one shard, no pool, default-sized store
    tables. [Some j] is the default 64 shards with small per-shard
    tables, over [pool] when given (its size wins), else a transient
    pool of [j] domains when [j > 1] (shut down after [f]), else no
    pool.
    @raise Invalid_argument if [j < 1]. *)
val with_jobs :
  int option ->
  Par.Pool.t option ->
  (shards:int -> size_hint:int -> Par.Pool.t option -> 'a) ->
  'a
