(** The symbolic model checker (UPPAAL's verification engine).

    Supports the query patterns of the paper's Section II: safety
    ([A[] f]), reachability ([E<> f]), liveness ([f --> g], [A<> f]) and
    deadlock-freedom, over the zone graph with inclusion subsumption
    (except for liveness, which needs the exact graph). The deadlock test
    is exact, using federation subtraction: a valuation deadlocks when no
    delay can ever enable another move.

    The exploration itself runs on the shared {!Engine.Core} with a
    {!Engine.Store.subsume_keyed} (or {!Engine.Store.exact_keyed}) store
    keyed on the packed discrete state; this module only contributes the
    zone-graph successor relation, the properties and the deadlock
    predicate. *)

(** Per-run instrumentation, re-exported from {!Engine.Stats.t} so that
    field accesses through [Ta.Checker] keep working. *)
type stats = Engine.Stats.t = {
  visited : int;  (** symbolic states popped from the waiting list *)
  stored : int;  (** symbolic states kept in the passed list *)
  subsumed : int;  (** candidates covered by (or equal to) stored states *)
  dropped : int;  (** stored states evicted by a larger candidate *)
  reopened : int;  (** best-cost re-openings (0 for zone stores) *)
  peak_frontier : int;  (** maximum waiting-list length *)
  store_words : int;  (** retained-heap estimate of the passed list *)
  truncated : bool;  (** a bound cut the run short (see {!Truncated}) *)
  time_s : float;  (** wall-clock exploration time *)
  dbm_phys_eq : int;  (** DBM comparisons settled by pointer identity *)
  dbm_lattice_cmp : int;  (** subset checks between distinct zones *)
  phases : (string * (int * float)) list;
      (** flight-recorder phase totals for this run (empty unless
          {!Obs.Flight.enable} ran) *)
}

type result = {
  holds : bool;
  trace : string list option;
      (** for violated safety / satisfied reachability: the labels of a
          witness run from the initial state *)
  stats : stats;
  par : Engine.Core.par_info option;
      (** sharded-run observables when the check ran with [jobs]
          ([None] for sequential checks and liveness queries) *)
}

(** The exploration was cut short by a bound: [max_states] visited
    states, the [mem_budget_words] retained-heap budget, or the [stop]
    hook (a deadline or cancellation). Carries the stats of the
    explored prefix so callers can report what was covered before
    degrading — the graceful alternative to an OOM kill, a hung request
    or a crash. *)
exception
  Truncated of {
    reason : [ `Max_states | `Mem_budget | `Stop ];
    stats : stats;
  }

(** Which extrapolation {!Zones.Dbm.seal} applies when the zone graph
    seals a successor. [`Lu] (the default) is coarse lower/upper-bound
    extrapolation from {!Prop.merge_lu} — fewest distinct zones, sound
    for reachability and safety. [`K] is classic maximal-constant
    Extra-M (ablation row). Both are per location: {!Zone_graph} seals
    each state under its own locations' bounds and frees the clocks
    inactive there, while the clocks the query formula mentions keep
    the global bound ({!Model.keep_active}). [`None] disables
    extrapolation: the zone graph may then be infinite and the
    exploration can hit [max_states]. Deadlock queries ignore the
    option and explore under per-location Extra-M; liveness queries
    ignore it too and explore under global Extra-M, every clock kept
    active. Their zone-precise analyses require Extra-M. *)
type extrapolation = [ `None | `K | `Lu ]

(** [check net q] verifies query [q]. [subsumption] (default true) turns
    inclusion checking on the passed list on/off (ablation switch); it is
    ignored for liveness queries, which always use the exact graph.
    Zones are sealed ({!Zones.Dbm.seal}) at the zone-graph boundary —
    extrapolated per [extrapolation], interned, hash memoized — so store
    lookups settle on pointer equality in the common case.
    [rich_trace] (default false) annotates every witness step with the
    symbolic state it reaches. [max_states] (default 1_000_000) aborts
    pathological explorations.
    [stop] is polled once per visited state — a deadline or cancellation
    hook for serving contexts. [mem_budget_words] bounds the passed
    list's retained heap (see {!Engine.Core.run_sharded}).

    [jobs] spreads safety / reachability / deadlock exploration over the
    engine's shards ({!Engine.Core.with_jobs}): the zone graph is
    partitioned by packed-key hash and explored in barrier rounds over a
    domain pool of [jobs] workers. The result — verdict, witness trace,
    every stat — is byte-identical for every [jobs >= 1]; only
    wall-clock changes. [jobs:1] therefore runs the sharded path too
    (and is the determinism reference for [jobs:4]), while omitting
    [jobs] runs one shard, a plain sequential BFS — the two modes can
    legitimately report different witnesses for the same verdict, since
    their exploration orders differ. With [jobs], the stats pin
    [time_s] to 0.0 and [phases] to []. [pool] reuses a caller-owned
    domain pool (the daemon's); without it a transient pool is created
    when [jobs > 1]. Liveness queries (leads-to, A<>) run their
    exact-graph analysis sequentially and ignore both options.
    @raise Truncated if [max_states], [stop] or [mem_budget_words] cut
    the run short.
    @raise Invalid_argument if [jobs < 1]. *)
val check :
  ?subsumption:bool ->
  ?max_states:int ->
  ?stop:(unit -> bool) ->
  ?mem_budget_words:int ->
  ?rich_trace:bool ->
  ?jobs:int ->
  ?pool:Par.Pool.t ->
  ?extrapolation:extrapolation ->
  Model.network ->
  Prop.query ->
  result

(** [deadlocked net st] — does some valuation of [st] admit no future
    action, ever? Builds the escape zones of [st]'s discrete part as
    it walks them, stopping at the first that covers the zone; a
    [NoDeadlock] check walks the same zones, built once per discrete
    state and kept for the run. Exposed for tests. *)
val deadlocked : Model.network -> Zone_graph.state -> bool

(** [reachable_states net] enumerates the full symbolic state space (with
    subsumption); used by tests and by cross-validation against the
    digital-clocks engine. *)
val reachable_states :
  ?subsumption:bool ->
  ?max_states:int ->
  ?extrapolation:extrapolation ->
  Model.network ->
  Zone_graph.state list
