(** The daemon's warm state: compiled models, cached replies, and warm
    state-space anchors, all under one optional memory budget.

    Three cache layers, by what they save:

    - {e compiled models}: the [Ta.Model.network] for a (name, n) pair,
      so repeat queries skip compilation;
    - {e reply cache}: the full structured result keyed by a canonical
      request fingerprint — a warm hit recomputes nothing and replays
      the identical bytes (every serve method is deterministic in its
      params, so replaying is sound);
    - {e warm anchors}: a retained symbolic state space per hot model.
      Sealed zones held by the anchor keep the weak DBM intern table
      ({!Zones.Dbm.seal}) populated between requests, so the next
      query's store probes settle on pointer equality against existing
      representatives —
      this is how "the subsumption store stays warm across queries"
      without sharing a mutable store between requests.

    Everything is droppable: {!enforce_budget} walks the caches'
    retained words ({!Obj.reachable_words}) and evicts LRU-first —
    anchors, then replies, then model entries — so a budgeted daemon
    degrades to cold-start latency instead of growing without bound.

    Instrumented on the default {!Obs} registry: [serve.model_hits]/
    [misses], [serve.reply_hits]/[misses], [serve.anchors_built],
    [serve.evictions]. *)

type t

type entry

val create : ?mem_budget_words:int -> ?anchor_max_states:int -> unit -> t

(** The budget, for handlers that want to bound an exploration with the
    same number ([Ta.Checker.check ~mem_budget_words]). *)
val mem_budget_words : t -> int option

(** [model t spec ~n] — the cached compiled model, compiling on miss. *)
val model : t -> Models.spec -> n:int -> entry

val net : entry -> Ta.Model.network

(** Record a completed query on [entry]; on the second query the
    registry builds the warm anchor (lazily — a once-queried model is
    not worth the heap). *)
val warm : t -> entry -> unit

val cached_reply : t -> fingerprint:string -> Obs.Json.t option
val store_reply : t -> fingerprint:string -> Obs.Json.t -> unit

(** Retained heap of the caches, in words (an O(cache) walk). *)
val words : t -> int

(** Evict (anchors → replies → models, LRU within each class) until
    under budget; no-op without one. Runs automatically on insertions. *)
val enforce_budget : t -> unit

(** Cache shape + intern-table size, for the [metrics] scrape. *)
val stats_json : t -> Obs.Json.t
