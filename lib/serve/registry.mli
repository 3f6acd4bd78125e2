(** The daemon's warm state: compiled models and cached replies, under
    one optional memory budget.

    Two caches, by what they save:

    - {e compiled models}: the [Ta.Model.network] for a (name, n) pair,
      so repeat queries skip compilation;
    - {e reply cache}: the full structured result keyed by a canonical
      request fingerprint — a warm hit recomputes nothing and replays
      the identical bytes (every serve method is deterministic in its
      params, so replaying is sound).

    Everything is droppable: over budget, each {!store_reply} evicts
    replies, then models, LRU within each class — so a budgeted daemon
    degrades to cold-start latency instead of growing without bound.
    Each class keeps its entries in a doubly linked recency list: a hit
    moves its entry to the front and the victim is the back, both in
    O(1), with one link per entry made when it is added.
    The budget is enforced against a running total kept in O(1): each
    entry is charged its reachable words ({!Obj.reachable_words}) once,
    when added, and refunded when it leaves; the tables' own words are
    counted with each bucket array bounded by the most entries its
    table has held. Shared structure is charged to every entry that
    reaches it, so the total never reads below {!words}, and the
    caches' exact size stays within the budget after every store.

    Instrumented on the default {!Obs} registry: [serve.model_hits]/
    [misses], [serve.reply_hits]/[misses], [serve.evictions]. *)

type t

val create : ?mem_budget_words:int -> unit -> t

(** The budget, for handlers that want to bound an exploration with the
    same number ([Ta.Checker.check ~mem_budget_words]). *)
val mem_budget_words : t -> int option

(** [model t spec ~n] — the cached compiled model, compiling on miss. *)
val model : t -> Models.spec -> n:int -> Ta.Model.network

(** A hit refreshes the entry's place in the LRU order. *)
val cached_reply : t -> fingerprint:string -> Obs.Json.t option

(** Cache [reply], then evict until the caches are within budget. *)
val store_reply : t -> fingerprint:string -> Obs.Json.t -> unit

(** Retained heap of the caches, in words: the exact walk, O(cache);
    the budget is enforced against an upper bound of it (see above). *)
val words : t -> int

(** The cached model keys and reply fingerprints, each class least
    recently used first: the order eviction takes them in. Touches
    nothing. *)
val lru_keys : t -> string list * string list

(** Cache shape + intern-table size, for the [metrics] scrape. *)
val stats_json : t -> Obs.Json.t
