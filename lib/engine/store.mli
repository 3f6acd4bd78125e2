(** Pluggable state stores (passed lists) for the exploration core.

    A store decides, for every candidate state, whether it is new work or
    already covered by something seen before. The four implementations
    cover the backends' needs:

    - {!discrete_keyed}: equality on the packed discrete state
      (digital-clock graphs: TIGA games, ECDAR views, {e modes}).
    - {!exact_keyed}: exact zone equality on a fused (discrete, zone)
      key (liveness graphs, the subsumption-off ablation).
    - {!subsume_keyed}: inclusion subsumption — a candidate covered by a
      stored zone is rejected, stored zones strictly inside the
      candidate are evicted (UPPAAL-style safety/reachability).
    - {!best_cost_keyed}: keep only the cheapest cost per key,
      re-opening a state when a cheaper path arrives (CORA's Dijkstra).

    All four key on {!Codec.packed} discrete states, passed in by the
    caller: probes use the memoized full-width codec hash and compare
    packed words, so neither hashing nor equality ever rescans the
    backend's state structure — and, unlike the polymorphic
    [Hashtbl.hash] (which inspects only the first ~10 meaningful words
    of a value), the hash never truncates. Zone-holding stores take
    {!Zones.Dbm.canon} handles (sealed: extrapolated, interned, hash
    memoized), so the un-sealed DBMs of a successor pipeline cannot
    reach a store at the type level; probe hashes fuse the packed hash
    with the zone's memoized hash and equality settles on pointer
    identity in the common case.

    Every constructor takes [?size_hint] (default 4096): the initial
    bucket count of the backing table. It is a hint, not a limit — the
    table grows by doubling, rehashing every entry — so a hint near the
    expected final state count avoids the O(n) rehash cascade on large
    explorations, while an oversized hint merely wastes [size_hint]
    words up front.

    Each constructor returns a fresh, independent store. *)

type verdict =
  | Added of { dropped : int; reopened : bool }
      (** stored under the candidate id; [dropped] weaker {e distinct}
          entries evicted. [reopened] is true when the accepted state
          re-opens a previously settled key on a cheaper path
          ({!best_cost_keyed} only) — re-openings are not counted in
          [dropped]. *)
  | Dup of int  (** exactly equal to the state already stored as [id] *)
  | Covered  (** covered by a stored state; no id of its own *)

(** A store that derives its own keys: the shape {!Core.run} accepts
    and lifts to a {!keyed} one. The library's stores are all keyed;
    this record is for callers that build a store by hand. *)
type 's t = {
  name : string;
  insert : 's -> id:int -> verdict;
  stale : 's -> bool;
  size : unit -> int;
  words : unit -> int;
}

(** A keyed store: every probe takes the state's packed key as an
    argument instead of computing it. The exploration core computes the
    key once per candidate, routes the state to a shard and then probes
    that shard's table, so the hot path never encodes twice (mailbox
    messages carry the key across shards). *)
type 's keyed = {
  kname : string;
  kinsert : 's -> key:Codec.packed -> id:int -> verdict;
      (** [kinsert s ~key ~id] offers [s] (whose packed key is [key])
          for storage under the candidate [id] — the id it will get if
          accepted. *)
  kstale : 's -> key:Codec.packed -> bool;
      (** [kstale s ~key] at pop time: the stored information
          superseding [s] arrived after it was enqueued, so skip it.
          Only {!best_cost_keyed} ever answers [true]. *)
  ksize : unit -> int;  (** states currently stored *)
  kwords : unit -> int;
      (** retained-heap estimate of the store in words: everything
          reachable from the backing table (keys, values, zones), shared
          structure counted once. O(store size) per call — meant for
          end-of-run stats and the core's geometrically spaced
          memory-budget polls, not hot loops. *)
}

val discrete_keyed : ?size_hint:int -> unit -> 's keyed

val exact_keyed :
  ?size_hint:int -> zone:('s -> Zones.Dbm.canon) -> unit -> 's keyed

val subsume_keyed :
  ?size_hint:int -> zone:('s -> Zones.Dbm.canon) -> unit -> 's keyed

val best_cost_keyed :
  ?size_hint:int -> cost:('s -> int) -> unit -> 's keyed
