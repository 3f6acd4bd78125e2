(** Per-run instrumentation of the exploration core.

    Every {!Core.run_sharded} returns one of these; front ends ({e quantcli},
    {e bench}) print it as JSON so performance trajectories can be
    compared across revisions. The same counters are also published to
    the {!Obs} default metrics registry under [engine.*] names. *)

type t = {
  visited : int;  (** states popped from the frontier and processed *)
  stored : int;  (** states currently kept in the state store *)
  subsumed : int;
      (** candidate states rejected because a stored state covers them
          (equal, including, or cheaper, depending on the store) *)
  dropped : int;  (** stored states evicted by a stronger newcomer *)
  reopened : int;
      (** best-cost re-openings: a stored state re-admitted because a
          cheaper path to it arrived (CORA's Dijkstra; always 0 for the
          other stores) *)
  peak_frontier : int;  (** maximum frontier (waiting list) length *)
  store_words : int;
      (** retained-heap estimate of the state stores at the end of the
          run, in words (see {!Store.keyed.kwords}) *)
  truncated : bool;
      (** a bound ([max_states], [stop], memory budget) stopped the run *)
  time_s : float;
      (** wall-clock seconds for the run; [0.0] for multi-shard runs,
          whose timing is a scheduling observable *)
  dbm_phys_eq : int;
      (** DBM comparisons settled by pointer identity during the run —
          with sealed zones this covers every equality decision *)
  dbm_lattice_cmp : int;
      (** subset checks between distinct zones — the one comparison the
          sealing discipline cannot settle by pointer *)
  phases : (string * (int * float)) list;
      (** flight-recorder phase totals attributable to this run —
          [(name, (count, total seconds))], sorted by name ([dbm.seal],
          [codec.encode], [store.probe], ...); empty when the recorder
          was off (see {!Obs.Flight}) *)
}

val zero : t

(** [basic ~visited ~stored] — all other counters zero; for analyses that
    derive their numbers outside the core (e.g. liveness graph passes). *)
val basic : visited:int -> stored:int -> t

(** Fraction of store insertions rejected as already covered.

    "Attempts" counts [stored + dropped + subsumed] and deliberately
    {e excludes} re-opened best-cost states: a re-opening (tracked in
    the [reopened] field) is genuinely new work for the frontier, not a
    store answer, so best-cost (CORA) runs report a meaningful hit rate
    plus an explicit re-opening count rather than a diluted rate. *)
val store_hit_rate : t -> float

(** [phase_delta before after] — the per-phase gain between two
    {!Obs.Flight.totals} snapshots (both sorted by name): what the
    bracketed stretch of work spent where. A one-shard
    {!Core.run_sharded} uses it to attribute global flight totals to
    its run. *)
val phase_delta :
  (string * (int * float)) list ->
  (string * (int * float)) list ->
  (string * (int * float)) list

(** One-line JSON object with every counter (escaping-correct, via
    {!Obs.Json}). *)
val to_json : t -> string

(** The same object as a JSON value, for embedding in larger reports. *)
val to_json_value : t -> Obs.Json.t

val pp : Format.formatter -> t -> unit
