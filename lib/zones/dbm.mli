(** Difference Bound Matrices: the symbolic representation of clock zones.

    A DBM over [n] clocks is an [(n+1)×(n+1)] matrix of {!Bound.t}; entry
    [(i, j)] bounds the difference [x_i - x_j], with clock [0] the constant
    reference clock (always 0). Every value of type {!t} exposed by this
    interface is {e canonical} (closed under shortest paths) and emptiness
    is normalized, so structural equality of canonical forms coincides
    with semantic equality of zones.

    All operations are functional: they return fresh DBMs and never mutate
    their arguments. Algorithms follow Bengtsson & Yi, {e Timed Automata:
    Semantics, Algorithms and Tools} (2004).

    {1 Zone lifecycle}

    Successor pipelines ([up]/[reset]/[intersect]/[constrain]) build plain
    [t] values; nothing long-lived should hold one. At the end of every
    successor computation the zone is passed through {!seal}, which
    extrapolates it, memoizes its hash and interns it in a global weak
    table, returning a {!canon} handle. [canon] is a private synonym of
    [t] — read-only operations accept handles via the free coercion
    [(z :> Dbm.t)], but the only producer of [canon] is [seal], so a store
    keyed on [canon] can never receive an un-sealed zone. Equality and
    hashing between handles are O(1): pointer equality and the memoized
    hash word. *)

type t

(** A sealed canonical handle: closed, normalized, extrapolated, interned
    and carrying a memoized hash. Produced only by {!seal}; use
    [(z :> t)] to apply read-only DBM operations to a handle. *)
type canon = private t

(** Number of real clocks (the matrix dimension is [clocks t + 1]). *)
val clocks : t -> int

(** [zero ~clocks] is the zone where every clock equals 0. *)
val zero : clocks:int -> t

(** [universal ~clocks] is the zone of all non-negative valuations. *)
val universal : clocks:int -> t

(** [empty ~clocks] is the canonical empty zone. *)
val empty : clocks:int -> t

val is_empty : t -> bool

(** [get z i j] is the bound on [x_i - x_j]. *)
val get : t -> int -> int -> Bound.t

(** [constrain z i j b] adds the constraint [x_i - x_j ≺ m]; the result is
    canonical and possibly empty. O(dim²). *)
val constrain : t -> int -> int -> Bound.t -> t

(** [up z] is the future of [z]: upper bounds on individual clocks are
    removed (time elapses). *)
val up : t -> t

(** [down z] is the past of [z]: lower bounds relax to 0. *)
val down : t -> t

(** [reset z x v] sets clock [x] to the non-negative integer [v]. *)
val reset : t -> int -> int -> t

(** [copy_clock z ~dst ~src] assigns clock [dst] the value of [src]. *)
val copy_clock : t -> dst:int -> src:int -> t

(** [free z x] forgets all constraints on clock [x]. *)
val free : t -> int -> t

(** [intersect z1 z2] is the conjunction of the two zones. *)
val intersect : t -> t -> t

(** [subset z1 z2] decides [z1 ⊆ z2] (valid because both are canonical).
    Counted in {!cmp_stats}: pointer-equal arguments settle as a phys
    hit, anything else is a full scan. *)
val subset : t -> t -> bool

val equal : t -> t -> bool

(** Uncounted [subset], for loops that tally their scans locally and
    flush them with {!note_scans}. *)
val subset_quiet : t -> t -> bool

(** [note_scans ~phys ~lattice] adds to the {!cmp_stats} counters in
    bulk. For hot loops that walk whole buckets of zones with the quiet
    comparisons: tally locally, flush once per walk, instead of paying a
    counter store on every scan. *)
val note_scans : phys:int -> lattice:int -> unit

val relation : t -> t -> [ `Equal | `Subset | `Superset | `Incomparable ]

(** Which abstraction {!seal} applies before interning. [Extra_m] is
    classic maximal-constant extrapolation; [Extra_lu] is the coarser
    lower/upper-bound extrapolation of Behrmann, Bouyer, Larsen &
    Pelánek ({e Lower and upper bounds in zone-based abstractions of
    timed automata}, 2004/06) — it produces fewer distinct zones while
    preserving location reachability. *)
type extrapolation =
  | No_extrapolation
  | Extra_m of int array  (** per-clock maximal constants *)
  | Extra_lu of { lower : int array; upper : int array }
      (** per-clock maximal lower-guard / upper-guard constants *)

(** [extrapolate z k] applies classic maximal-constant extrapolation
    (Extra-M): [k.(i)] is the largest constant compared against clock [i]
    in the model (entry 0 is ignored; negative entries are clamped to 0).
    Guarantees a finite zone graph. *)
val extrapolate : t -> int array -> t

(** [extrapolate_lu z ~lower ~upper] applies Extra-LU: an entry
    [x_i - x_j ≺ c] becomes unbounded when [c > lower.(i)] and weakens to
    [< -upper.(j)] when [c < -upper.(j)]. Coarser than (or equal to)
    Extra-M with [k.(i) = max lower.(i) upper.(i)]; only widens, so a
    non-empty zone stays non-empty. *)
val extrapolate_lu : t -> lower:int array -> upper:int array -> t

(** [seal ?extra z] is the sealing boundary: it applies [extra] (default
    {!No_extrapolation}), memoizes the structural hash, and interns the
    result so equal zones share one physical representative. Sealing an
    already-sealed handle is the identity. The intern table is weak
    (representatives die with their last store reference) and
    mutex-guarded, so seal is safe to call from parallel domains. *)
val seal : ?extra:extrapolation -> t -> canon

(** [is_sealed z] holds exactly for interned representatives returned by
    {!seal}. Stores assert this on every key they receive. *)
val is_sealed : t -> bool

(** [satisfies z v] decides membership of the valuation [v] (indexed by
    clock, [v.(0)] must be [0.]). *)
val satisfies : t -> float array -> bool

(** [sample rng z] draws a valuation inside [z], or [None] if empty.
    Values are multiples of ½, so strict constraints are handled exactly. *)
val sample : Random.State.t -> t -> float array option

(** Structural hash, compatible with {!equal}. O(1) on sealed handles
    (memoized by {!seal}), O(dim²) otherwise. *)
val hash : t -> int

(** Monotone width score: [subset z z'] implies [width z <= width z']
    (clamped sum of the bound entries; empty zones sit at the bottom).
    O(1) on sealed handles (memoized by {!seal}), O(dim²) otherwise.
    Subsumption stores order their buckets by decreasing width and use
    the contrapositive to skip inclusion scans that cannot succeed. *)
val width : t -> int

(** Counters for {!equal}/{!subset}/{!seal} since the last
    {!reset_cmp_stats}; exploration engines report per-run deltas.
    Tallies are kept in per-domain {!Obs.Shard} slots and summed on
    read, so comparisons from pooled domains are never lost to races;
    read (and reset) while those domains are quiescent — e.g. at a pool
    join — for an exact snapshot. *)
type cmp_stats = {
  phys_hits : int;
      (** comparisons settled by pointer identity — including
          inequality between two sealed handles, which the canonical
          table decides without a scan *)
  full_scans : int;
      (** equality checks that scanned matrix entries (at least one
          un-sealed operand) *)
  lattice_scans : int;
      (** subset checks between distinct zones — inclusion, unlike
          equality, cannot be settled by pointer *)
  intern_hits : int;  (** [seal] calls that found an existing DBM *)
  intern_misses : int;  (** [seal] calls that added a fresh DBM *)
}

val cmp_stats : unit -> cmp_stats
val reset_cmp_stats : unit -> unit

(** Live entries in the weak intern table behind {!seal}. The table
    holds representatives only as long as something else (a passed
    list, a warm cache anchor) keeps them alive, so this is the direct
    observable for intern-lifecycle tests and for a serving process
    watching its warm-cache footprint: after the last store is dropped
    and a full major GC, the count falls back to the baseline. *)
val intern_size : unit -> int

(** Deliberately broken DBM operations for fault injection — the
    mutation smoke test of the differential oracle harness ({!Gen}
    library) flips one on and must then observe a cross-backend
    divergence. [Broken_up] stops time for the highest clock in {!up};
    [Unclosed_intersect] skips the re-closure after {!intersect},
    leaking non-canonical DBMs ({!seal} deliberately does not re-close,
    so the fault stays observable downstream). Never enabled outside
    tests. *)
type fault = Broken_up | Unclosed_intersect

(** [inject_fault (Some f)] switches the fault on, [inject_fault None]
    restores correct behaviour. *)
val inject_fault : fault option -> unit

(** [pp ~names ppf z] prints the non-trivial constraints, e.g.
    ["x<=5 & y-x<2"]. [names.(i)] names clock [i] ([names.(0)] unused). *)
val pp : ?names:string array -> Format.formatter -> t -> unit

val to_string : ?names:string array -> t -> string

(** Raw bounds row-major (for tests and serialization). *)
val to_array : t -> Bound.t array

(** Rebuild a DBM from raw bounds; the input is closed and normalized. *)
val of_array : clocks:int -> Bound.t array -> t
