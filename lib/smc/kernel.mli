(** The simulation kernel shared by the SMC race ({!Stochastic}) and the
    MODEST [modes] scheduler: clock guards compiled to flat arrays, and
    one run state updated in place.

    A front end compiles its model once per batch: every guard and
    invariant becomes a {!guard}. Compiled tables are immutable and may
    be shared by every domain of a pool. A {!state} and a {!window}
    belong to one run (or one domain) and are never shared. Nothing
    here draws random numbers: the front ends keep their own semantics
    and their own draws.

    Float operations are spelled out in a fixed order ([min a b] is
    [Stdlib]'s [if a <= b then a else b]), so a run's results depend on
    its seed alone: the SMC and modest test suites compare them bit for
    bit with reference simulators. *)

(** A conjunction of clock constraints [x_ci - x_cj ≺ m], compiled to
    flat arrays: its finite constraints in list order, each with its
    kind (an upper bound [x ≺ m], a lower bound [-x ≺ m], or a
    diagonal), [ci], [cj], [m] as a float and the {!Zones.Bound.t}
    itself. Infinite constraints hold everywhere and are dropped. *)
type guard

val guard : Ta.Model.constr list -> guard

(** [sat g v] — does valuation [v] (index 0 is the reference clock, always
    0) satisfy every constraint of [g]? Allocates nothing. *)
val sat : guard -> float array -> bool

(** A caller-owned buffer for a delay window. Its fields are unboxed
    floats, so writing them allocates nothing. *)
type window = { mutable lo : float; mutable hi : float }

(** [window g v ~slack w] writes into [w] the delays [[lo, hi]] after
    which [g] holds when waiting from [v] ([lo >= 0], [hi] possibly
    [infinity]), and returns whether [g] can hold at all: false when a
    diagonal constraint fails now (differences do not change with
    delay) or when [lo > hi + slack]. The SMC race uses [slack] 0 and
    [modes] 1e-12. *)
val window : guard -> float array -> slack:float -> window -> bool

(** [bound_delay g v w] lowers [w.hi] to the largest delay from [v] that
    the upper bounds of [g] allow — an invariant's bound on waiting.
    Start from [w.hi = infinity] and fold over the components. *)
val bound_delay : guard -> float array -> window -> unit

(** A run state: location vector, variable store, clock valuation
    (index 0 unused, always 0) and global time, all updated in place,
    with undo arrays allocated alongside. *)
type state = private {
  locs : int array;
  store : int array;
  clocks : float array;
  mutable time : float;
  saved_locs : int array;
  saved_store : int array;
  saved_clocks : float array;
}

(** [state ~locs ~store ~n_clocks] — the initial state: the given
    arrays (owned by the state from now on), every clock 0, time 0. *)
val state : locs:int array -> store:int array -> n_clocks:int -> state

(** [advance st d] lets [d] time units pass: every clock but clock 0
    and the global time grow by [d]. *)
val advance : state -> float -> unit

(** [apply st i ~dst updates] moves component [i] to [dst] and applies
    [updates] in list order: assignments evaluate on the store as
    updated so far, resets set clocks, [Prim] functions mutate the
    store. *)
val apply : state -> int -> dst:int -> Ta.Model.update list -> unit

(** [save st] copies locations, store and clocks into the undo arrays;
    [restore st] copies them back. The whole store is saved, since a
    [Prim] update may write any cell. Time is not saved: {!apply} never
    changes it. *)
val save : state -> unit

val restore : state -> unit
