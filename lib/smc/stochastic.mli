(** Stochastic semantics of timed-automata networks (UPPAAL-SMC).

    Following Section II of the paper: each component independently picks
    a delay — {e exponential} with a per-location rate when its location
    has no invariant upper bound, {e uniform} over the window left by
    guards and the invariant otherwise — and the component with the
    shortest delay moves, choosing uniformly among its enabled output or
    internal edges; receivers are passive and chosen uniformly.
    Committed/urgent locations and enabled urgent synchronisations force
    zero delay. A move whose post-state breaks an invariant is not
    enabled: it is dropped and the pick repeats over the rest.

    A network is compiled once into {!Kernel} tables; a run then reads
    arrays and updates one {!Kernel.state} in place. The draws of a run
    are fixed by its stream: at most one per component and race, in
    component order (none for a committed, urgent or out-of-window
    component); one over the race's winners, even when there is one;
    one per pick attempt, for the emitter and for the receiver; and,
    for a broadcast, one per receiving component. *)

type config = {
  rates : int -> int -> float;
      (** [rates auto loc] — exponential rate for invariant-free
          locations (default 1.0). *)
}

val default_config : config

(** A network compiled for simulation: per component and location its
    output (internal and emitting) edges, per component, location and
    channel its receiving edges (from {!Ta.Model.sync_index}), location
    kinds and invariants. Immutable: one compiled network serves every
    run of a batch, on every domain. *)
type compiled

val compile : Ta.Model.network -> compiled

(** [simulate c cfg rng ~horizon ~stop] runs from the initial state
    until [stop locs store] holds, the time horizon passes, the run gets
    stuck, or 100,000 races have run (counted in
    [smc.truncated_runs]). A run is stuck when no component can act
    again, or when it is time-locked: a race at delay 0 moved nothing
    and no component racing at delay 0 has an enabled move (a binary
    emission counts only with a ready receiver). Returns the final
    state, which belongs to this run, and [Some t] with the hitting
    time when [stop] was reached. *)
val simulate :
  compiled ->
  config ->
  Random.State.t ->
  horizon:float ->
  stop:(int array -> int array -> bool) ->
  Kernel.state * float option
