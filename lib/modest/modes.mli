(** The [modes] backend: discrete-event simulation of MODEST models.

    Probabilistic branches are sampled by weight; the remaining
    nondeterminism — which enabled move fires, and when — is resolved by
    an explicit scheduler, as the paper notes simulation must. It is
    fixed: ASAP timing (moves fire as soon as their guards allow) with
    uniform-random choice among simultaneously enabled moves.
    Deterministically seeded. *)

(** One simulated run's observations. *)
type observation = {
  hits : float option array;
      (** first hitting time of each watched predicate *)
  monitors_ok : bool array;
      (** per monitored invariant: true when it held in every visited
          state *)
  end_time : float;
  steps : int;
}

(** [runs sta ~seed ~n ~horizon ~watch ~monitors] — [n] independent runs
    with derived seeds (run [k] uses [seed + k * 7919]). Sharding across
    [?pool] changes wall-clock time only, never an observation.

    A run goes until the horizon passes, the run is stuck, every watch
    has hit, or 1,000,000 steps have run (counted in
    [modes.truncated_runs]). The model and the props are compiled once
    per call ({!Mprop.compile}: an unknown name raises [Not_found]
    here): per process and location an array of edges with compiled
    guards ({!Smc.Kernel}) and branch weights, and for each edge that
    leads a two-party action its partner's edges on that action at each
    partner location. A run updates one state in place.

    A run's draws are fixed by its seed: one per choice among the moves
    enabled now (or at the earliest enabling instant), then one per
    participant's branch, in participant order. *)
val runs :
  ?pool:Par.Pool.t ->
  Sta.t ->
  seed:int ->
  n:int ->
  horizon:float ->
  watch:Mprop.t array ->
  monitors:Mprop.t array ->
  observation array
