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

(** [run sta ~seed ~horizon ~watch ~monitors] simulates one run until the
    horizon, a stuck state, or all watches hit. *)
val run :
  Sta.t ->
  seed:int ->
  horizon:float ->
  watch:Mprop.t array ->
  monitors:Mprop.t array ->
  observation

(** [runs sta ~seed ~n ~horizon ~watch ~monitors] — [n] independent runs
    with derived seeds (run [k] uses [seed + k * 7919]). Sharding across
    [?pool] changes wall-clock time only, never an observation. *)
val runs :
  ?pool:Par.Pool.t ->
  Sta.t ->
  seed:int ->
  n:int ->
  horizon:float ->
  watch:Mprop.t array ->
  monitors:Mprop.t array ->
  observation array
