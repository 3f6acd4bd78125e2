(** Stochastic semantics of timed-automata networks (UPPAAL-SMC).

    Following Section II of the paper: each component independently picks
    a delay — {e exponential} with a per-location rate when its location
    has no invariant upper bound, {e uniform} over the window left by
    guards and the invariant otherwise — and the component with the
    shortest delay moves, choosing uniformly among its enabled output or
    internal edges; receivers are passive and chosen uniformly.
    Committed/urgent locations and enabled urgent synchronisations force
    zero delay. *)

type config = {
  rates : int -> int -> float;
      (** [rates auto loc] — exponential rate for invariant-free
          locations (default 1.0). *)
}

val default_config : config

(** Concrete run state. *)
type cstate = {
  clocs : int array;
  cstore : int array;
  cclocks : float array; (* index 0 unused *)
  ctime : float;
}

val initial_cstate : Ta.Model.network -> cstate

(** [step net cfg rng st] performs one race: delay + winning action.
    [None] when no component can ever act again (the run is stuck). *)
val step :
  Ta.Model.network -> config -> Random.State.t -> cstate -> cstate option

(** [simulate net cfg rng ~horizon ~stop] runs until [stop] holds, the
    time horizon passes, or the run gets stuck. Returns the final state
    and [Some t] with the hitting time when [stop] was reached. *)
val simulate :
  Ta.Model.network ->
  config ->
  Random.State.t ->
  horizon:float ->
  stop:(cstate -> bool) ->
  cstate * float option
