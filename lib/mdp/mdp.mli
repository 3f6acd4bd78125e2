(** Sparse Markov decision processes with value iteration — the
    probabilistic model checking substrate behind the [mcpta] backend
    (the paper's PRISM stand-in).

    Supports maximum/minimum unbounded and step-bounded reachability
    probabilities and maximum/minimum expected total reward to a target,
    with divergence detection. DTMCs are MDPs with one action per state. *)

(** One nondeterministic choice: a probability distribution over
    successor states plus an immediate reward. *)
type action = {
  a_label : string;
  probs : (float * int) list;  (** (probability, successor) — sums to 1 *)
  reward : float;
}

type t

(** [make actions] builds an MDP; [actions.(s)] lists the choices of
    state [s] (empty = absorbing with reward 0).
    @raise Invalid_argument on bad targets or distributions that do not
    sum to 1 (tolerance 1e-9). *)
val make : action list array -> t

val n_states : t -> int
val actions : t -> int -> action list

(** How value iteration sweeps states (ablation switch): Jacobi uses the
    previous vector only; Gauss–Seidel reuses fresh values in-sweep. *)
type sweep = Jacobi | Gauss_seidel

type vi_stats = { iterations : int; final_delta : float }

(** [reach_prob t ~target ~maximize] — per-state optimal probability of
    eventually reaching a target state. Value iteration from below
    (converges to the exact least fixpoint); it stops once a sweep moves
    no value by more than 1e-12, or after 2,000,000 sweeps. *)
val reach_prob :
  ?sweep:sweep ->
  t ->
  target:bool array ->
  maximize:bool ->
  float array * vi_stats

(** [bounded_reach_prob t ~target ~steps ~maximize] — probability of
    reaching the target within [steps] transitions. *)
val bounded_reach_prob :
  t -> target:bool array -> steps:int -> maximize:bool -> float array

(** [expected_reward t ~target ~maximize] — optimal expected total reward
    accumulated until the target is first reached. A state's value is
    [infinity] when the (adversarial) scheduler can avoid the target:
    for [maximize], whenever some scheduler misses the target with
    positive probability; for [minimize], whenever no scheduler reaches
    it almost surely. Same iteration and stopping rule as
    {!reach_prob}. *)
val expected_reward :
  ?sweep:sweep ->
  t ->
  target:bool array ->
  maximize:bool ->
  float array * vi_stats

(** [check t] re-validates distribution sums; used by property tests. *)
val check : t -> bool
