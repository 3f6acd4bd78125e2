(** Statistical model checking of TA networks — the UPPAAL-SMC facade.

    Answers [Pr[<=T](<> f)] queries by Monte-Carlo simulation under the
    stochastic semantics of {!Stochastic}, with the estimators of
    {!Estimate}.

    {b Seed-derivation contract.} Every entry point below is
    deterministic in its [seed]: the [k]-th Monte-Carlo run (counting
    from 0) always draws from the stream [Random.State.make [| seed; k |]]
    — never from a shared mutable stream. Because a run's randomness
    depends only on [(seed, k)], batches shard freely across a [Par]
    pool: passing [?pool] changes wall-clock time, not one byte of any
    estimate, interval or verdict. The same contract extends to
    {!Batch}: sampling several queries in one parallel range is
    invisible in the results. *)

module Kernel = Kernel
module Stochastic : module type of Stochastic
module Estimate : module type of Estimate

type query = {
  horizon : float;  (** time bound T of [Pr[<=T](<> f)] *)
  goal : Ta.Prop.formula;  (** crisp state formula *)
}

(** [probability net q] estimates [Pr[<=T](<> goal)].
    [runs] defaults to the Chernoff bound for [eps]=0.05, [alpha]=0.05.
    [cancel] aborts mid-batch with {!Par.Cancelled} (deadline tokens
    included). *)
val probability :
  ?pool:Par.Pool.t ->
  ?cancel:Par.Cancel.t ->
  ?config:Stochastic.config ->
  ?seed:int ->
  ?runs:int ->
  Ta.Model.network ->
  query ->
  Estimate.interval

(** [hypothesis net q ~theta] tests H0: [Pr >= theta] by SPRT with
    indifference [delta] (default 0.01) and error bounds 0.05. Sample
    [k] draws from [| seed; k |]; under a pool, outcomes are sampled
    speculatively in batches but consumed in index order, and sampling
    is cancelled once the verdict is reached — the verdict and its
    [samples] count equal the sequential ones. *)
val hypothesis :
  ?pool:Par.Pool.t ->
  ?config:Stochastic.config ->
  ?seed:int ->
  ?delta:float ->
  Ta.Model.network ->
  query ->
  theta:float ->
  Estimate.sprt_result

(** [cdf net ~goal ~horizon ~grid] runs one batch and reports, for every
    time bound in [grid], the fraction of runs whose hitting time is
    within the bound — the cumulative distribution of Fig. 4. *)
val cdf :
  ?pool:Par.Pool.t ->
  ?cancel:Par.Cancel.t ->
  ?config:Stochastic.config ->
  ?seed:int ->
  ?runs:int ->
  Ta.Model.network ->
  goal:Ta.Prop.formula ->
  horizon:float ->
  grid:float list ->
  (float * float) list

(** Statistics of the first hitting time of [goal] over the runs that
    reach it within the horizon (UPPAAL-SMC's [E[<=T](...)] style
    estimate). [mean]/[std] are [nan] when no run hits. *)
type hitting_stats = {
  mean : float;
  std : float;
  hit_fraction : float;
  runs : int;
}

val hitting_time :
  ?pool:Par.Pool.t ->
  ?cancel:Par.Cancel.t ->
  ?config:Stochastic.config ->
  ?seed:int ->
  ?runs:int ->
  Ta.Model.network ->
  goal:Ta.Prop.formula ->
  horizon:float ->
  hitting_stats

(** The shared reductions every estimate above applies to one
    {!Batch.hitting_times} array. Exposed so a caller holding raw
    per-item arrays (the CLI and the daemon, which sample a model's
    per-train queries as one batch) reduces them through {e the same
    code} as the one-shot entry points, which sample as a one-item
    batch — equality of batched and sequential results then holds by
    construction. *)

(** [interval_of_times ~runs ~horizon times] — the Wilson interval of
    {!val:probability} (successes = hitting times within [horizon]). *)
val interval_of_times :
  runs:int -> horizon:float -> float option array -> Estimate.interval

(** [cdf_of_times ~runs ~grid times] — the per-bound hit fractions of
    {!val:cdf}. *)
val cdf_of_times :
  runs:int -> grid:float list -> float option array -> (float * float) list

(** [stats_of_times ~runs times] — the {!hitting_stats} of
    {!val:hitting_time}. *)
val stats_of_times : runs:int -> float option array -> hitting_stats

(** Sampling for several SMC queries at once — one item per train of a
    per-train query. The [k]-th run of item [i] draws from
    [Random.State.make [| seed_i; k |]], exactly the stream the one-shot
    entry points use, so per item the batched result is byte-for-byte
    the one-shot result; batching only changes how the work shards
    across the pool (one [Par.map_range] over the concatenated run
    ranges keeps every worker busy across item boundaries instead of
    paying a join barrier per query). One [cancel] token covers the
    whole batch. *)
module Batch : sig
  type item = {
    net : Ta.Model.network;
    config : Stochastic.config;
    seed : int;
    runs : int;
    horizon : float;
    goal : Ta.Prop.formula;
  }

  (** [item net q] — one batch member, defaults matching
      {!val:probability} ([seed] 42, [runs] from the Chernoff bound). *)
  val item :
    ?config:Stochastic.config ->
    ?seed:int ->
    ?runs:int ->
    Ta.Model.network ->
    query ->
    item

  (** One optional hitting time per run, per item; the per-item arrays
      equal the ones a one-item batch of that item returns. The one
      sampling loop: the one-shot entry points run through it too, all
      under the [smc.batch_fused] span. *)
  val hitting_times :
    ?pool:Par.Pool.t ->
    ?cancel:Par.Cancel.t ->
    item list ->
    float option array list
end
