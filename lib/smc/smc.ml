(* Root module of the smc library: re-export the engine and the
   estimators, then provide the query facade. *)

module Kernel = Kernel
module Stochastic = Stochastic
module Estimate = Estimate

type query = { horizon : float; goal : Ta.Prop.formula }

let stop_of net goal locs store = Ta.Prop.eval_on net ~locs ~store goal

let default_runs () = Estimate.chernoff_runs ~eps:0.05 ~alpha:0.05

type hitting_stats = {
  mean : float;
  std : float;
  hit_fraction : float;
  runs : int;
}

(* ------------------------------------------------------------------ *)
(* Shared reductions over a hitting-time array                          *)
(* ------------------------------------------------------------------ *)

(* Every estimate below is a pure fold over one [Batch.hitting_times]
   array. Keeping the folds here — and funnelling both the one-shot
   facade (a one-item batch) and the per-train batches of the CLI and
   the daemon through them — is what makes "batched result = sequential
   result" hold by construction rather than by test. *)

let count_within times bound =
  Array.fold_left
    (fun acc t ->
      match t with Some h when h <= bound -> acc + 1 | Some _ | None -> acc)
    0 times

let interval_of_times ~runs ~horizon times =
  Estimate.wilson ~successes:(count_within times horizon) ~trials:runs ()

let cdf_of_times ~runs ~grid times =
  List.map
    (fun t -> (t, float_of_int (count_within times t) /. float_of_int runs))
    grid

let stats_of_times ~runs times =
  let hits = Array.to_list times |> List.filter_map Fun.id in
  match hits with
  | [] -> { mean = nan; std = nan; hit_fraction = 0.0; runs }
  | _ ->
    let arr = Array.of_list hits in
    let mean, std = Estimate.mean_std arr in
    {
      mean;
      std;
      hit_fraction = float_of_int (Array.length arr) /. float_of_int runs;
      runs;
    }

(* ------------------------------------------------------------------ *)
(* Batched sampling                                                     *)
(* ------------------------------------------------------------------ *)

module Batch = struct
  type item = {
    net : Ta.Model.network;
    config : Stochastic.config;
    seed : int;
    runs : int;
    horizon : float;
    goal : Ta.Prop.formula;
  }

  let item ?(config = Stochastic.default_config) ?(seed = 42) ?runs net
      (q : query) =
    assert (Ta.Prop.crisp q.goal);
    let runs = match runs with Some r -> r | None -> default_runs () in
    { net; config; seed; runs; horizon = q.horizon; goal = q.goal }

  (* Greatest [i] with [offsets.(i) <= g]: the item owning global run
     index [g]. Zero-run items collapse to an empty offset interval and
     are skipped naturally. *)
  let owner offsets g =
    let lo = ref 0 and hi = ref (Array.length offsets - 1) in
    while !hi - !lo > 1 do
      let mid = (!lo + !hi) / 2 in
      if offsets.(mid) <= g then lo := mid else hi := mid
    done;
    !lo

  let hitting_times ?pool ?cancel items =
    Obs.Span.with_ ~name:"smc.batch_fused" @@ fun () ->
    let items = Array.of_list items in
    let n = Array.length items in
    let offsets = Array.make (n + 1) 0 in
    for i = 0 to n - 1 do
      offsets.(i + 1) <- offsets.(i) + items.(i).runs
    done;
    let total = offsets.(n) in
    (* Compile each item's network and resolve its stop predicate here,
       not per run: the compiled tables are immutable and every pool
       domain reads them. *)
    let models = Array.map (fun it -> Stochastic.compile it.net) items in
    let stops = Array.map (fun it -> stop_of it.net it.goal) items in
    (* One fused range: global index [g] belongs to item [i] as its
       local run [k = g - offsets.(i)], and draws from
       [Random.State.make [| seed_i; k |]] — the stream the item draws
       from alone, as a one-item batch. The fused batch therefore
       returns, per item, byte-for-byte the array the one-shot path
       returns, while a single [map_range] keeps every pool worker busy
       across item boundaries. *)
    let all =
      Par.map_range ?pool ?cancel ~lo:0 ~hi:total (fun g ->
          let i = owner offsets g in
          let it = items.(i) in
          let k = g - offsets.(i) in
          let rng = Random.State.make [| it.seed; k |] in
          let _, hit =
            Stochastic.simulate models.(i) it.config rng ~horizon:it.horizon
              ~stop:stops.(i)
          in
          hit)
    in
    Array.to_list
      (Array.init n (fun i -> Array.sub all offsets.(i) items.(i).runs))
end

(* ------------------------------------------------------------------ *)
(* One-shot facade                                                      *)
(* ------------------------------------------------------------------ *)

(* Every one-shot estimate is a one-item batch: the sampler, seeds and
   span of a per-train batch. *)
let sample ?pool ?cancel ?config ?seed ?runs net q =
  let it = Batch.item ?config ?seed ?runs net q in
  match Batch.hitting_times ?pool ?cancel [ it ] with
  | [ times ] -> (it.Batch.runs, times)
  | _ -> assert false

let probability ?pool ?cancel ?config ?seed ?runs net q =
  let runs, times = sample ?pool ?cancel ?config ?seed ?runs net q in
  interval_of_times ~runs ~horizon:q.horizon times

(* SPRT over Bernoulli outcomes sampled speculatively: sample index [k]
   always draws from [| seed; k |], and [Par.fold_until] feeds the
   outcomes to the incremental test strictly in index order, so the
   verdict is the one the sequential test reaches on the same stream.
   Outcomes are produced in super-batches so an early verdict does not
   leave max_samples worth of speculative work behind. *)
let hypothesis ?pool ?(config = Stochastic.default_config) ?(seed = 42)
    ?(delta = 0.01) net q ~theta =
  assert (Ta.Prop.crisp q.goal);
  Obs.Span.with_ ~name:"smc.sprt" @@ fun () ->
  let model = Stochastic.compile net in
  let stop = stop_of net q.goal in
  let sample k =
    let rng = Random.State.make [| seed; k |] in
    let _, hit = Stochastic.simulate model config rng ~horizon:q.horizon ~stop in
    match hit with Some h -> h <= q.horizon | None -> false
  in
  let max_samples = 1_000_000 in
  let batch = 4096 in
  let rec go st lo =
    let hi = min max_samples (lo + batch) in
    let verdict = ref None in
    let st', _consumed =
      Par.fold_until ?pool ~lo ~hi ~f:sample ~init:st
        ~step:(fun st _k x ->
          match Estimate.Sprt.step st x with
          | Estimate.Sprt.Decided r ->
            verdict := Some r;
            Par.Stop st
          | Estimate.Sprt.Undecided st' -> Par.Continue st')
        ()
    in
    match !verdict with
    | Some r -> r
    | None ->
      if hi >= max_samples then Estimate.Sprt.force st' else go st' hi
  in
  go (Estimate.Sprt.start ~max_samples ~theta ~delta ~alpha:0.05 ~beta:0.05 ()) 0

let cdf ?pool ?cancel ?config ?seed ?runs net ~goal ~horizon ~grid =
  let runs, times =
    sample ?pool ?cancel ?config ?seed ?runs net { horizon; goal }
  in
  cdf_of_times ~runs ~grid times

let hitting_time ?pool ?cancel ?config ?seed ?runs net ~goal ~horizon =
  let runs, times =
    sample ?pool ?cancel ?config ?seed ?runs net { horizon; goal }
  in
  stats_of_times ~runs times
