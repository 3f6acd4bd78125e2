type smc = {
  items : n:int -> runs:int -> seed:int -> Ta.Model.network -> Smc.Batch.item list;
  reply : runs:int -> float option array list -> string * (string * Obs.Json.t) list;
}

type spec = {
  name : string;
  default_n : int;
  make : int -> Ta.Model.network;
  queries : Ta.Model.network -> (string * Ta.Prop.query) list;
  smc : smc;
}

(* Process [i] entering its critical section within 30 time units, one
   Wilson interval per process. *)
let fischer_smc =
  let horizon = 30.0 in
  {
    items =
      (fun ~n ~runs ~seed net ->
        List.init n (fun i ->
            Smc.Batch.item ~seed:(seed + i) ~runs net
              { Smc.horizon; goal = Ta.Prop.Loc (i, Ta.Model.loc_index net i "cs") }));
    reply =
      (fun ~runs times ->
        let intervals = List.map (Smc.interval_of_times ~runs ~horizon) times in
        let interval (itv : Smc.Estimate.interval) =
          Obs.Json.Obj
            [
              ("p", Obs.Json.Float itv.Smc.Estimate.p_hat);
              ("low", Obs.Json.Float itv.Smc.Estimate.low);
              ("high", Obs.Json.Float itv.Smc.Estimate.high);
            ]
        in
        ( String.concat "" (List.mapi Render.smc_fischer_line intervals),
          [ ("intervals", Obs.Json.Arr (List.map interval intervals)) ] ));
  }

(* Train [i] crossing within 100 time units, train [a] leaving its
   location at rate 1 + a: the CDF of Fig. 4 on the grid 10, 22, .., 94. *)
let train_gate_smc =
  let config = { Smc.Stochastic.rates = (fun auto _ -> 1.0 +. float_of_int auto) } in
  let grid = List.init 8 (fun k -> 10.0 +. (12.0 *. float_of_int k)) in
  {
    items =
      (fun ~n ~runs ~seed net ->
        List.init n (fun i ->
            Smc.Batch.item ~config ~seed:(seed + i) ~runs net
              { Smc.horizon = 100.0; goal = Ta.Train_gate.cross_formula net i }));
    reply =
      (fun ~runs times ->
        let line i times =
          Render.smc_train_line i (Smc.cdf_of_times ~runs ~grid times)
        in
        (String.concat "" (List.mapi line times), []));
  }

let fischer =
  {
    name = "fischer";
    default_n = 4;
    make = (fun n -> Ta.Fischer.make ~n ());
    queries =
      (fun net ->
        [
          ("mutual exclusion", Ta.Fischer.mutex net);
          ("deadlock-free", Ta.Fischer.no_deadlock);
        ]);
    smc = fischer_smc;
  }

let train_gate =
  {
    name = "train-gate";
    default_n = 4;
    make = (fun n -> Ta.Train_gate.make ~n_trains:n);
    queries =
      (fun net ->
        [
          ("safety", Ta.Train_gate.safety net);
          ("no deadlock", Ta.Train_gate.no_deadlock);
        ]);
    smc = train_gate_smc;
  }

let all = [ fischer; train_gate ]

let find name = List.find_opt (fun s -> s.name = name) all

let known = String.concat "|" (List.map (fun s -> s.name) all)
