module Model = Ta.Model
module Zone_graph = Ta.Zone_graph
module Expr = Ta.Expr
module Bound = Zones.Bound

type config = { rates : int -> int -> float }

let default_config = { rates = (fun _ _ -> 1.0) }

type cstate = {
  clocs : int array;
  cstore : int array;
  cclocks : float array;
  ctime : float;
}

let initial_cstate (net : Model.network) =
  {
    clocs = Array.map (fun (a : Model.automaton) -> a.Model.initial) net.automata;
    cstore = Ta.Store.initial net.layout;
    cclocks = Array.make (net.n_clocks + 1) 0.0;
    ctime = 0.0;
  }

let infinity_ = infinity

(* Delay window [lo, hi] in which the constraint list can be satisfied by
   waiting from valuation [v]; [None] when a diagonal constraint already
   fails (differences are invariant under delay). *)
let guard_window v constrs =
  let lo = ref 0.0 and hi = ref infinity_ and feasible = ref true in
  List.iter
    (fun (c : Model.constr) ->
      if not (Bound.is_inf c.cb) then begin
        let m = float_of_int (Bound.constant c.cb) in
        if c.ci > 0 && c.cj = 0 then
          (* x + d ≺ m  ⟺  d ≤ m - x *)
          hi := min !hi (m -. v.(c.ci))
        else if c.ci = 0 && c.cj > 0 then
          (* -(x + d) ≺ m  ⟺  d ≥ -m - x *)
          lo := max !lo (-.m -. v.(c.cj))
        else if not (Bound.sat c.cb (v.(c.ci) -. v.(c.cj))) then
          (* Diagonal constraints are delay-invariant. *)
          feasible := false
      end)
    constrs;
  if (not !feasible) || !lo > !hi then None else Some (!lo, !hi)

(* Upper bound on delay allowed by a location vector's invariants. *)
let invariant_bound net (st : cstate) =
  List.fold_left
    (fun acc (c : Model.constr) ->
      if (not (Bound.is_inf c.cb)) && c.ci > 0 && c.cj = 0 then
        min acc (float_of_int (Bound.constant c.cb) -. st.cclocks.(c.ci))
      else acc)
    infinity_
    (Zone_graph.invariant_constrs net st.clocs)

let is_output (s : Model.sync) =
  match s with Model.Emit _ | Model.Tau -> true | Model.Receive _ -> false

(* Output/internal edges of component [i], data-enabled. *)
let output_edges net (st : cstate) i =
  let a = net.Model.automata.(i) in
  List.filter
    (fun (e : Model.edge) ->
      is_output e.sync
      && (match e.data_guard with
          | None -> true
          | Some g -> Expr.eval_bool st.cstore g))
    a.Model.out.(st.clocs.(i))

(* Sample the delay after which component [i] intends to act. *)
let component_delay net cfg rng (st : cstate) ~inv_ub i =
  let edges = output_edges net st i in
  let windows =
    List.filter_map (fun (e : Model.edge) -> guard_window st.cclocks e.clock_guard) edges
  in
  match windows with
  | [] -> infinity_
  | _ ->
    let lo = List.fold_left (fun acc (l, _) -> min acc l) infinity_ windows in
    let kind = net.Model.automata.(i).locations.(st.clocs.(i)).Model.kind in
    if kind <> Model.Normal then (if lo <= 0.0 then 0.0 else infinity_)
    else if lo > inv_ub then infinity_
    else if inv_ub < infinity_ then
      (* Uniform over the actionable window up to the invariant bound. *)
      lo +. Random.State.float rng (max 0.0 (inv_ub -. lo))
    else begin
      let rate = cfg.rates i st.clocs.(i) in
      lo +. (-.log (max 1e-300 (Random.State.float rng 1.0)) /. rate)
    end

(* Closure-free: this runs for every enabled edge and, through
   [invariants_hold], for every component on every fired move. *)
let rec clock_guard_sat v = function
  | [] -> true
  | (c : Model.constr) :: rest ->
    Bound.sat c.cb (v.(c.ci) -. v.(c.cj)) && clock_guard_sat v rest

let edge_enabled net (st : cstate) i (e : Model.edge) =
  ignore net;
  ignore i;
  (match e.data_guard with
   | None -> true
   | Some g -> Expr.eval_bool st.cstore g)
  && clock_guard_sat st.cclocks e.clock_guard

(* Receivers for a channel among components other than [from]. *)
let receivers net (st : cstate) ~from (ch : Model.chan) =
  let acc = ref [] in
  Array.iteri
    (fun j (a : Model.automaton) ->
      if j <> from then
        List.iter
          (fun (e : Model.edge) ->
            match e.sync with
            | Model.Receive c when c.Model.chan_id = ch.Model.chan_id ->
              if edge_enabled net st j e then acc := (j, e) :: !acc
            | Model.Receive _ | Model.Emit _ | Model.Tau -> ())
          a.Model.out.(st.clocs.(j)))
    net.Model.automata;
  List.rev !acc

let pick rng xs =
  match xs with
  | [] -> None
  | _ -> Some (List.nth xs (Random.State.int rng (List.length xs)))

let advance (st : cstate) d =
  {
    st with
    cclocks = Array.mapi (fun k x -> if k = 0 then 0.0 else x +. d) st.cclocks;
    ctime = st.ctime +. d;
  }

let apply_edges (st : cstate) participants =
  let store = Array.copy st.cstore in
  let clocks = Array.copy st.cclocks in
  let locs = Array.copy st.clocs in
  List.iter
    (fun (i, (e : Model.edge)) ->
      locs.(i) <- e.Model.dst;
      List.iter
        (function
          | Model.Assign (lv, rhs) ->
            let value = Expr.eval store rhs in
            store.(Expr.lvalue_offset store lv) <- value
          | Model.Reset (x, value) -> clocks.(x) <- float_of_int value
          | Model.Prim (_, f) -> f store)
        e.Model.updates)
    participants;
  { st with clocs = locs; cstore = store; cclocks = clocks }

(* Does every component's location invariant hold at [st]? *)
let invariants_hold net (st : cstate) =
  let autos = net.Model.automata in
  let ok = ref true and i = ref 0 in
  while !ok && !i < Array.length autos do
    ok :=
      clock_guard_sat st.cclocks
        autos.(!i).Model.locations.(st.clocs.(!i)).Model.invariant;
    incr i
  done;
  !ok

(* Uniform choice among [xs] of one whose [move] leads to a state that
   satisfies its location invariants. A candidate whose post-state
   breaks an invariant is not enabled: it is dropped and the pick
   repeats over the rest. One draw per attempt, so a run that never
   drops a candidate draws exactly what a plain uniform pick would. *)
let rec pick_valid net rng xs move =
  match xs with
  | [] -> None
  | _ -> (
    let k = Random.State.int rng (List.length xs) in
    match move (List.nth xs k) with
    | Some st' as r when invariants_hold net st' -> r
    | _ -> pick_valid net rng (List.filteri (fun j _ -> j <> k) xs) move)

(* The move the winning component performs at the post-delay state:
   uniform among its enabled output edges, with uniform receiver choice
   for binary emissions and mandatory receivers for broadcasts. Returns
   None when nothing is actually enabled (e.g. the sampled delay fell in
   a gap between guard windows, or every move breaks a target
   invariant). *)
let fire net rng (st : cstate) i =
  let candidates =
    List.filter (fun e -> edge_enabled net st i e) (output_edges net st i)
  in
  (* Binary emissions need a ready receiver to count as enabled. *)
  let viable =
    List.filter
      (fun (e : Model.edge) ->
        match e.Model.sync with
        | Model.Tau -> true
        | Model.Emit ch ->
          (match ch.Model.kind with
           | Model.Broadcast -> true
           | Model.Binary -> receivers net st ~from:i ch <> [])
        | Model.Receive _ -> false)
      candidates
  in
  pick_valid net rng viable @@ fun (e : Model.edge) ->
  match e.Model.sync with
  | Model.Tau -> Some (apply_edges st [ (i, e) ])
  | Model.Emit ch ->
    (match ch.Model.kind with
     | Model.Binary ->
       pick_valid net rng (receivers net st ~from:i ch) (fun (j, er) ->
           Some (apply_edges st [ (i, e); (j, er) ]))
     | Model.Broadcast ->
       (* All ready receivers participate; multiple enabled edges in
          one component resolve uniformly. *)
       let by_component = Hashtbl.create 8 in
       List.iter
         (fun (j, er) ->
           let existing =
             try Hashtbl.find by_component j with Not_found -> []
           in
           Hashtbl.replace by_component j (er :: existing))
         (receivers net st ~from:i ch);
       let rs =
         Hashtbl.fold
           (fun j es acc ->
             match pick rng es with
             | Some er -> (j, er) :: acc
             | None -> acc)
           by_component []
       in
       let rs = List.sort (fun (a, _) (b, _) -> compare a b) rs in
       Some (apply_edges st ((i, e) :: rs)))
  | Model.Receive _ -> None

let step net cfg rng (st : cstate) =
  let n = Array.length net.Model.automata in
  let inv_ub = invariant_bound net st in
  (* Committed components preempt everyone. *)
  let committed =
    List.filter
      (fun i ->
        net.Model.automata.(i).locations.(st.clocs.(i)).Model.kind
        = Model.Committed)
      (List.init n Fun.id)
  in
  let race_candidates =
    if committed <> [] then List.map (fun i -> (i, 0.0)) committed
    else begin
      (* Urgent outputs fire with zero delay. *)
      let delays =
        List.init n (fun i ->
            let urgent_now =
              List.exists
                (fun (e : Model.edge) ->
                  match e.Model.sync with
                  | Model.Emit ch when ch.Model.urgent ->
                    edge_enabled net st i e
                    && (match ch.Model.kind with
                        | Model.Broadcast -> true
                        | Model.Binary -> receivers net st ~from:i ch <> [])
                  | Model.Emit _ | Model.Receive _ | Model.Tau -> false)
                (output_edges net st i)
            in
            if urgent_now then (i, 0.0)
            else (i, component_delay net cfg rng st ~inv_ub i))
      in
      List.filter (fun (_, d) -> d < infinity_) delays
    end
  in
  match race_candidates with
  | [] -> None
  | _ ->
    let d_min =
      List.fold_left (fun acc (_, d) -> min acc d) infinity_ race_candidates
    in
    let winners = List.filter (fun (_, d) -> d = d_min) race_candidates in
    (match pick rng winners with
     | None -> None
     | Some (i, d) ->
       let st' = advance st d in
       (match fire net rng st' i with
        | Some st'' -> Some st''
        | None ->
          (* Sampled into a guard gap: time has advanced; retry the race
             from the new state. *)
          Some st'))

(* SMC sampler instruments: one sample = one simulated run; accepted
   means the stop predicate was hit within the horizon. *)
let m_samples = Obs.counter "smc.samples"
let m_accepted = Obs.counter "smc.accepted"
let m_rejected = Obs.counter "smc.rejected"
let m_run_wall = Obs.histogram "smc.run_wall_s"

let simulate net cfg rng ~horizon ~stop =
  let t0 = Unix.gettimeofday () in
  let rec loop st fuel =
    if stop st then (st, Some st.ctime)
    else if st.ctime > horizon || fuel = 0 then (st, None)
    else
      match step net cfg rng st with
      | None -> (st, None)
      | Some st' -> loop st' (fuel - 1)
  in
  let result = loop (initial_cstate net) 100_000 in
  Obs.Metrics.Counter.incr m_samples;
  (match snd result with
   | Some _ -> Obs.Metrics.Counter.incr m_accepted
   | None -> Obs.Metrics.Counter.incr m_rejected);
  Obs.Metrics.Histogram.observe m_run_wall (Unix.gettimeofday () -. t0);
  result
