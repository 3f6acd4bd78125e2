module Model = Ta.Model
module Expr = Ta.Expr
module Bound = Zones.Bound

(* Simulator instruments: an "event" is one fired move (internal or
   synchronised pair); the event-queue depth is the number of candidate
   moves the scheduler chose among at that step. *)
let m_runs = Obs.counter "modes.runs"
let m_events = Obs.counter "modes.events"
let m_queue_depth = Obs.histogram "modes.queue_depth"

type observation = {
  hits : float option array;
  monitors_ok : bool array;
  end_time : float;
  steps : int;
}

type mstate = {
  mlocs : int array;
  mstore : int array;
  mclocks : float array;
  mtime : float;
}

let initial (sta : Sta.t) =
  {
    mlocs = Array.map (fun (p : Sta.process) -> p.Sta.p_initial) sta.Sta.processes;
    mstore = Ta.Store.initial sta.Sta.layout;
    mclocks = Array.make (sta.Sta.n_clocks + 1) 0.0;
    mtime = 0.0;
  }

(* Delay window [lo, hi] in which the clock guard can be satisfied. *)
let guard_window v constrs =
  let lo = ref 0.0 and hi = ref infinity and feasible = ref true in
  List.iter
    (fun (c : Model.constr) ->
      if not (Bound.is_inf c.cb) then begin
        let m = float_of_int (Bound.constant c.cb) in
        if c.ci > 0 && c.cj = 0 then hi := min !hi (m -. v.(c.ci))
        else if c.ci = 0 && c.cj > 0 then lo := max !lo (-.m -. v.(c.cj))
        else if not (Bound.sat c.cb (v.(c.ci) -. v.(c.cj))) then feasible := false
      end)
    constrs;
  if (not !feasible) || !lo > !hi +. 1e-12 then None else Some (!lo, !hi)

let data_ok store (e : Sta.edge) =
  match e.Sta.e_guard with None -> true | Some g -> Expr.eval_bool store g

(* Candidate moves with the earliest delay at which each becomes enabled:
   internal / one-party edges alone, two-party actions as pairs. *)
let candidate_moves (sta : Sta.t) st =
  let acc = ref [] in
  let edge_lo (e : Sta.edge) =
    match guard_window st.mclocks e.Sta.e_clock_guard with
    | Some (lo, hi) -> Some (max 0.0 lo, hi)
    | None -> None
  in
  Array.iteri
    (fun pi (p : Sta.process) ->
      List.iter
        (fun (e : Sta.edge) ->
          if data_ok st.mstore e then begin
            match e.Sta.e_action with
            | None -> (
                match edge_lo e with
                | Some (lo, hi) -> acc := (lo, hi, [ (pi, e) ]) :: !acc
                | None -> ())
            | Some a ->
              (match Hashtbl.find_opt sta.Sta.sync a with
               | Some [ _ ] | None -> (
                   match edge_lo e with
                   | Some (lo, hi) -> acc := (lo, hi, [ (pi, e) ]) :: !acc
                   | None -> ())
               | Some [ p1; p2 ] ->
                 if pi = p1 then begin
                   List.iter
                     (fun (e2 : Sta.edge) ->
                       if e2.Sta.e_action = Some a && data_ok st.mstore e2 then
                         match edge_lo e, edge_lo e2 with
                         | Some (lo1, hi1), Some (lo2, hi2) ->
                           let lo = max lo1 lo2 and hi = min hi1 hi2 in
                           if lo <= hi +. 1e-12 then
                             acc := (lo, hi, [ (pi, e); (p2, e2) ]) :: !acc
                         | _, _ -> ())
                     sta.Sta.processes.(p2).Sta.p_out.(st.mlocs.(p2))
                 end
               | Some _ -> assert false)
          end)
        p.Sta.p_out.(st.mlocs.(pi)))
    sta.Sta.processes;
  List.rev !acc

let invariant_ub (sta : Sta.t) st =
  let ub = ref infinity in
  Array.iteri
    (fun pi (p : Sta.process) ->
      List.iter
        (fun (c : Model.constr) ->
          if (not (Bound.is_inf c.cb)) && c.ci > 0 && c.cj = 0 then
            ub := min !ub (float_of_int (Bound.constant c.cb) -. st.mclocks.(c.ci)))
        p.Sta.p_locations.(st.mlocs.(pi)).Sta.l_invariant)
    sta.Sta.processes;
  !ub

let urgent_present (sta : Sta.t) st =
  let found = ref false in
  Array.iteri
    (fun pi (p : Sta.process) ->
      if p.Sta.p_locations.(st.mlocs.(pi)).Sta.l_kind = Sta.L_urgent then
        found := true)
    sta.Sta.processes;
  !found

let sample_branch rng (e : Sta.edge) =
  let total =
    List.fold_left (fun acc (b : Sta.branch) -> acc + b.Sta.weight) 0 e.Sta.e_branches
  in
  let roll = Random.State.int rng total in
  let rec pick acc = function
    | [] -> assert false
    | (b : Sta.branch) :: rest ->
      let acc = acc + b.Sta.weight in
      if roll < acc then b else pick acc rest
  in
  pick 0 e.Sta.e_branches

let fire rng (st : mstate) participants =
  let locs = Array.copy st.mlocs in
  let store = Array.copy st.mstore in
  let clocks = Array.copy st.mclocks in
  List.iter
    (fun (pi, e) ->
      let b = sample_branch rng e in
      locs.(pi) <- b.Sta.b_dst;
      List.iter
        (function
          | Model.Assign (lv, rhs) ->
            let v = Expr.eval store rhs in
            store.(Expr.lvalue_offset store lv) <- v
          | Model.Reset (x, v) -> clocks.(x) <- float_of_int v
          | Model.Prim (_, f) -> f store)
        b.Sta.b_updates)
    participants;
  { st with mlocs = locs; mstore = store; mclocks = clocks }

let advance st d =
  {
    st with
    mclocks = Array.mapi (fun i x -> if i = 0 then 0.0 else x +. d) st.mclocks;
    mtime = st.mtime +. d;
  }

(* One ASAP step: fire an enabled move now, else advance to the earliest
   enabling instant (within invariants) and fire there. *)
let step (sta : Sta.t) rng st =
  let candidates = candidate_moves sta st in
  Obs.Metrics.Counter.incr m_events;
  Obs.Metrics.Histogram.observe m_queue_depth
    (float_of_int (List.length candidates));
  let now = List.filter (fun (lo, _, _) -> lo <= 1e-12) candidates in
  match now with
  | _ :: _ ->
    let _, _, participants =
      List.nth now (Random.State.int rng (List.length now))
    in
    Some (fire rng st participants)
  | [] ->
    if urgent_present sta st then None (* urgent state with nothing enabled *)
    else begin
      let ub = invariant_ub sta st in
      let earliest =
        List.fold_left
          (fun acc (lo, _, _) -> if lo <= ub +. 1e-12 then min acc lo else acc)
          infinity candidates
      in
      if earliest = infinity then None
      else begin
        let st' = advance st earliest in
        let enabled =
          List.filter
            (fun (_, _, parts) ->
              List.for_all
                (fun (_, (e : Sta.edge)) ->
                  match guard_window st'.mclocks e.Sta.e_clock_guard with
                  | Some (lo, _) -> lo <= 1e-12
                  | None -> false)
                parts)
            candidates
        in
        match enabled with
        | [] -> Some st' (* numeric edge case: retry from advanced state *)
        | _ ->
          let _, _, participants =
            List.nth enabled (Random.State.int rng (List.length enabled))
          in
          Some (fire rng st' participants)
      end
    end

let run (sta : Sta.t) ~seed ~horizon ~watch ~monitors =
  let rng = Random.State.make [| seed |] in
  let hits = Array.make (Array.length watch) None in
  let monitors_ok = Array.make (Array.length monitors) true in
  let observe (st : mstate) =
    Array.iteri
      (fun k p ->
        if hits.(k) = None && Mprop.eval sta ~locs:st.mlocs ~store:st.mstore p
        then hits.(k) <- Some st.mtime)
      watch;
    Array.iteri
      (fun k p ->
        if monitors_ok.(k)
           && not (Mprop.eval sta ~locs:st.mlocs ~store:st.mstore p)
        then monitors_ok.(k) <- false)
      monitors
  in
  let rec loop st steps =
    observe st;
    let all_hit =
      Array.length hits > 0 && Array.for_all (fun h -> h <> None) hits
    in
    if all_hit || st.mtime > horizon || steps > 1_000_000 then (st, steps)
    else
      match step sta rng st with
      | None -> (st, steps)
      | Some st' -> loop st' (steps + 1)
  in
  let final, steps = loop (initial sta) 0 in
  Obs.Metrics.Counter.incr m_runs;
  { hits; monitors_ok; end_time = final.mtime; steps }

let runs ?pool sta ~seed ~n ~horizon ~watch ~monitors =
  Obs.Span.with_ ~name:"modes.batch" @@ fun () ->
  (* Run k is fully determined by its derived seed, so the batch shards
     across a pool without changing any observation. *)
  Par.map_range ?pool ~lo:0 ~hi:n (fun k ->
      run sta ~seed:(seed + (k * 7919)) ~horizon ~watch ~monitors)
