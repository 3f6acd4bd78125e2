module Model = Ta.Model
module Expr = Ta.Expr

type config = { rates : int -> int -> float }

let default_config = { rates = (fun _ _ -> 1.0) }

(* An edge as the race reads it. [chan] is -1 for an internal edge. *)
type edge = {
  guard : Kernel.guard;
  data : Expr.t option;
  chan : int;
  broadcast : bool;
  urgent : bool;
  dst : int;
  updates : Model.update list;
}

type compiled = {
  outs : edge array array array;
  recvs : edge array array array array;
  kinds : Model.loc_kind array array;
  invariants : Kernel.guard array array;
  initial : int array;
  layout : Ta.Store.layout;
  n_clocks : int;
  max_outs : int;
  max_recvs : int;
}

let compile_edge (e : Model.edge) =
  let chan, broadcast, urgent =
    match e.Model.sync with
    | Model.Tau -> (-1, false, false)
    | Model.Emit c | Model.Receive c ->
      (c.Model.chan_id, c.Model.kind = Model.Broadcast, c.Model.urgent)
  in
  {
    guard = Kernel.guard e.Model.clock_guard;
    data = e.Model.data_guard;
    chan;
    broadcast;
    urgent;
    dst = e.Model.dst;
    updates = e.Model.updates;
  }

let compile (net : Model.network) =
  let autos = net.Model.automata in
  let per_loc f =
    Array.map (fun (a : Model.automaton) -> Array.map f a.Model.locations) autos
  in
  let outs =
    Array.map
      (fun (a : Model.automaton) ->
        Array.map
          (fun es ->
            Array.of_list
              (List.filter_map
                 (fun (e : Model.edge) ->
                   match e.Model.sync with
                   | Model.Receive _ -> None
                   | Model.Emit _ | Model.Tau -> Some (compile_edge e))
                 es))
          a.Model.out)
      autos
  in
  (* The sync index files each location's receiving edges by channel,
     in out-list order: the order the race picks receivers in. *)
  let recvs =
    Array.map
      (Array.map (fun (ls : Model.loc_syncs) ->
           Array.map
             (fun ses ->
               Array.of_list
                 (List.map (fun (se : Model.synced_edge) -> compile_edge (snd se.Model.part)) ses))
             ls.Model.recvs))
      net.Model.syncs.Model.by_loc
  in
  let most f a = Array.fold_left (fun acc x -> max acc (f x)) 0 a in
  {
    outs;
    recvs;
    kinds = per_loc (fun (l : Model.location) -> l.Model.kind);
    invariants = per_loc (fun (l : Model.location) -> Kernel.guard l.Model.invariant);
    initial = Array.map (fun (a : Model.automaton) -> a.Model.initial) autos;
    layout = net.Model.layout;
    n_clocks = net.Model.n_clocks;
    max_outs = most (most Array.length) outs;
    max_recvs =
      Array.fold_left (fun acc r -> acc + most (most Array.length) r) 0 recvs;
  }

(* One run: its state, the race's arrays and the pick buffers. Nothing
   here is shared between runs. *)
type run = {
  st : Kernel.state;
  win : Kernel.window;
  data_ok : bool array;
  race_comp : int array;
  race_delay : float array;
  cands : edge array;
  recv_comp : int array;
  recv_edge : edge array;
}

let dummy =
  {
    guard = Kernel.guard [];
    data = None;
    chan = -1;
    broadcast = false;
    urgent = false;
    dst = 0;
    updates = [];
  }

let start c =
  let n = Array.length c.initial in
  {
    st =
      Kernel.state ~locs:(Array.copy c.initial)
        ~store:(Ta.Store.initial c.layout) ~n_clocks:c.n_clocks;
    win = { Kernel.lo = 0.0; hi = infinity };
    data_ok = Array.make c.max_outs false;
    race_comp = Array.make n 0;
    race_delay = Array.make n 0.0;
    cands = Array.make c.max_outs dummy;
    recv_comp = Array.make c.max_recvs 0;
    recv_edge = Array.make c.max_recvs dummy;
  }

let data_holds store e =
  match e.data with None -> true | Some g -> Expr.eval_bool store g

let enabled (st : Kernel.state) e =
  data_holds st.Kernel.store e && Kernel.sat e.guard st.Kernel.clocks

(* The enabled edges receiving on [chan] in components other than
   [from], by component then out-list order; returns their number. *)
let fill_receivers c r ~from chan =
  let st = r.st in
  let m = ref 0 in
  for j = 0 to Array.length c.recvs - 1 do
    if j <> from then begin
      let es = c.recvs.(j).(st.Kernel.locs.(j)).(chan) in
      for k = 0 to Array.length es - 1 do
        if enabled st es.(k) then begin
          r.recv_comp.(!m) <- j;
          r.recv_edge.(!m) <- es.(k);
          incr m
        end
      done
    end
  done;
  !m

let invariants_hold c (st : Kernel.state) =
  let ok = ref true and i = ref 0 in
  let n = Array.length c.invariants in
  while !ok && !i < n do
    ok := Kernel.sat c.invariants.(!i).(st.Kernel.locs.(!i)) st.Kernel.clocks;
    incr i
  done;
  !ok

let remove_at (a : 'a array) k len = Array.blit a (k + 1) a k (len - k - 1)

(* A binary emission of [e] by [i]: uniform among the ready receivers,
   one draw per attempt, and a receiver whose joint post-state breaks
   an invariant is dropped and the pick repeats. Each attempt starts
   from the saved state. *)
let sync_binary c rng r i e =
  let st = r.st in
  let rec attempt m =
    if m = 0 then false
    else begin
      let k = Random.State.int rng m in
      let j = r.recv_comp.(k) and er = r.recv_edge.(k) in
      Kernel.apply st i ~dst:e.dst e.updates;
      Kernel.apply st j ~dst:er.dst er.updates;
      if invariants_hold c st then true
      else begin
        Kernel.restore st;
        remove_at r.recv_comp k m;
        remove_at r.recv_edge k m;
        attempt (m - 1)
      end
    end
  in
  attempt (fill_receivers c r ~from:i e.chan)

(* A broadcast: every ready receiver takes part, a component with
   several ready edges picks one uniformly. The draws follow the
   grouping table's fold order, as they always have; broadcasts are
   rare enough to keep its lists. *)
let sync_broadcast c rng r i e =
  let st = r.st in
  let by_component = Hashtbl.create 8 in
  for k = 0 to fill_receivers c r ~from:i e.chan - 1 do
    let j = r.recv_comp.(k) in
    let existing = try Hashtbl.find by_component j with Not_found -> [] in
    Hashtbl.replace by_component j (r.recv_edge.(k) :: existing)
  done;
  let rs =
    Hashtbl.fold
      (fun j es acc ->
        (j, List.nth es (Random.State.int rng (List.length es))) :: acc)
      by_component []
  in
  let rs = List.sort (fun (a, _) (b, _) -> compare a b) rs in
  Kernel.apply st i ~dst:e.dst e.updates;
  List.iter (fun (j, er) -> Kernel.apply st j ~dst:er.dst er.updates) rs

(* A candidate move of component [i] now: an enabled output edge, a
   binary emission only with a ready receiver. *)
let candidate c r i e =
  enabled r.st e
  && (e.chan < 0 || e.broadcast || fill_receivers c r ~from:i e.chan > 0)

(* The move the winner [i] performs at the post-delay state: uniform
   among its candidates. A move whose post-state breaks an invariant is
   not enabled: it is dropped and the pick repeats over the rest, one
   draw per attempt. When nothing is enabled (the sampled delay fell
   into a gap between guard windows, or every move breaks an invariant)
   the state stays the post-delay state. True when [i] moved. *)
let fire c rng r i =
  let st = r.st in
  let es = c.outs.(i).(st.Kernel.locs.(i)) in
  let nc = ref 0 in
  for k = 0 to Array.length es - 1 do
    let e = es.(k) in
    if candidate c r i e then begin
      r.cands.(!nc) <- e;
      incr nc
    end
  done;
  Kernel.save st;
  let rec attempt m =
    if m = 0 then false
    else begin
      let k = Random.State.int rng m in
      let e = r.cands.(k) in
      let moved =
        if e.chan < 0 then begin
          Kernel.apply st i ~dst:e.dst e.updates;
          true
        end
        else if e.broadcast then begin
          sync_broadcast c rng r i e;
          true
        end
        else sync_binary c rng r i e
      in
      (moved && invariants_hold c st)
      || begin
        if moved then Kernel.restore st;
        remove_at r.cands k m;
        attempt (m - 1)
      end
    end
  in
  attempt !nc

(* After a race at delay 0 that moved nothing: true when no component
   racing at delay 0 has a candidate, so the same race would repeat
   until the fuel runs out. No draw. *)
let time_locked c r nr =
  let can_move k =
    let i = r.race_comp.(k) in
    r.race_delay.(k) = 0.0
    && Array.exists (candidate c r i) c.outs.(i).(r.st.Kernel.locs.(i))
  in
  let rec none k = k >= nr || ((not (can_move k)) && none (k + 1)) in
  none 0

(* Enter component [i] into the race with the delay it draws, unless it
   cannot act before the bound [inv_ub] the invariants put on waiting.
   An enabled urgent emission means delay 0; committed and urgent
   locations act now or never; otherwise the delay is uniform over the
   window up to [inv_ub] when that is finite, exponential at the
   location's rate when not. *)
let enter_race c cfg rng r ~inv_ub i nr =
  let st = r.st in
  let l = st.Kernel.locs.(i) in
  let es = c.outs.(i).(l) in
  let n = Array.length es in
  for k = 0 to n - 1 do
    r.data_ok.(k) <- data_holds st.Kernel.store es.(k)
  done;
  let urgent_now = ref false in
  for k = 0 to n - 1 do
    let e = es.(k) in
    if
      (not !urgent_now) && r.data_ok.(k) && e.urgent
      && Kernel.sat e.guard st.Kernel.clocks
      && (e.broadcast || fill_receivers c r ~from:i e.chan > 0)
    then urgent_now := true
  done;
  let any = ref false and lo = ref infinity in
  if not !urgent_now then
    for k = 0 to n - 1 do
      if r.data_ok.(k)
         && Kernel.window es.(k).guard st.Kernel.clocks ~slack:0.0 r.win
      then begin
        any := true;
        if not (!lo <= r.win.Kernel.lo) then lo := r.win.Kernel.lo
      end
    done;
  let lo = !lo in
  let d =
    if !urgent_now then 0.0
    else if not !any then infinity
    else if c.kinds.(i).(l) <> Model.Normal then
      if lo <= 0.0 then 0.0 else infinity
    else if lo > inv_ub then infinity
    else if inv_ub < infinity then begin
      let span = inv_ub -. lo in
      lo +. Random.State.float rng (if 0.0 >= span then 0.0 else span)
    end
    else begin
      let rate = cfg.rates i l in
      let u = Random.State.float rng 1.0 in
      lo +. (-.log (if 1e-300 >= u then 1e-300 else u) /. rate)
    end
  in
  if d < infinity then begin
    r.race_comp.(nr) <- i;
    r.race_delay.(nr) <- d;
    nr + 1
  end
  else nr

(* One race: every component draws a delay (committed components
   preempt everyone with delay 0), one draw picks among the smallest,
   time advances by it and the winner moves. False when no component
   can ever act again, or when the run is time-locked: a race at delay
   0 moved nothing and no component racing at delay 0 has a candidate
   (a committed or urgent location with no enabled edge, say). *)
let step c cfg rng r =
  let st = r.st in
  let n = Array.length c.initial in
  let nr = ref 0 in
  for i = 0 to n - 1 do
    if c.kinds.(i).(st.Kernel.locs.(i)) = Model.Committed then begin
      r.race_comp.(!nr) <- i;
      r.race_delay.(!nr) <- 0.0;
      incr nr
    end
  done;
  if !nr = 0 then begin
    r.win.Kernel.hi <- infinity;
    for i = n - 1 downto 0 do
      Kernel.bound_delay c.invariants.(i).(st.Kernel.locs.(i)) st.Kernel.clocks
        r.win
    done;
    let inv_ub = r.win.Kernel.hi in
    for i = 0 to n - 1 do
      nr := enter_race c cfg rng r ~inv_ub i !nr
    done
  end;
  if !nr = 0 then false
  else begin
    let d_min = ref infinity in
    for k = 0 to !nr - 1 do
      if not (!d_min <= r.race_delay.(k)) then d_min := r.race_delay.(k)
    done;
    let winners = ref 0 in
    for k = 0 to !nr - 1 do
      if r.race_delay.(k) = !d_min then incr winners
    done;
    (* The [w]-th winner (from 0), in race order. *)
    let w = ref (Random.State.int rng !winners) and k = ref 0 in
    while !w > 0 || r.race_delay.(!k) <> !d_min do
      if r.race_delay.(!k) = !d_min then decr w;
      incr k
    done;
    Kernel.advance st r.race_delay.(!k);
    fire c rng r r.race_comp.(!k) || !d_min > 0.0 || not (time_locked c r !nr)
  end

(* SMC sampler instruments: one sample = one simulated run; accepted
   means the stop predicate was hit within the horizon. A step is one
   race; a truncated run used up its fuel before the horizon. *)
let m_samples = Obs.counter "smc.samples"
let m_accepted = Obs.counter "smc.accepted"
let m_rejected = Obs.counter "smc.rejected"
let m_steps = Obs.counter "smc.steps"
let m_truncated = Obs.counter "smc.truncated_runs"
let m_run_wall = Obs.histogram "smc.run_wall_s"

let fuel = 100_000

let simulate c cfg rng ~horizon ~stop =
  let t0 = Obs.Clock.now () in
  let r = start c in
  let st = r.st in
  let steps = ref 0 and hit = ref None and running = ref true in
  while !running do
    if stop st.Kernel.locs st.Kernel.store then begin
      hit := Some st.Kernel.time;
      running := false
    end
    else if st.Kernel.time > horizon then running := false
    else if !steps = fuel then begin
      Obs.Metrics.Counter.incr m_truncated;
      running := false
    end
    else begin
      incr steps;
      running := step c cfg rng r
    end
  done;
  Obs.Metrics.Counter.incr m_samples;
  Obs.Metrics.Counter.add m_steps !steps;
  (match !hit with
   | Some _ -> Obs.Metrics.Counter.incr m_accepted
   | None -> Obs.Metrics.Counter.incr m_rejected);
  Obs.Metrics.Histogram.observe m_run_wall (Obs.Clock.to_s (Obs.Clock.now () -. t0));
  (st, !hit)
