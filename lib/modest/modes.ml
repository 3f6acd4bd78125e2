module Model = Ta.Model
module Expr = Ta.Expr
module Kernel = Smc.Kernel

(* Simulator instruments: an "event" is one fired move (internal or
   synchronised pair); the event-queue depth is the number of candidate
   moves the scheduler chose among at that step. A truncated run hit
   the step cap before the horizon. *)
let m_runs = Obs.counter "modes.runs"
let m_events = Obs.counter "modes.events"
let m_truncated = Obs.counter "modes.truncated_runs"
let m_queue_depth = Obs.histogram "modes.queue_depth"

type observation = {
  hits : float option array;
  monitors_ok : bool array;
  end_time : float;
  steps : int;
}

(* What an edge's action makes of it: a move of its own, the leading
   side of a two-party action (paired with the [partner] process's
   matching edges), or the other side, which only moves as a partner. *)
type role = Alone | Lead of int | Follow

type edge = {
  guard : Kernel.guard;
  data : Expr.t option;
  role : role;
  weights : int array;
  total : int;
  dsts : int array;
  updates : Model.update list array;
  partners : edge array array;
      (* for a leading edge: per partner location, the partner's edges
         on the same action, in out-list order *)
}

type compiled = {
  edges : edge array array array;
  urgent : bool array array;
  invariants : Kernel.guard array array;
  initial : int array;
  layout : Ta.Store.layout;
  n_clocks : int;
  max_candidates : int;
}

let compile (sta : Sta.t) =
  let procs = sta.Sta.processes in
  let base pi (e : Sta.edge) =
    let role =
      match e.Sta.e_action with
      | None -> Alone
      | Some a -> (
        match Hashtbl.find_opt sta.Sta.sync a with
        | Some [ _ ] | None -> Alone
        | Some [ p1; p2 ] -> if pi = p1 then Lead p2 else Follow
        | Some _ -> assert false)
    in
    let branches = Array.of_list e.Sta.e_branches in
    let weights = Array.map (fun (b : Sta.branch) -> b.Sta.weight) branches in
    {
      guard = Kernel.guard e.Sta.e_clock_guard;
      data = e.Sta.e_guard;
      role;
      weights;
      total = Array.fold_left ( + ) 0 weights;
      dsts = Array.map (fun (b : Sta.branch) -> b.Sta.b_dst) branches;
      updates = Array.map (fun (b : Sta.branch) -> b.Sta.b_updates) branches;
      partners = [||];
    }
  in
  let plain =
    Array.mapi
      (fun pi (p : Sta.process) ->
        Array.map (List.map (fun e -> (e, base pi e))) p.Sta.p_out)
      procs
  in
  (* Pair each leading edge with its partner's edges on the same action,
     at every location of the partner. *)
  let edges =
    Array.map
      (Array.map (fun es ->
           Array.of_list
             (List.map
                (fun ((e : Sta.edge), ce) ->
                  match ce.role with
                  | Lead p2 ->
                    let on_action ((e2 : Sta.edge), _) =
                      e2.Sta.e_action = e.Sta.e_action
                    in
                    let partners =
                      Array.map
                        (fun es2 ->
                          Array.of_list (List.map snd (List.filter on_action es2)))
                        plain.(p2)
                    in
                    { ce with partners }
                  | Alone | Follow -> ce)
                es)))
      plain
  in
  (* At most one candidate per lone edge and one per partner edge of a
     leading edge, over every process's busiest location. *)
  let width e =
    match e.role with
    | Alone -> 1
    | Follow -> 0
    | Lead _ -> Array.fold_left (fun acc ps -> max acc (Array.length ps)) 0 e.partners
  in
  let busiest locs =
    Array.fold_left
      (fun acc es -> max acc (Array.fold_left (fun a e -> a + width e) 0 es))
      0 locs
  in
  let per_loc f =
    Array.map (fun (p : Sta.process) -> Array.map f p.Sta.p_locations) procs
  in
  {
    edges;
    urgent = per_loc (fun (l : Sta.location) -> l.Sta.l_kind = Sta.L_urgent);
    invariants = per_loc (fun (l : Sta.location) -> Kernel.guard l.Sta.l_invariant);
    initial = Array.map (fun (p : Sta.process) -> p.Sta.p_initial) procs;
    layout = sta.Sta.layout;
    n_clocks = sta.Sta.n_clocks;
    max_candidates = Array.fold_left (fun acc locs -> acc + busiest locs) 0 edges;
  }

(* One run's state and candidate buffer: each candidate is the earliest
   delay [lo] at which it is enabled and one or two participants ([p2]
   is -1 for a lone edge). *)
type run = {
  st : Kernel.state;
  win : Kernel.window;
  c_lo : float array;
  c_p1 : int array;
  c_e1 : edge array;
  c_p2 : int array;
  c_e2 : edge array;
  c_on : bool array;
}

let slack = 1e-12

let dummy =
  {
    guard = Kernel.guard [];
    data = None;
    role = Follow;
    weights = [||];
    total = 0;
    dsts = [||];
    updates = [||];
    partners = [||];
  }

let start c =
  let m = c.max_candidates in
  {
    st =
      Kernel.state ~locs:(Array.copy c.initial)
        ~store:(Ta.Store.initial c.layout) ~n_clocks:c.n_clocks;
    win = { Kernel.lo = 0.0; hi = infinity };
    c_lo = Array.make m 0.0;
    c_p1 = Array.make m 0;
    c_e1 = Array.make m dummy;
    c_p2 = Array.make m 0;
    c_e2 = Array.make m dummy;
    c_on = Array.make m false;
  }

let data_ok store e =
  match e.data with None -> true | Some g -> Expr.eval_bool store g

let[@inline] push r n ~lo p1 e1 p2 e2 =
  r.c_lo.(n) <- lo;
  r.c_p1.(n) <- p1;
  r.c_e1.(n) <- e1;
  r.c_p2.(n) <- p2;
  r.c_e2.(n) <- e2;
  n + 1

(* Candidate moves with the earliest delay at which each becomes
   enabled, in process and out-list order: lone edges alone, leading
   edges paired with each data-enabled partner edge whose window meets
   theirs. Returns their number. *)
let candidates c r =
  let st = r.st in
  let v = st.Kernel.clocks and store = st.Kernel.store and w = r.win in
  let n = ref 0 in
  for pi = 0 to Array.length c.edges - 1 do
    let es = c.edges.(pi).(st.Kernel.locs.(pi)) in
    for k = 0 to Array.length es - 1 do
      let e = es.(k) in
      match e.role with
      | Follow -> ()
      | Alone ->
        if data_ok store e && Kernel.window e.guard v ~slack w then begin
          let lo = w.Kernel.lo in
          n := push r !n ~lo:(if 0.0 >= lo then 0.0 else lo) pi e (-1) dummy
        end
      | Lead p2 ->
        if data_ok store e && Kernel.window e.guard v ~slack w then begin
          let lo1 = w.Kernel.lo and hi1 = w.Kernel.hi in
          let lo1 = if 0.0 >= lo1 then 0.0 else lo1 in
          let partners = e.partners.(st.Kernel.locs.(p2)) in
          for k2 = 0 to Array.length partners - 1 do
            let e2 = partners.(k2) in
            if data_ok store e2 && Kernel.window e2.guard v ~slack w then begin
              let lo2 = if 0.0 >= w.Kernel.lo then 0.0 else w.Kernel.lo in
              let lo = if lo1 >= lo2 then lo1 else lo2 in
              let hi = if hi1 <= w.Kernel.hi then hi1 else w.Kernel.hi in
              if lo <= hi +. slack then n := push r !n ~lo pi e p2 e2
            end
          done
        end
    done
  done;
  !n

(* Sample a branch of [e] by weight (one draw), then move process [pi]
   along it. *)
let take rng st pi e =
  let roll = Random.State.int rng e.total in
  let b = ref 0 and acc = ref e.weights.(0) in
  while roll >= !acc do
    incr b;
    acc := !acc + e.weights.(!b)
  done;
  Kernel.apply st pi ~dst:e.dsts.(!b) e.updates.(!b)

let fire rng r k =
  take rng r.st r.c_p1.(k) r.c_e1.(k);
  if r.c_p2.(k) >= 0 then take rng r.st r.c_p2.(k) r.c_e2.(k)

(* Fire the [j]-th (from 0) candidate marked in [c_on]. *)
let fire_nth rng r j =
  let j = ref j and k = ref 0 in
  while !j > 0 || not r.c_on.(!k) do
    if r.c_on.(!k) then decr j;
    incr k
  done;
  fire rng r !k

let urgent_present c (st : Kernel.state) =
  let found = ref false in
  for pi = 0 to Array.length c.urgent - 1 do
    if c.urgent.(pi).(st.Kernel.locs.(pi)) then found := true
  done;
  !found

(* A participant is enabled now when its window opens within the
   slack. *)
let opens_now r e =
  Kernel.window e.guard r.st.Kernel.clocks ~slack r.win && r.win.Kernel.lo <= slack

(* One ASAP step: fire an enabled move now, else advance to the earliest
   enabling instant (within invariants) and fire there. False when the
   run is stuck. *)
let step c rng r =
  let st = r.st in
  let n = candidates c r in
  Obs.Metrics.Counter.incr m_events;
  Obs.Metrics.Histogram.observe m_queue_depth (float_of_int n);
  let now = ref 0 in
  for k = 0 to n - 1 do
    let on = r.c_lo.(k) <= slack in
    r.c_on.(k) <- on;
    if on then incr now
  done;
  if !now > 0 then begin
    fire_nth rng r (Random.State.int rng !now);
    true
  end
  else if urgent_present c st then false
  else begin
    r.win.Kernel.hi <- infinity;
    for pi = 0 to Array.length c.invariants - 1 do
      Kernel.bound_delay c.invariants.(pi).(st.Kernel.locs.(pi)) st.Kernel.clocks r.win
    done;
    let ub = r.win.Kernel.hi in
    let earliest = ref infinity in
    for k = 0 to n - 1 do
      let lo = r.c_lo.(k) in
      if lo <= ub +. slack && not (!earliest <= lo) then earliest := lo
    done;
    if !earliest = infinity then false
    else begin
      Kernel.advance st !earliest;
      let enabled = ref 0 in
      for k = 0 to n - 1 do
        let on =
          opens_now r r.c_e1.(k) && (r.c_p2.(k) < 0 || opens_now r r.c_e2.(k))
        in
        r.c_on.(k) <- on;
        if on then incr enabled
      done;
      (* None enabled is a numeric edge case: retry from the advanced
         state. *)
      if !enabled > 0 then fire_nth rng r (Random.State.int rng !enabled);
      true
    end
  end

let max_steps = 1_000_000

let run c ~seed ~horizon ~watch ~monitors =
  let rng = Random.State.make [| seed |] in
  let hits = Array.make (Array.length watch) None in
  let monitors_ok = Array.make (Array.length monitors) true in
  let r = start c in
  let st = r.st in
  let observe () =
    let locs = st.Kernel.locs and store = st.Kernel.store in
    for k = 0 to Array.length watch - 1 do
      match hits.(k) with
      | None -> if watch.(k) locs store then hits.(k) <- Some st.Kernel.time
      | Some _ -> ()
    done;
    for k = 0 to Array.length monitors - 1 do
      if monitors_ok.(k) && not (monitors.(k) locs store) then monitors_ok.(k) <- false
    done
  in
  let all_hit () =
    Array.length hits > 0 && Array.for_all (fun h -> h <> None) hits
  in
  let steps = ref 0 and running = ref true in
  while !running do
    observe ();
    if all_hit () || st.Kernel.time > horizon then running := false
    else if !steps > max_steps then begin
      Obs.Metrics.Counter.incr m_truncated;
      running := false
    end
    else if step c rng r then incr steps
    else running := false
  done;
  Obs.Metrics.Counter.incr m_runs;
  { hits; monitors_ok; end_time = st.Kernel.time; steps = !steps }

let runs ?pool sta ~seed ~n ~horizon ~watch ~monitors =
  Obs.Span.with_ ~name:"modes.batch" @@ fun () ->
  (* Compile the model and its props once: the tables are immutable and
     every pool domain reads them. Run k is fully determined by its
     derived seed, so the batch shards across a pool without changing
     any observation. *)
  let c = compile sta in
  let watch = Array.map (Mprop.compile sta) watch in
  let monitors = Array.map (Mprop.compile sta) monitors in
  Par.map_range ?pool ~lo:0 ~hi:n (fun k ->
      run c ~seed:(seed + (k * 7919)) ~horizon ~watch ~monitors)
