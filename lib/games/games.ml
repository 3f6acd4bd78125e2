module Digital = Discrete.Digital
module Model = Ta.Model
module Zone_graph = Ta.Zone_graph
module Expr = Ta.Expr
module Store = Ta.Store

type objective =
  | Safety of (Digital.dstate -> bool)
  | Reach of (Digital.dstate -> bool)

type action = [ `Delay | `Move of Ta.Zone_graph.move ]

type solution = {
  graph : Digital.graph;
  winning : bool array;
  strategy : (int, action) Hashtbl.t;
  initial_winning : bool;
}

(* Edge classes of the game: uncontrollable actions, controllable
   actions, and the unit delay (the controller's wait). *)
let env = 0
and ctrl = 1
and wait = 2

let classes (g : Digital.graph) =
  Array.init (Array.length g.targets) (fun e ->
      match g.kinds.(e) with
      | `Delay -> wait
      | `Act _ -> if g.ctrls.(e) then ctrl else env)

(* Source state of every edge. *)
let sources (g : Digital.graph) =
  let src = Array.make (Array.length g.targets) 0 in
  for i = 0 to Array.length g.states - 1 do
    Array.fill src g.offsets.(i) (g.offsets.(i + 1) - g.offsets.(i)) i
  done;
  src

(* Per-state count of the edges of class [k]. *)
let out_count (g : Digital.graph) cls k =
  Array.init (Array.length g.states) (fun i ->
      let c = ref 0 in
      for e = g.offsets.(i) to g.offsets.(i + 1) - 1 do
        if cls.(e) = k then incr c
      done;
      !c)

(* The edges of class [k] into each state, in CSR form: the edges into
   [t] are [edge.(first.(t)) .. edge.(first.(t + 1) - 1)], by descending
   source id and, within a source, in edge order. *)
type preds = { first : int array; edge : int array }

let preds (g : Digital.graph) cls k =
  let n = Array.length g.states in
  let first = Array.make (n + 1) 0 in
  Array.iteri
    (fun e t -> if cls.(e) = k then first.(t + 1) <- first.(t + 1) + 1)
    g.targets;
  for t = 1 to n do
    first.(t) <- first.(t) + first.(t - 1)
  done;
  let next = Array.sub first 0 n in
  let edge = Array.make first.(n) 0 in
  for i = n - 1 downto 0 do
    for e = g.offsets.(i) to g.offsets.(i + 1) - 1 do
      if cls.(e) = k then begin
        let t = g.targets.(e) in
        edge.(next.(t)) <- e;
        next.(t) <- next.(t) + 1
      end
    done
  done;
  { first; edge }

let iter_preds p t f =
  for k = p.first.(t) to p.first.(t + 1) - 1 do
    f p.edge.(k)
  done

(* The strategy table of a per-state chosen edge ([-1]: no choice). *)
let strategy_of (g : Digital.graph) choice =
  let strategy = Hashtbl.create 1024 in
  Array.iteri
    (fun i e ->
      if e >= 0 then
        Hashtbl.replace strategy i
          (match g.kinds.(e) with `Delay -> `Delay | `Act mv -> `Move mv))
    choice;
  strategy

(* Reachability: least fixpoint (attractor). A state wins when it is a
   target, or every uncontrollable move stays winning AND either the
   controller owns a winning move (action or delay) or the environment is
   forced (no delay possible, some u-move, all winning). Predecessors
   are met in descending source id, controllable actions before the
   delay, so the first choice recorded per state is the strategy. *)
let solve_reach (g : Digital.graph) target =
  let n = Array.length g.states in
  let cls = classes g and src = sources g in
  let n_env = out_count g cls env and n_wait = out_count g cls wait in
  let preds_env = preds g cls env and preds_ctrl = preds g cls ctrl in
  let preds_wait = preds g cls wait in
  let winning = Array.make n false in
  let u_pending = Array.copy n_env in
  let choice = Array.make n (-1) in
  let queue = Queue.create () in
  let try_win i =
    if not winning.(i) then begin
      let env_forced = n_wait.(i) = 0 && n_env.(i) > 0 in
      if u_pending.(i) = 0 && (choice.(i) >= 0 || env_forced) then begin
        winning.(i) <- true;
        Queue.push i queue
      end
    end
  in
  Array.iteri
    (fun i st ->
      if target st then begin
        winning.(i) <- true;
        Queue.push i queue
      end)
    g.states;
  let choose e =
    let p = src.(e) in
    if choice.(p) < 0 then choice.(p) <- e;
    try_win p
  in
  while not (Queue.is_empty queue) do
    let t = Queue.pop queue in
    iter_preds preds_env t (fun e ->
        let p = src.(e) in
        u_pending.(p) <- u_pending.(p) - 1;
        try_win p);
    iter_preds preds_ctrl t choose;
    iter_preds preds_wait t choose
  done;
  (winning, strategy_of g choice)

(* Safety: greatest fixpoint. Keep a state while it is safe, no
   uncontrollable move leaves the kept set, and the controller can stand
   still (no delay, or delay kept) or act within the kept set. *)
let solve_safety (g : Digital.graph) safe =
  let n = Array.length g.states in
  let cls = classes g and src = sources g in
  let c_alive = out_count g cls ctrl in
  let has_delay = Array.map (fun c -> c > 0) (out_count g cls wait) in
  let delay_alive = Array.copy has_delay in
  let preds_env = preds g cls env and preds_ctrl = preds g cls ctrl in
  let preds_wait = preds g cls wait in
  let kept = Array.make n true in
  let queue = Queue.create () in
  let ok i =
    (* wait is fine when time cannot pass, or the delay successor kept *)
    let can_wait = (not has_delay.(i)) || delay_alive.(i) in
    can_wait || c_alive.(i) > 0
  in
  let drop i =
    if kept.(i) then begin
      kept.(i) <- false;
      Queue.push i queue
    end
  in
  Array.iteri (fun i st -> if not (safe st) then drop i) g.states;
  for i = 0 to n - 1 do
    if kept.(i) && not (ok i) then drop i
  done;
  while not (Queue.is_empty queue) do
    let t = Queue.pop queue in
    iter_preds preds_env t (fun e -> drop src.(e));
    iter_preds preds_ctrl t (fun e ->
        let p = src.(e) in
        c_alive.(p) <- c_alive.(p) - 1;
        if kept.(p) && not (ok p) then drop p);
    iter_preds preds_wait t (fun e ->
        let p = src.(e) in
        delay_alive.(p) <- false;
        if kept.(p) && not (ok p) then drop p)
  done;
  (* Strategy: the last controllable action (in edge order) into the
     kept set, else the delay when kept, else nothing (wait in a
     timelock). *)
  let last_into i k =
    let pick = ref (-1) in
    for e = g.offsets.(i) to g.offsets.(i + 1) - 1 do
      if cls.(e) = k && kept.(g.targets.(e)) then pick := e
    done;
    !pick
  in
  let choice =
    Array.init n (fun i ->
        if not kept.(i) then -1
        else
          let e = last_into i ctrl in
          if e >= 0 then e else last_into i wait)
  in
  (kept, strategy_of g choice)

let solve ?max_states net objective =
  let graph = Digital.explore ?max_states net in
  let winning, strategy =
    match objective with
    | Reach target -> solve_reach graph target
    | Safety safe -> solve_safety graph safe
  in
  (* The initial state is id 0. *)
  { graph; winning; strategy; initial_winning = winning.(0) }

let winning_count s =
  Array.fold_left (fun acc w -> if w then acc + 1 else acc) 0 s.winning

(* Closed-loop successor ids: all environment moves, plus the strategy's
   choice, plus delay when the controller has no recorded choice (it
   waits). *)
let closed_loop_succs s =
  let g = s.graph in
  fun i ->
    let choice = Hashtbl.find_opt s.strategy i in
    let succs = ref [] in
    for e = g.Digital.offsets.(i + 1) - 1 downto g.Digital.offsets.(i) do
      let keep =
        match g.Digital.kinds.(e), choice with
        | `Delay, None -> true (* waiting lets time pass *)
        | `Delay, Some `Delay -> true
        | `Delay, Some (`Move _) -> false
        | `Act _, _ when not g.Digital.ctrls.(e) -> true
        | `Act mv, Some (`Move mv') -> mv == mv'
        | `Act _, _ -> false
      in
      if keep then succs := g.Digital.targets.(e) :: !succs
    done;
    !succs

let closed_loop_safe s ~safe =
  let succs = closed_loop_succs s in
  let n = Array.length s.graph.Digital.states in
  let seen = Array.make n false in
  let init_id = 0 in
  let queue = Queue.create () in
  seen.(init_id) <- true;
  Queue.push init_id queue;
  let ok = ref true in
  while not (Queue.is_empty queue) do
    let i = Queue.pop queue in
    if not (safe s.graph.Digital.states.(i)) then ok := false;
    List.iter
      (fun j ->
        if not seen.(j) then begin
          seen.(j) <- true;
          Queue.push j queue
        end)
      (succs i)
  done;
  !ok

let closed_loop_reaches s ~target =
  let succs = closed_loop_succs s in
  let n = Array.length s.graph.Digital.states in
  let status = Array.make n `White in
  let rec verify i =
    match status.(i) with
    | `Good -> true
    | `Bad | `Gray -> false
    | `White ->
      if target s.graph.Digital.states.(i) then begin
        status.(i) <- `Good;
        true
      end
      else begin
        status.(i) <- `Gray;
        let kids = succs i in
        let ok = kids <> [] && List.for_all verify kids in
        status.(i) <- (if ok then `Good else `Bad);
        ok
      end
  in
  verify 0

(* ------------------------------------------------------------------ *)
(* The train game (Figs. 2-3)                                           *)
(* ------------------------------------------------------------------ *)

module Train_game = struct
  (* Timing constants: the paper's (Figs. 1-2) or a compact set that
     keeps the game structure (stop window, crossing delays) but shrinks
     the digital graph for scaling experiments. *)
  let constants_of = function
    | `Paper -> (25, 20, 10, 10, 15, 7, 5, 3)
    | `Compact -> (6, 5, 2, 2, 3, 1, 2, 1)

  let make ?(constants = `Paper) ~n_trains () =
    let safe_ub, appr_ub, stop_win, cross_lo, start_ub, start_lo, cross_ub,
        leave_lo =
      constants_of constants
    in
    assert (n_trains >= 1);
    let b = Model.builder () in
    let appr = Array.init n_trains (fun i -> Model.channel b (Printf.sprintf "appr%d" i)) in
    let stop = Array.init n_trains (fun i -> Model.channel b (Printf.sprintf "stop%d" i)) in
    let go = Array.init n_trains (fun i -> Model.channel b (Printf.sprintf "go%d" i)) in
    let leave = Array.init n_trains (fun i -> Model.channel b (Printf.sprintf "leave%d" i)) in
    let sb = Model.store b in
    let crossed = Store.array_var sb "crossed" n_trains in
    for i = 0 to n_trains - 1 do
      let x = Model.fresh_clock b (Printf.sprintf "x%d" i) in
      let a = Model.automaton b (Printf.sprintf "Train%d" i) in
      (* The environment must eventually send a train (Safe has an upper
         bound), which makes reachability objectives meaningful. *)
      let safe_l = Model.location a "Safe" ~invariant:[ Model.clock_le x safe_ub ] in
      let appr_l = Model.location a "Appr" ~invariant:[ Model.clock_le x appr_ub ] in
      let stop_l = Model.location a "Stop" in
      let start_l = Model.location a "Start" ~invariant:[ Model.clock_le x start_ub ] in
      let cross_l = Model.location a "Cross" ~invariant:[ Model.clock_le x cross_ub ] in
      Model.set_initial a safe_l;
      let mark_crossed =
        Model.Assign (Expr.Elem (crossed, Expr.Int i), Expr.Int 1)
      in
      (* Uncontrollable (dashed in Fig. 2): approaching, crossing, leaving. *)
      Model.edge a ~src:safe_l ~dst:appr_l ~sync:(Model.Emit appr.(i))
        ~updates:[ Model.Reset (x, 0) ] ~ctrl:false ();
      Model.edge a ~src:appr_l ~dst:cross_l
        ~clock_guard:[ Model.clock_ge x cross_lo ]
        ~updates:[ Model.Reset (x, 0); mark_crossed ]
        ~ctrl:false ();
      Model.edge a ~src:start_l ~dst:cross_l
        ~clock_guard:[ Model.clock_ge x start_lo ]
        ~updates:[ Model.Reset (x, 0); mark_crossed ]
        ~ctrl:false ();
      Model.edge a ~src:cross_l ~dst:safe_l
        ~clock_guard:[ Model.clock_ge x leave_lo ]
        ~sync:(Model.Emit leave.(i))
        ~updates:[ Model.Reset (x, 0) ]
        ~ctrl:false ();
      (* Controllable: being stopped / restarted by the controller. *)
      Model.edge a ~src:appr_l ~dst:stop_l
        ~clock_guard:[ Model.clock_le x stop_win ]
        ~sync:(Model.Receive stop.(i)) ();
      Model.edge a ~src:stop_l ~dst:start_l ~sync:(Model.Receive go.(i))
        ~updates:[ Model.Reset (x, 0) ] ()
    done;
    (* The unconstrained controller of Fig. 3: one location, all four
       kinds of moves always possible. *)
    let g = Model.automaton b "Controller" in
    let u = Model.location g "U" in
    for e = 0 to n_trains - 1 do
      Model.edge g ~src:u ~dst:u ~sync:(Model.Receive appr.(e)) ~ctrl:false ();
      Model.edge g ~src:u ~dst:u ~sync:(Model.Receive leave.(e)) ~ctrl:false ();
      Model.edge g ~src:u ~dst:u ~sync:(Model.Emit stop.(e)) ();
      Model.edge g ~src:u ~dst:u ~sync:(Model.Emit go.(e)) ()
    done;
    Model.build b

  let cross_indices net =
    let n = Array.length net.Model.automata - 1 in
    Array.init n (fun i ->
        Model.loc_index net i "Cross")

  let safe net =
    let cross = cross_indices net in
    fun (st : Digital.dstate) ->
      let in_cross = ref 0 in
      Array.iteri
        (fun i c -> if st.Digital.dlocs.(i) = c then incr in_cross)
        cross;
      !in_cross <= 1

  let all_crossed_once net =
    let crossed = Store.find net.Model.layout "crossed" in
    let n = crossed.Store.len in
    fun (st : Digital.dstate) ->
      let rec all k =
        k = n || (st.Digital.dstore.(crossed.Store.off + k) = 1 && all (k + 1))
      in
      all 0
end
