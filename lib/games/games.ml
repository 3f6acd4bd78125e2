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

(* Per-state transition split: uncontrollable moves, controllable action
   moves, and the unit-delay transition (controller-owned wait). *)
type split = {
  u : (int * Digital.dtrans) list; (* target id, transition *)
  c : (int * Digital.dtrans) list; (* action moves only *)
  delay : (int * Digital.dtrans) option;
}

let split_transitions graph =
  let id_of st = Digital.id_of graph st in
  Array.map
    (fun ts ->
      List.fold_left
        (fun acc t ->
          let tid = id_of t.Digital.target in
          match t.Digital.kind with
          | `Delay -> { acc with delay = Some (tid, t) }
          | `Act _ ->
            if t.Digital.tr_ctrl then { acc with c = (tid, t) :: acc.c }
            else { acc with u = (tid, t) :: acc.u })
        { u = []; c = []; delay = None }
        ts)
    graph.Digital.transitions

let action_of (t : Digital.dtrans) : action =
  match t.Digital.kind with `Delay -> `Delay | `Act mv -> `Move mv

(* Reachability: least fixpoint (attractor). A state wins when it is a
   target, or every uncontrollable move stays winning AND either the
   controller owns a winning move (action or delay) or the environment is
   forced (no delay possible, some u-move, all winning). *)
let solve_reach graph target =
  let n = Array.length graph.Digital.states in
  let split = split_transitions graph in
  let preds_u = Array.make n [] and preds_c = Array.make n [] in
  let preds_d = Array.make n [] in
  Array.iteri
    (fun i s ->
      List.iter (fun (tid, _) -> preds_u.(tid) <- i :: preds_u.(tid)) s.u;
      List.iter (fun (tid, t) -> preds_c.(tid) <- (i, t) :: preds_c.(tid)) s.c;
      match s.delay with
      | Some (tid, t) -> preds_d.(tid) <- (i, t) :: preds_d.(tid)
      | None -> ())
    split;
  let winning = Array.make n false in
  let u_pending = Array.map (fun s -> List.length s.u) split in
  let ctrl_choice : (int, action) Hashtbl.t = Hashtbl.create 1024 in
  let queue = Queue.create () in
  let try_win i =
    if not winning.(i) then begin
      let s = split.(i) in
      let env_forced = s.delay = None && s.u <> [] && u_pending.(i) = 0 in
      if u_pending.(i) = 0 && (Hashtbl.mem ctrl_choice i || env_forced) then begin
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
    graph.Digital.states;
  while not (Queue.is_empty queue) do
    let t = Queue.pop queue in
    List.iter
      (fun p ->
        u_pending.(p) <- u_pending.(p) - 1;
        try_win p)
      preds_u.(t);
    List.iter
      (fun (p, tr) ->
        if not (Hashtbl.mem ctrl_choice p) then
          Hashtbl.replace ctrl_choice p (action_of tr);
        try_win p)
      (preds_c.(t) @ preds_d.(t))
  done;
  (winning, ctrl_choice)

(* Safety: greatest fixpoint. Keep a state while it is safe, no
   uncontrollable move leaves the kept set, and the controller can stand
   still (no delay, or delay kept) or act within the kept set. *)
let solve_safety graph safe =
  let n = Array.length graph.Digital.states in
  let split = split_transitions graph in
  let preds_u = Array.make n [] and preds_c = Array.make n [] in
  let preds_d = Array.make n [] in
  Array.iteri
    (fun i s ->
      List.iter (fun (tid, _) -> preds_u.(tid) <- i :: preds_u.(tid)) s.u;
      List.iter (fun (tid, _) -> preds_c.(tid) <- i :: preds_c.(tid)) s.c;
      match s.delay with
      | Some (tid, _) -> preds_d.(tid) <- i :: preds_d.(tid)
      | None -> ())
    split;
  let kept = Array.make n true in
  let c_alive = Array.map (fun s -> List.length s.c) split in
  let delay_alive = Array.map (fun s -> s.delay <> None) split in
  let has_delay = Array.map (fun s -> s.delay <> None) split in
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
  Array.iteri
    (fun i st -> if not (safe st) then drop i)
    graph.Digital.states;
  for i = 0 to n - 1 do
    if kept.(i) && not (ok i) then drop i
  done;
  while not (Queue.is_empty queue) do
    let t = Queue.pop queue in
    List.iter drop preds_u.(t);
    List.iter
      (fun p ->
        c_alive.(p) <- c_alive.(p) - 1;
        if kept.(p) && not (ok p) then drop p)
      preds_c.(t);
    List.iter
      (fun p ->
        delay_alive.(p) <- false;
        if kept.(p) && not (ok p) then drop p)
      preds_d.(t)
  done;
  (* Strategy: any controllable action into the kept set, else delay when
     kept, else nothing (wait in a timelock). *)
  let strategy = Hashtbl.create 1024 in
  Array.iteri
    (fun i s ->
      if kept.(i) then begin
        match
          List.find_opt (fun (tid, _) -> kept.(tid)) s.c
        with
        | Some (_, tr) -> Hashtbl.replace strategy i (action_of tr)
        | None ->
          (match s.delay with
           | Some (tid, tr) when kept.(tid) ->
             Hashtbl.replace strategy i (action_of tr)
           | Some _ | None -> ())
      end)
    split;
  (kept, strategy)

let solve ?max_states net objective =
  let graph = Digital.explore ?max_states net in
  let winning, strategy =
    match objective with
    | Reach target -> solve_reach graph target
    | Safety safe -> solve_safety graph safe
  in
  let init_id = Digital.id_of graph (Digital.initial net) in
  { graph; winning; strategy; initial_winning = winning.(init_id) }

let winning_count s =
  Array.fold_left (fun acc w -> if w then acc + 1 else acc) 0 s.winning

(* Closed-loop successor ids: all environment moves, plus the strategy's
   choice, plus delay when the controller has no recorded choice (it
   waits). *)
let closed_loop_succs s =
  let graph = s.graph in
  let id_of st = Digital.id_of graph st in
  fun i ->
    let choice = Hashtbl.find_opt s.strategy i in
    List.filter_map
      (fun (t : Digital.dtrans) ->
        let keep =
          match t.Digital.kind, choice with
          | `Delay, None -> true (* waiting lets time pass *)
          | `Delay, Some `Delay -> true
          | `Delay, Some (`Move _) -> false
          | `Act _, _ when not t.Digital.tr_ctrl -> true
          | `Act mv, Some (`Move mv') -> mv == mv'
          | `Act _, _ -> false
        in
        if keep then Some (id_of t.Digital.target) else None)
      graph.Digital.transitions.(i)

let closed_loop_safe s ~safe =
  let succs = closed_loop_succs s in
  let n = Array.length s.graph.Digital.states in
  let seen = Array.make n false in
  (* The initial state is always id 0 (first state admitted by explore). *)
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
