module Model = Ta.Model
module Expr = Ta.Expr
module Bound = Zones.Bound

type dstate = {
  slocs : int array;
  sstore : int array;
  sclocks : int array;
  stime : int;
}

type expansion = {
  sta : Sta.t;
  mdp : Mdp.t;
  states : dstate array;
  initial : int;
}

let sat_constr v (c : Model.constr) =
  Bound.is_inf c.cb
  ||
  let d = v.(c.ci) - v.(c.cj) in
  let m = Bound.constant c.cb in
  if Bound.is_strict c.cb then d < m else d <= m

let invariants_ok (sta : Sta.t) locs v =
  let ok = ref true in
  Array.iteri
    (fun pi (p : Sta.process) ->
      if
        not
          (List.for_all (sat_constr v) p.Sta.p_locations.(locs.(pi)).Sta.l_invariant)
      then ok := false)
    sta.Sta.processes;
  !ok

let urgent_present (sta : Sta.t) locs =
  let found = ref false in
  Array.iteri
    (fun pi (p : Sta.process) ->
      if p.Sta.p_locations.(locs.(pi)).Sta.l_kind = Sta.L_urgent then found := true)
    sta.Sta.processes;
  !found

let edge_enabled (sta : Sta.t) st (e : Sta.edge) =
  ignore sta;
  (match e.Sta.e_guard with
   | None -> true
   | Some g -> Expr.eval_bool st.sstore g)
  && List.for_all (sat_constr st.sclocks) e.Sta.e_clock_guard

(* Apply one branch's updates; returns (store, clocks). *)
let apply_branch (sta : Sta.t) st updates =
  let ks = sta.Sta.max_consts in
  let store = Array.copy st.sstore in
  let clocks = Array.copy st.sclocks in
  List.iter
    (function
      | Model.Assign (lv, rhs) ->
        let v = Expr.eval store rhs in
        store.(Expr.lvalue_offset store lv) <- v
      | Model.Reset (x, v) -> clocks.(x) <- min v (ks.(x) + 1)
      | Model.Prim (_, f) -> f store)
    updates;
  (store, clocks)

(* The weighted successor list of firing [edges] (one per participating
   process) simultaneously: the product of the edges' branch
   distributions. *)
let fire (sta : Sta.t) st (participants : (int * Sta.edge) list) =
  let total_weight (e : Sta.edge) =
    List.fold_left (fun acc (b : Sta.branch) -> acc + b.Sta.weight) 0 e.Sta.e_branches
  in
  let rec product parts =
    match parts with
    | [] -> [ (1.0, []) ]
    | (pi, (e : Sta.edge)) :: rest ->
      let tw = float_of_int (total_weight e) in
      let tails = product rest in
      List.concat_map
        (fun (b : Sta.branch) ->
          let p = float_of_int b.Sta.weight /. tw in
          List.map
            (fun (q, choices) -> (p *. q, (pi, b) :: choices))
            tails)
        e.Sta.e_branches
  in
  List.filter_map
    (fun (prob, choices) ->
      let locs = Array.copy st.slocs in
      let store = ref st.sstore and clocks = ref st.sclocks in
      List.iter
        (fun (pi, (b : Sta.branch)) ->
          locs.(pi) <- b.Sta.b_dst;
          let st' = { st with sstore = !store; sclocks = !clocks } in
          let s', c' = apply_branch sta st' b.Sta.b_updates in
          store := s';
          clocks := c')
        choices;
      let st' = { st with slocs = locs; sstore = !store; sclocks = !clocks } in
      if invariants_ok sta locs !clocks then Some (prob, st') else None)
    (product participants)

(* All enabled moves: internal edges fire alone; actions shared by two
   processes need an enabled edge on both sides (all combinations). *)
let moves (sta : Sta.t) st =
  let acc = ref [] in
  Array.iteri
    (fun pi (p : Sta.process) ->
      List.iter
        (fun (e : Sta.edge) ->
          if edge_enabled sta st e then begin
            match e.Sta.e_action with
            | None -> acc := (Printf.sprintf "%s:tau" p.Sta.p_name, [ (pi, e) ]) :: !acc
            | Some a ->
              (match Hashtbl.find_opt sta.Sta.sync a with
               | Some [ _ ] | None -> acc := (a, [ (pi, e) ]) :: !acc
               | Some [ p1; p2 ] ->
                 (* Count the pair once, when we are the first sharer. *)
                 if pi = p1 then begin
                   let q = sta.Sta.processes.(p2) in
                   List.iter
                     (fun (e2 : Sta.edge) ->
                       if
                         e2.Sta.e_action = Some a
                         && edge_enabled sta st e2
                       then acc := (a, [ (pi, e); (p2, e2) ]) :: !acc)
                     q.Sta.p_out.(st.slocs.(p2))
                 end
                 else if pi <> p2 then
                   (* A third process naming a 2-party action would have
                      been rejected at build time. *)
                   ()
               | Some _ -> assert false)
          end)
        p.Sta.p_out.(st.slocs.(pi)))
    sta.Sta.processes;
  List.rev !acc

(* Packed codec of a digital STA state: process locations and saturated
   clocks bit-packed, store cells one word each, and the (capped) global
   time counter as a bounded field — [-1] when untracked. *)
let codec ?time_cap (sta : Sta.t) =
  let ks = sta.Sta.max_consts in
  let locs =
    Array.to_list
      (Array.map
         (fun (p : Sta.process) ->
           Engine.Codec.Loc
             { name = p.Sta.p_name; count = Array.length p.Sta.p_locations })
         sta.Sta.processes)
  in
  let cells =
    List.init (Ta.Store.size sta.Sta.layout) (fun i ->
        Engine.Codec.Word (Printf.sprintf "store[%d]" i))
  in
  let clocks =
    List.init (sta.Sta.n_clocks + 1) (fun i ->
        Engine.Codec.Bounded
          {
            name = Printf.sprintf "c%d" i;
            lo = 0;
            hi = (if i = 0 then 0 else ks.(i) + 1);
          })
  in
  let time =
    [
      (match time_cap with
       | None -> Engine.Codec.Bounded { name = "time"; lo = -1; hi = -1 }
       | Some cap -> Engine.Codec.Bounded { name = "time"; lo = 0; hi = cap + 1 });
    ]
  in
  let spec = Engine.Codec.spec (locs @ cells @ clocks @ time) in
  let n_procs = Array.length sta.Sta.processes in
  let n_cells = Ta.Store.size sta.Sta.layout in
  let n_clocks = sta.Sta.n_clocks + 1 in
  let pack st =
    Engine.Codec.encode spec (fun i ->
        if i < n_procs then st.slocs.(i)
        else if i < n_procs + n_cells then st.sstore.(i - n_procs)
        else if i < n_procs + n_cells + n_clocks then
          st.sclocks.(i - n_procs - n_cells)
        else st.stime)
  in
  (spec, pack)

(* Regroup state [i]'s slice of the recorded edges into its MDP actions:
   consecutive edges with the same action index form one action, in
   generation order. Action 0 is the unit delay, the only action with a
   reward. *)
let actions_of { Engine.Core.offsets; labels; targets } i =
  let hi = offsets.(i + 1) in
  let index e = match labels.(e) with ai, _, _ -> ai in
  let rec from e =
    if e >= hi then []
    else begin
      let ai, a_label, _ = labels.(e) in
      let rec take e acc =
        if e < hi && index e = ai then
          let _, _, p = labels.(e) in
          take (e + 1) ((p, targets.(e)) :: acc)
        else (List.rev acc, e)
      in
      let probs, next = take e [] in
      { Mdp.a_label; probs; reward = (if ai = 0 then 1.0 else 0.0) } :: from next
    end
  in
  from offsets.(i)

let expand ?time_cap ?(max_states = 5_000_000) (sta : Sta.t) =
  (match Sta.classify sta with
   | Sta.Class_sta ->
     invalid_arg
       "Digital_sta.expand: model has open/diagonal constraints (STA class)"
   | Sta.Class_ta | Sta.Class_mdp | Sta.Class_pta -> ());
  let ks = sta.Sta.max_consts in
  let init =
    {
      slocs = Array.map (fun (p : Sta.process) -> p.Sta.p_initial) sta.Sta.processes;
      sstore = Ta.Store.initial sta.Sta.layout;
      sclocks = Array.make (sta.Sta.n_clocks + 1) 0;
      stime = (match time_cap with None -> -1 | Some _ -> 0);
    }
  in
  if not (invariants_ok sta init.slocs init.sclocks) then
    invalid_arg "Digital_sta.expand: initial state violates invariants";
  let _spec, pack = codec ?time_cap sta in
  (* Every edge is labelled (action index, action label, branch
     probability): the unit delay is action 0, the [k]-th move action
     [k + 1]. *)
  let successors st =
    let delay =
      if urgent_present sta st.slocs then []
      else begin
        let clocks' =
          Array.mapi
            (fun i x -> if i = 0 then 0 else min (x + 1) (ks.(i) + 1))
            st.sclocks
        in
        if not (invariants_ok sta st.slocs clocks') then []
        else
          let time' =
            match time_cap with
            | None -> -1
            | Some cap -> min (st.stime + 1) (cap + 1)
          in
          [ ((0, "delay", 1.0), { st with sclocks = clocks'; stime = time' }) ]
      end
    in
    let acts =
      List.mapi
        (fun k (label, participants) ->
          let outcomes = fire sta st participants in
          let total = List.fold_left (fun acc (p, _) -> acc +. p) 0.0 outcomes in
          (* Branches whose target violates an invariant were dropped;
             the edge counts only when everything survived — otherwise
             it is considered blocked (well-formed models are
             unaffected). No outcomes at all sums to 0. *)
          if abs_float (total -. 1.0) > 1e-9 then []
          else List.map (fun (p, st') -> ((k + 1, label, p), st')) outcomes)
        (moves sta st)
    in
    delay @ List.concat acts
  in
  let out =
    Engine.Core.run_sharded ~max_states ~record_edges:true ~shards:1
      ~store:(fun () -> Engine.Store.discrete_keyed ~size_hint:65536 ())
      ~key:pack ~successors
      ~on_state:(fun _ -> None)
      ~init ()
  in
  if out.Engine.Core.stats.Engine.Stats.truncated then
    failwith "Digital_sta.expand: state limit";
  (* A discrete store answers every successor [Added] or [Dup], so the
     recorded edges are exactly the generated ones. *)
  let edges = out.Engine.Core.edges in
  let mdp =
    Mdp.make (Array.init (Array.length out.Engine.Core.states) (actions_of edges))
  in
  { sta; mdp; states = out.Engine.Core.states; initial = 0 }

let target_of exp pred = Array.map pred exp.states

let pred_of_mprop exp p =
  let p = Mprop.compile exp.sta p in
  fun (st : dstate) -> p st.slocs st.sstore
