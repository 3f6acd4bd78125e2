module Model = Ta.Model
module Zone_graph = Ta.Zone_graph
module Expr = Ta.Expr
module Bound = Zones.Bound

type dstate = { dlocs : int array; dstore : int array; dclocks : int array }

type dtrans = {
  kind : [ `Delay | `Act of Zone_graph.move ];
  target : dstate;
  tr_ctrl : bool;
}

(* Digital clocks are exact only for closed (non-strict), diagonal-free
   constraints: saturation keeps single-clock comparisons truthful but
   loses differences between two saturated clocks. *)
let constr_ok (c : Model.constr) =
  (c.ci = 0 || c.cj = 0) && not (Bound.is_strict c.cb)

let is_closed (net : Model.network) =
  let ok = ref true in
  Array.iter
    (fun (a : Model.automaton) ->
      Array.iter
        (fun (l : Model.location) ->
          if not (List.for_all constr_ok l.invariant) then ok := false)
        a.locations;
      Array.iter
        (fun edges ->
          List.iter
            (fun (e : Model.edge) ->
              if not (List.for_all constr_ok e.clock_guard) then ok := false)
            edges)
        a.out)
    net.automata;
  !ok

let sat_constr ks v (c : Model.constr) =
  ignore ks;
  if Bound.is_inf c.cb then true
  else begin
    let d = v.(c.ci) - v.(c.cj) in
    let m = Bound.constant c.cb in
    if Bound.is_strict c.cb then d < m else d <= m
  end

let sat_all ks v cs = List.for_all (sat_constr ks v) cs

let initial (net : Model.network) =
  if not (is_closed net) then
    invalid_arg
      "Digital: model must be closed and diagonal-free for digital-clock \
       analysis";
  {
    dlocs = Array.map (fun (a : Model.automaton) -> a.initial) net.automata;
    dstore = Ta.Store.initial net.layout;
    dclocks = Array.make (net.n_clocks + 1) 0;
  }

let invariant_ok net st =
  sat_all net.Model.max_consts st.dclocks
    (Zone_graph.invariant_constrs net st.dlocs)

let delay_successor net st =
  if not (Zone_graph.delay_allowed net st.dlocs st.dstore) then None
  else begin
    let ks = net.Model.max_consts in
    let v' =
      Array.mapi
        (fun i x -> if i = 0 then 0 else min (x + 1) (ks.(i) + 1))
        st.dclocks
    in
    let st' = { st with dclocks = v' } in
    if invariant_ok net st' then Some st' else None
  end

let act_successor net st (mv : Zone_graph.move) =
  let ks = net.Model.max_consts in
  let guards_ok =
    List.for_all
      (fun (_, (e : Model.edge)) -> sat_all ks st.dclocks e.clock_guard)
      mv.participants
  in
  if not guards_ok then None
  else begin
    let locs' = Array.copy st.dlocs in
    let store' = Array.copy st.dstore in
    let clocks' = Array.copy st.dclocks in
    List.iter
      (fun (i, (e : Model.edge)) ->
        locs'.(i) <- e.dst;
        List.iter
          (function
            | Model.Assign (lv, rhs) ->
              let value = Expr.eval store' rhs in
              store'.(Expr.lvalue_offset store' lv) <- value
            | Model.Reset (x, value) -> clocks'.(x) <- min value (ks.(x) + 1)
            | Model.Prim (_, f) -> f store')
          e.updates)
      mv.participants;
    let st' = { dlocs = locs'; dstore = store'; dclocks = clocks' } in
    if invariant_ok net st' then Some st' else None
  end

let move_ctrl (mv : Zone_graph.move) =
  List.for_all (fun (_, (e : Model.edge)) -> e.Model.ctrl) mv.participants

let successors net st =
  let acts =
    List.filter_map
      (fun mv ->
        match act_successor net st mv with
        | Some st' ->
          Some { kind = `Act mv; target = st'; tr_ctrl = move_ctrl mv }
        | None -> None)
      (Zone_graph.moves net st.dlocs st.dstore)
  in
  match delay_successor net st with
  | Some st' -> { kind = `Delay; target = st'; tr_ctrl = true } :: acts
  | None -> acts

type graph = {
  states : dstate array;
  index : int Engine.Codec.Tbl.t;
  pack : dstate -> Engine.Codec.packed;
  transitions : dtrans list array;
}

(* Packed-codec layout: locations bit-packed per automaton, one word
   per store cell (domains undeclared), and clocks as bounded fields —
   a digital clock saturates at [ks.(i) + 1], so clock [i] needs only
   enough bits for [0 .. ks.(i) + 1] (clock 0 is pinned to 0 and packs
   into zero bits). *)
let codec (net : Model.network) =
  let locs =
    Array.to_list
      (Array.map
         (fun (a : Model.automaton) ->
           Engine.Codec.Loc
             { name = a.Model.auto_name; count = Array.length a.Model.locations })
         net.automata)
  in
  let cells =
    List.init (Ta.Store.size net.Model.layout) (fun i ->
        Engine.Codec.Word (Printf.sprintf "store[%d]" i))
  in
  let ks = net.Model.max_consts in
  let clocks =
    List.init (net.Model.n_clocks + 1) (fun i ->
        Engine.Codec.Bounded
          {
            name = (if i = 0 then "t0" else net.Model.clock_names.(i));
            lo = 0;
            hi = (if i = 0 then 0 else ks.(i) + 1);
          })
  in
  let spec = Engine.Codec.spec (locs @ cells @ clocks) in
  let n_autos = Array.length net.automata in
  let n_cells = Ta.Store.size net.Model.layout in
  let pack st =
    Engine.Codec.encode spec (fun i ->
        if i < n_autos then st.dlocs.(i)
        else if i < n_autos + n_cells then st.dstore.(i - n_autos)
        else st.dclocks.(i - n_autos - n_cells))
  in
  (spec, pack)

let id_of g st = Engine.Codec.Tbl.find g.index (g.pack st)

let explore_stats ?(max_states = 2_000_000) ?jobs ?pool net =
  let _spec, pack = codec net in
  let succ st = List.map (fun t -> (t, t.target)) (successors net st) in
  (* With [jobs] the graph is the same for every [j >= 1], numbered
     canonically over the shards; [jobs:None] numbers it in one-shard
     BFS order. *)
  let out =
    Engine.Core.with_jobs jobs pool @@ fun ~shards ~size_hint pool ->
    Engine.Core.run_sharded ~max_states ~record_edges:true ~shards ?pool
      ~store:(fun () -> Engine.Store.discrete_keyed ~size_hint ())
      ~key:pack ~successors:succ
      ~on_state:(fun _ -> None)
      ~init:(initial net) ()
  in
  if out.Engine.Core.stats.Engine.Stats.truncated then
    failwith "Digital.explore: state limit exceeded";
  let states = out.Engine.Core.states in
  let index = Engine.Codec.Tbl.create (2 * Array.length states) in
  Array.iteri (fun id st -> Engine.Codec.Tbl.replace index (pack st) id) states;
  (* Every successor is either [Added] or a [Dup] under a discrete store,
     so the recorded edges are exactly the generated transition lists. *)
  let transitions = Array.map (List.map fst) out.Engine.Core.edges in
  ({ states; index; pack; transitions }, out.Engine.Core.stats)

let explore ?max_states ?jobs ?pool net =
  fst (explore_stats ?max_states ?jobs ?pool net)

let discrete_parts g =
  let tbl = Hashtbl.create 4096 in
  Array.iter
    (fun st -> Hashtbl.replace tbl (st.dlocs, st.dstore) ())
    g.states;
  tbl

let pp_dstate net ppf st =
  let locs =
    Array.to_list
      (Array.mapi
         (fun i l ->
           Printf.sprintf "%s.%s" net.Model.automata.(i).auto_name
             (Model.loc_name net i l))
         st.dlocs)
  in
  let clocks =
    Array.to_list
      (Array.mapi
         (fun i v ->
           if i = 0 then None
           else Some (Printf.sprintf "%s=%d" net.Model.clock_names.(i) v))
         st.dclocks)
    |> List.filter_map Fun.id
  in
  Format.fprintf ppf "(%s | %s | %a)"
    (String.concat "," locs)
    (String.concat "," clocks)
    (Ta.Store.pp_store net.Model.layout)
    st.dstore
