module Model = Ta.Model
module Zone_graph = Ta.Zone_graph
module Expr = Ta.Expr
module Bound = Zones.Bound

type dstate = { dlocs : int array; dstore : int array; dclocks : int array }

type kind = [ `Delay | `Act of Zone_graph.move ]

type dtrans = { kind : kind; target : dstate; tr_ctrl : bool }

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

let sat v (c : Model.constr) =
  if Bound.is_inf c.cb then true
  else begin
    let d = v.(c.ci) - v.(c.cj) in
    let m = Bound.constant c.cb in
    if Bound.is_strict c.cb then d < m else d <= m
  end

let sat_constr _ks v c = sat v c

(* Direct recursions, not [List.for_all] over a partial application:
   these checks run for every generated edge and allocate nothing. *)
let rec sat_all v = function
  | [] -> true
  | c :: cs -> sat v c && sat_all v cs

(* Every current location's invariant holds on [v], clause by clause,
   from automaton [i] on. *)
let rec invariant_ok (net : Model.network) locs v i =
  i = Array.length locs
  || sat_all v net.automata.(i).locations.(locs.(i)).invariant
     && invariant_ok net locs v (i + 1)

let rec guards_ok v = function
  | [] -> true
  | (_, (e : Model.edge)) :: ps -> sat_all v e.clock_guard && guards_ok v ps

let initial (net : Model.network) =
  if not (is_closed net) then
    invalid_arg
      "Digital: model must be closed and diagonal-free for digital-clock \
       analysis";
  let st =
    {
      dlocs = Array.map (fun (a : Model.automaton) -> a.initial) net.automata;
      dstore = Ta.Store.initial net.layout;
      dclocks = Array.make (net.n_clocks + 1) 0;
    }
  in
  if not (invariant_ok net st.dlocs st.dclocks 0) then
    invalid_arg "Digital.initial: initial state violates invariants";
  st

(* One time unit: every unsaturated clock advances. With every clock
   saturated the delay is a self-loop and the target is [st] itself. *)
let delay_successor net st =
  if not (Zone_graph.delay_allowed net st.dlocs st.dstore) then None
  else begin
    let ks = net.Model.max_consts in
    let v = st.dclocks in
    let rec saturated i =
      i = Array.length v || (v.(i) > ks.(i) && saturated (i + 1))
    in
    let st' =
      if saturated 1 then st
      else
        let tick i x = if i = 0 then 0 else min (x + 1) (ks.(i) + 1) in
        { st with dclocks = Array.mapi tick v }
    in
    if invariant_ok net st'.dlocs st'.dclocks 0 then Some st' else None
  end

(* Copy on write: [cur], while still [orig], becomes a copy of it. *)
let own cur orig = if !cur == orig then cur := Array.copy orig

(* The move's target: locations always copied, store and clocks shared
   with [st] until an update actually changes a cell. *)
let act_successor net st (mv : Zone_graph.move) =
  let ks = net.Model.max_consts in
  if not (guards_ok st.dclocks mv.participants) then None
  else begin
    let locs' = Array.copy st.dlocs in
    let store' = ref st.dstore and clocks' = ref st.dclocks in
    List.iter
      (fun (i, (e : Model.edge)) ->
        locs'.(i) <- e.dst;
        List.iter
          (function
            | Model.Assign (lv, rhs) ->
              let value = Expr.eval !store' rhs in
              let off = Expr.lvalue_offset !store' lv in
              if !store'.(off) <> value then begin
                own store' st.dstore;
                !store'.(off) <- value
              end
            | Model.Reset (x, value) ->
              let value = min value (ks.(x) + 1) in
              if !clocks'.(x) <> value then begin
                own clocks' st.dclocks;
                !clocks'.(x) <- value
              end
            | Model.Prim (_, f) ->
              own store' st.dstore;
              f !store')
          e.updates)
      mv.participants;
    if invariant_ok net locs' !clocks' 0 then
      Some { dlocs = locs'; dstore = !store'; dclocks = !clocks' }
    else None
  end

let move_ctrl (mv : Zone_graph.move) =
  List.for_all (fun (_, (e : Model.edge)) -> e.Model.ctrl) mv.participants

let kind_ctrl = function `Delay -> true | `Act mv -> move_ctrl mv

(* The unit delay (when allowed), then the enabled moves in
   [Zone_graph.moves] order, each with its target. *)
let labelled net st : (kind * dstate) list =
  let acts =
    List.filter_map
      (fun mv ->
        match act_successor net st mv with
        | Some st' -> Some (`Act mv, st')
        | None -> None)
      (Zone_graph.moves net st.dlocs st.dstore)
  in
  match delay_successor net st with
  | Some st' -> (`Delay, st') :: acts
  | None -> acts

let successors net st =
  List.map
    (fun (kind, target) -> { kind; target; tr_ctrl = kind_ctrl kind })
    (labelled net st)

type graph = {
  states : dstate array;
  offsets : int array;
  targets : int array;
  kinds : kind array;
  ctrls : bool array;
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

let explore_stats ?(max_states = 2_000_000) ?jobs ?pool net =
  let _spec, pack = codec net in
  (* With [jobs] the graph is the same for every [j >= 1], numbered
     canonically over the shards; [jobs:None] numbers it in one-shard
     BFS order. Either way the initial state is id 0. *)
  let out =
    Engine.Core.with_jobs jobs pool @@ fun ~shards ~size_hint pool ->
    Engine.Core.run_sharded ~max_states ~record_edges:true ~shards ?pool
      ~store:(fun () -> Engine.Store.discrete_keyed ~size_hint ())
      ~key:pack ~successors:(labelled net)
      ~on_state:(fun _ -> None)
      ~init:(initial net) ()
  in
  if out.Engine.Core.stats.Engine.Stats.truncated then
    failwith "Digital.explore: state limit exceeded";
  (* Every successor is either [Added] or a [Dup] under a discrete store,
     so the recorded edges are exactly the generated transition lists,
     their targets already resolved to ids. *)
  let { Engine.Core.offsets; labels = kinds; targets } = out.Engine.Core.edges in
  ( {
      states = out.Engine.Core.states;
      offsets;
      targets;
      kinds;
      ctrls = Array.map kind_ctrl kinds;
    },
    out.Engine.Core.stats )

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
