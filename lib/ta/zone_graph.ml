module Dbm = Zones.Dbm
module Bound = Zones.Bound

(* [zone] is a sealed canonical handle: every successor pipeline below
   works on plain mutable-internals [Dbm.t] and passes the result through
   [Dbm.seal ~extra] (which extrapolates, memoizes the hash and interns)
   before it can reach a state — stores only ever see canon. *)
type state = { locs : int array; store : int array; zone : Dbm.canon }
type move = Model.move = {
  mv_label : string;
  participants : (int * Model.edge) list;
}

let discrete_key st = (st.locs, st.store)

(* Packed-codec layout of the discrete part: one location field per
   automaton (bit-packed; a component's locations rarely need more than
   a few bits) and one full word per store cell — variable domains are
   not declared in the model, so cells cannot be narrowed. *)
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
    List.init (Store.size net.Model.layout) (fun i ->
        Engine.Codec.Word (Printf.sprintf "store[%d]" i))
  in
  Engine.Codec.spec (locs @ cells)

let pack spec st = Engine.Codec.encode_pair spec st.locs st.store

let constrain_all zone constrs =
  List.fold_left
    (fun z (c : Model.constr) -> Dbm.constrain z c.ci c.cj c.cb)
    zone constrs

let invariant_constrs (net : Model.network) locs =
  let acc = ref [] in
  Array.iteri
    (fun i a ->
      acc := (a.Model.locations.(locs.(i)).invariant : Model.constr list) @ !acc)
    net.automata;
  !acc

let data_enabled store (e : Model.edge) =
  match e.data_guard with
  | None -> true
  | Some g -> Expr.eval_bool store g

let loc_kind (net : Model.network) locs i =
  net.automata.(i).locations.(locs.(i)).Model.kind

let rec committed_from net locs i =
  i < Array.length locs
  && (loc_kind net locs i = Model.Committed || committed_from net locs (i + 1))

let committed_present net locs = committed_from net locs 0

let urgent_present net locs =
  let rec from i =
    i < Array.length locs && (loc_kind net locs i <> Model.Normal || from (i + 1))
  in
  from 0

(* The data-enabled edges of a sync-index list, guards evaluated in list
   order; shares the list itself when every edge is enabled. *)
let rec enabled store = function
  | [] -> []
  | (se : Model.synced_edge) :: rest as l ->
    if data_enabled store (snd se.part) then begin
      let rest' = enabled store rest in
      if rest' == rest then l else se :: rest'
    end
    else enabled store rest

(* Flight phases: move enumeration, and the apply loop of one expanded
   state ([dbm.extrapolate] and [dbm.seal] nest inside it). *)
let ph_moves = Obs.Flight.intern "zone.moves"
let ph_apply = Obs.Flight.intern "zone.apply"

(* The enumeration below allocates nothing but the move list: internal
   and binary moves are the index's prebuilt records, and every helper
   is a top-level function applied in full, so no closure is built per
   call. [acc] is the move list so far, reversed. Each guard is
   evaluated before [keep] is consulted, so committed filtering never
   changes which guards run. *)

(* The data-enabled internal edges of [taus]. *)
let rec push_taus store keep (taus : Model.synced_edge list) acc =
  match taus with
  | [] -> acc
  | se :: rest ->
    let acc =
      if data_enabled store (snd se.part) && keep then se.alone :: acc else acc
    in
    push_taus store keep rest acc

(* Emitting edge [e1] paired with each data-enabled edge of [recvs]. *)
let rec push_pairs store keep (e1 : Model.synced_edge)
    (recvs : Model.synced_edge list) acc =
  match recvs with
  | [] -> acc
  | e2 :: rest ->
    let acc =
      if data_enabled store (snd e2.part) && keep then e1.pairs.(e2.rid) :: acc
      else acc
    in
    push_pairs store keep e1 rest acc

(* Binary moves of component [i]'s emitting edges [emits] on channel
   [c]: each data-enabled one with the receiving edges of every other
   component, ascending. *)
let rec binary_moves (net : Model.network) locs store committed i c
    (emits : Model.synced_edge list) acc =
  match emits with
  | [] -> acc
  | e1 :: rest ->
    let out = ref acc in
    if data_enabled store (snd e1.part) then begin
      let rcv = net.syncs.receivers.(c) in
      for k = 0 to Array.length rcv - 1 do
        let j = rcv.(k) in
        if j <> i then begin
          let keep =
            (not committed)
            || loc_kind net locs i = Model.Committed
            || loc_kind net locs j = Model.Committed
          in
          let recvs = net.syncs.by_loc.(j).(locs.(j)).recvs.(c) in
          out := push_pairs store keep e1 recvs !out
        end
      done
    end;
    binary_moves net locs store committed i c rest !out

(* Broadcast moves of component [i]'s enabled emitting edges [emits] on
   channel [c]: one per choice of an enabled receiving edge in every
   other component that has one, choices branching in component order.
   Receiver sets vary by state, so these moves are built here. *)
let broadcast_moves (net : Model.network) locs store committed i c emits acc =
  let syncs = net.syncs in
  let rcv = syncs.receivers.(c) in
  let committed_at j = loc_kind net locs j = Model.Committed in
  let out = ref acc in
  (* [parts] holds the participants so far, reversed. *)
  let rec expand k parts keep =
    if k = Array.length rcv then begin
      if keep then begin
        let parts = List.rev parts in
        out :=
          {
            mv_label =
              String.concat " "
                (List.map (fun (se : Model.synced_edge) -> se.frag) parts);
            participants = List.map (fun (se : Model.synced_edge) -> se.part) parts;
          }
          :: !out
      end
    end
    else begin
      let j = rcv.(k) in
      if j = i then expand (k + 1) parts keep
      else
        match enabled store syncs.by_loc.(j).(locs.(j)).recvs.(c) with
        | [] -> expand (k + 1) parts keep
        | choices ->
          let keep = keep || committed_at j in
          List.iter (fun e2 -> expand (k + 1) (e2 :: parts) keep) choices
    end
  in
  List.iter (fun e1 -> expand 0 [ e1 ] ((not committed) || committed_at i)) emits;
  !out

(* Move order: internal moves by component, then channels by id; per
   channel, emitters ascending, each enabled emitting edge in out-list
   order, combined with the receivers ascending (binary: one enabled
   receiving edge of one other component; broadcast: one of every other
   component that has an enabled receiving edge, choices branching in
   component order). With a committed location in the vector, only
   moves with a committed participant are kept. Receivers' data guards
   are evaluated only once an emitter's edge is enabled. *)
let moves (net : Model.network) locs store =
  let fl = Obs.Flight.start () in
  let syncs = net.syncs in
  let committed = committed_present net locs in
  let acc = ref [] in
  for i = 0 to Array.length locs - 1 do
    let keep = (not committed) || loc_kind net locs i = Model.Committed in
    acc := push_taus store keep syncs.by_loc.(i).(locs.(i)).taus !acc
  done;
  for c = 0 to Array.length net.channels - 1 do
    let ems = syncs.emitters.(c) in
    for k = 0 to Array.length ems - 1 do
      let i = ems.(k) in
      let emits = syncs.by_loc.(i).(locs.(i)).emits.(c) in
      acc :=
        match net.channels.(c).kind with
        | Model.Binary -> binary_moves net locs store committed i c emits !acc
        | Model.Broadcast -> (
          match enabled store emits with
          | [] -> !acc
          | emits -> broadcast_moves net locs store committed i c emits !acc)
    done
  done;
  let mvs = List.rev !acc in
  Obs.Flight.stop ph_moves fl;
  mvs

(* Per urgent channel in id order, until one synchronisation is enabled:
   every emitting edge's data guard, then, for each enabled emitter, the
   receiving guards of the other components. *)
let urgent_sync_enabled (net : Model.network) locs store =
  let syncs = net.syncs in
  let chan_enabled c =
    let edges j = syncs.by_loc.(j).(locs.(j)) in
    let some_emitter = ref false and pair = ref false in
    Array.iter
      (fun i ->
        if enabled store (edges i).emits.(c) <> [] then begin
          some_emitter := true;
          Array.iter
            (fun j ->
              if j <> i && enabled store (edges j).recvs.(c) <> [] then
                pair := true)
            syncs.receivers.(c)
        end)
      syncs.emitters.(c);
    match net.channels.(c).kind with
    | Model.Broadcast -> !some_emitter
    | Model.Binary -> !pair
  in
  List.exists chan_enabled syncs.urgent_chans

let delay_allowed net locs store =
  (not (urgent_present net locs)) && not (urgent_sync_enabled net locs store)

(* Final value of each clock reset by the move, applied in participant and
   update-list order (later resets win). *)
let move_resets mv =
  let tbl = Hashtbl.create 4 in
  List.iter
    (fun (_, (e : Model.edge)) ->
      List.iter
        (function
          | Model.Reset (x, v) -> Hashtbl.replace tbl x v
          | Model.Assign _ | Model.Prim _ -> ())
        e.Model.updates)
    mv.participants;
  tbl

(* Weakest precondition of constraint [c] under the reset map: substitute
   reset clocks by their constants. When both sides are then constants
   (a reset clock or the reference clock 0), the constraint is decided:
   [Wp_true] if they satisfy it, [Wp_false] if not (the move can never
   fire). Otherwise [Wp_constr] carries what it still asks of the clocks
   the move does not reset. *)
type wp = Wp_true | Wp_false | Wp_constr of Model.constr

let wp_constr resets (c : Model.constr) =
  let value x = if x = 0 then Some 0 else Hashtbl.find_opt resets x in
  match value c.ci, value c.cj with
  | Some vi, Some vj ->
    if Bound.sat c.cb (float_of_int (vi - vj)) then Wp_true else Wp_false
  | Some vi, None ->
    (* vi - x_cj ≺ b  ⟺  -x_cj ≺ b - vi *)
    Wp_constr { ci = 0; cj = c.cj; cb = Bound.add c.cb (Bound.le (-vi)) }
  | None, Some vj ->
    (* x_ci - vj ≺ b  ⟺  x_ci ≺ b + vj *)
    Wp_constr { ci = c.ci; cj = 0; cb = Bound.add c.cb (Bound.le vj) }
  | None, None -> Wp_constr c

let target_locs mv locs =
  let locs' = Array.copy locs in
  List.iter (fun (i, (e : Model.edge)) -> locs'.(i) <- e.Model.dst) mv.participants;
  locs'

let move_enabling_zone net locs store mv =
  ignore store;
  let zone = ref (Dbm.universal ~clocks:net.Model.n_clocks) in
  (* Source invariants and guards. *)
  zone := constrain_all !zone (invariant_constrs net locs);
  List.iter
    (fun (_, (e : Model.edge)) -> zone := constrain_all !zone e.Model.clock_guard)
    mv.participants;
  (* Target invariants, pulled back through the resets. *)
  let resets = move_resets mv in
  let locs' = target_locs mv locs in
  let ok = ref true in
  List.iter
    (fun c ->
      match wp_constr resets c with
      | Wp_true -> ()
      | Wp_false -> ok := false
      | Wp_constr c' -> zone := Dbm.constrain !zone c'.ci c'.cj c'.cb)
    (invariant_constrs net locs');
  if !ok then !zone else Dbm.empty ~clocks:net.Model.n_clocks

let apply_updates ~store ~zone mv =
  let store' = Array.copy store in
  let zone = ref zone in
  List.iter
    (fun (_, (e : Model.edge)) ->
      List.iter
        (function
          | Model.Assign (lv, rhs) ->
            let v = Expr.eval store' rhs in
            store'.(Expr.lvalue_offset store' lv) <- v
          | Model.Reset (x, v) -> zone := Dbm.reset !zone x v
          | Model.Prim (_, f) -> f store')
        e.Model.updates)
    mv.participants;
  (store', !zone)

(* [extra] narrowed to the location vector [locs]. An owned clock takes
   its owner's bounds at [locs], never above [extra]'s entries; under
   Extra-M its bound there is the larger of the two. A clock inactive at
   [locs] thus gets negative entries, which [Dbm.seal] reads as "free
   it". [Global] clocks keep [extra]'s entries, and [extra] itself comes
   back when no clock is owned, so [Model.keep_active] over every clock
   gives the global abstraction exactly. *)
let rec any_owned (scopes : Model.clock_scope array) x =
  x < Array.length scopes
  && match scopes.(x) with
     | Model.Owned _ -> true
     | Model.Global -> any_owned scopes (x + 1)

(* A copy of [k] where each owned clock's entry is capped by [pick] of
   its lower and upper bound at [locs]. *)
let narrow (scopes : Model.clock_scope array) locs k pick =
  let k = Array.copy k in
  for x = 1 to Array.length scopes - 1 do
    match scopes.(x) with
    | Model.Global -> ()
    | Model.Owned { owner; lower; upper } ->
      let l = locs.(owner) in
      k.(x) <- Int.min k.(x) (pick lower.(l) upper.(l))
  done;
  k

let local_extra (net : Model.network) extra locs =
  let scopes = net.Model.scopes in
  if not (any_owned scopes 1) then extra
  else
    match extra with
    | Dbm.No_extrapolation -> extra
    | Dbm.Extra_m k -> Dbm.Extra_m (narrow scopes locs k Int.max)
    | Dbm.Extra_lu { lower; upper } ->
      Dbm.Extra_lu
        {
          lower = narrow scopes locs lower (fun l _ -> l);
          upper = narrow scopes locs upper (fun _ u -> u);
        }

(* [Dbm.seal] is the identity on a sealed zone, and a successor's zone
   is one exactly when the move left the source zone untouched: no guard
   or target invariant tightened it, nothing was reset, and the target
   lets no time pass (a committed target, say). That zone was sealed
   under the source's bounds; where the target's differ, it is
   extrapolated again under the target's, so every state's zone is
   sealed under its own locations' bounds. *)
let seal_at net ~extra ~src locs z =
  let extra' = local_extra net extra locs in
  if Dbm.is_sealed z && extra' != extra && extra' <> local_extra net extra src
  then
    Dbm.seal
      (match extra' with
       | Dbm.No_extrapolation -> z
       | Dbm.Extra_m k -> Dbm.extrapolate z k
       | Dbm.Extra_lu { lower; upper } -> Dbm.extrapolate_lu z ~lower ~upper)
  else Dbm.seal ~extra:extra' z

let apply_move net ~extra st mv =
  let zone = ref (st.zone :> Dbm.t) in
  List.iter
    (fun (_, (e : Model.edge)) -> zone := constrain_all !zone e.Model.clock_guard)
    mv.participants;
  if Dbm.is_empty !zone then None
  else begin
    let locs' = target_locs mv st.locs in
    let store', zone_after = apply_updates ~store:st.store ~zone:!zone mv in
    let inv' = invariant_constrs net locs' in
    let z = ref (constrain_all zone_after inv') in
    if Dbm.is_empty !z then None
    else begin
      if delay_allowed net locs' store' then begin
        z := Dbm.up !z;
        z := constrain_all !z inv'
      end;
      let z = seal_at net ~extra ~src:st.locs locs' !z in
      if Dbm.is_empty (z :> Dbm.t) then None
      else Some { locs = locs'; store = store'; zone = z }
    end
  end

let successors net ~extra st =
  let mvs = moves net st.locs st.store in
  let fl = Obs.Flight.start () in
  let succs =
    List.filter_map
      (fun mv ->
        match apply_move net ~extra st mv with
        | Some st' -> Some (mv.mv_label, st')
        | None -> None)
      mvs
  in
  Obs.Flight.stop ph_apply fl;
  succs

let initial net ~extra =
  let locs =
    Array.map (fun (a : Model.automaton) -> a.Model.initial) net.Model.automata
  in
  let store = Store.initial net.Model.layout in
  let inv = invariant_constrs net locs in
  let z = ref (constrain_all (Dbm.zero ~clocks:net.Model.n_clocks) inv) in
  if Dbm.is_empty !z then
    invalid_arg "Zone_graph.initial: initial state violates invariants";
  if delay_allowed net locs store then begin
    z := Dbm.up !z;
    z := constrain_all !z inv
  end;
  { locs; store; zone = Dbm.seal ~extra:(local_extra net extra locs) !z }

let pp_state net ppf st =
  let locs =
    Array.to_list
      (Array.mapi
         (fun i l ->
           Printf.sprintf "%s.%s" net.Model.automata.(i).auto_name
             (Model.loc_name net i l))
         st.locs)
  in
  Format.fprintf ppf "(%s | %a | %a)"
    (String.concat ", " locs)
    (Store.pp_store net.Model.layout)
    st.store
    (Dbm.pp ~names:net.Model.clock_names)
    (st.zone :> Dbm.t)
