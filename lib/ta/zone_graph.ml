module Dbm = Zones.Dbm
module Bound = Zones.Bound

(* [zone] is a sealed canonical handle: every successor pipeline below
   works on plain mutable-internals [Dbm.t] and passes the result through
   [Dbm.seal ~extra] (which extrapolates, memoizes the hash and interns)
   before it can reach a state — stores only ever see canon. *)
type state = { locs : int array; store : int array; zone : Dbm.canon }
type move = { mv_label : string; participants : (int * Model.edge) list }

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

(* No [Codec.intern] here: the checker stores keep at most one copy of
   each packed key (table keys are unique, duplicates are dropped on
   arrival) and the engine's arena nodes keep none (the stale probe
   re-encodes at pop), so interning every candidate would pay a mutex +
   weak-table probe per successor for sharing that never
   materialises. *)
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

let committed_present net locs =
  let found = ref false in
  Array.iteri
    (fun i _ -> if loc_kind net locs i = Model.Committed then found := true)
    net.automata;
  !found

let urgent_present net locs =
  let found = ref false in
  Array.iteri
    (fun i _ ->
      match loc_kind net locs i with
      | Model.Urgent | Model.Committed -> found := true
      | Model.Normal -> ())
    net.automata;
  !found

(* Enabled edges of component [i] from its current location with the given
   sync shape, data guards evaluated. *)
let enabled_edges net locs store i pred =
  let a = net.Model.automata.(i) in
  List.filter
    (fun e -> pred e.Model.sync && data_enabled store e)
    a.Model.out.(locs.(i))

let label_of net participants =
  let part (i, (e : Model.edge)) =
    let a = net.Model.automata.(i) in
    Format.asprintf "%s.%s->%s%s" a.Model.auto_name
      a.Model.locations.(e.src).loc_name a.Model.locations.(e.dst).loc_name
      (match e.sync with
       | Model.Tau -> ""
       | s -> Format.asprintf "[%a]" Model.pp_sync s)
  in
  String.concat " " (List.map part participants)

let moves net locs store =
  let committed = committed_present net locs in
  let allowed participants =
    (not committed)
    || List.exists (fun (i, _) -> loc_kind net locs i = Model.Committed)
         participants
  in
  let out = ref [] in
  let push participants =
    if allowed participants then
      out :=
        { mv_label = label_of net participants; participants } :: !out
  in
  let n = Array.length net.Model.automata in
  (* Internal moves. *)
  for i = 0 to n - 1 do
    List.iter
      (fun e -> push [ (i, e) ])
      (enabled_edges net locs store i (fun s -> s = Model.Tau))
  done;
  (* Channel moves. *)
  Array.iter
    (fun (ch : Model.chan) ->
      let emits s = match s with Model.Emit c -> c.Model.chan_id = ch.chan_id | _ -> false in
      let recvs s = match s with Model.Receive c -> c.Model.chan_id = ch.chan_id | _ -> false in
      match ch.kind with
      | Model.Binary ->
        for i = 0 to n - 1 do
          List.iter
            (fun e1 ->
              for j = 0 to n - 1 do
                if j <> i then
                  List.iter
                    (fun e2 -> push [ (i, e1); (j, e2) ])
                    (enabled_edges net locs store j recvs)
              done)
            (enabled_edges net locs store i emits)
        done
      | Model.Broadcast ->
        for i = 0 to n - 1 do
          List.iter
            (fun e1 ->
              (* Every other component with an enabled receiving edge must
                 participate; choices within a component branch. *)
              let rec expand j acc =
                if j = n then push (List.rev acc)
                else if j = i then expand (j + 1) acc
                else begin
                  match enabled_edges net locs store j recvs with
                  | [] -> expand (j + 1) acc
                  | choices ->
                    List.iter (fun e2 -> expand (j + 1) ((j, e2) :: acc)) choices
                end
              in
              expand 0 [ (i, e1) ])
            (enabled_edges net locs store i emits)
        done)
    net.Model.channels;
  List.rev !out

let urgent_sync_enabled net locs store =
  let n = Array.length net.Model.automata in
  let exists_chan (ch : Model.chan) =
    let emits s = match s with Model.Emit c -> c.Model.chan_id = ch.chan_id | _ -> false in
    let recvs s = match s with Model.Receive c -> c.Model.chan_id = ch.chan_id | _ -> false in
    let has i pred = enabled_edges net locs store i pred <> [] in
    let some_emitter = ref false and emitter_recv_pair = ref false in
    for i = 0 to n - 1 do
      if has i emits then begin
        some_emitter := true;
        for j = 0 to n - 1 do
          if j <> i && has j recvs then emitter_recv_pair := true
        done
      end
    done;
    match ch.kind with
    | Model.Broadcast -> !some_emitter
    | Model.Binary -> !emitter_recv_pair
  in
  Array.exists (fun ch -> ch.Model.urgent && exists_chan ch) net.Model.channels

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
   reset clocks by their constants. Returns [None] when the constraint is
   unconditionally true, [Some (Error ())] pattern avoided: use variant. *)
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
      let z = Dbm.seal ~extra !z in
      if Dbm.is_empty (z :> Dbm.t) then None
      else Some { locs = locs'; store = store'; zone = z }
    end
  end

let successors net ~extra st =
  List.filter_map
    (fun mv ->
      match apply_move net ~extra st mv with
      | Some st' -> Some (mv.mv_label, st')
      | None -> None)
    (moves net st.locs st.store)

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
  { locs; store; zone = Dbm.seal ~extra !z }

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
