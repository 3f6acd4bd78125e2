module Dbm = Zones.Dbm
module Fed = Zones.Fed
module Bound = Zones.Bound

type stats = Engine.Stats.t = {
  visited : int;
  stored : int;
  subsumed : int;
  dropped : int;
  reopened : int;
  peak_frontier : int;
  store_words : int;
  truncated : bool;
  time_s : float;
  dbm_phys_eq : int;
  dbm_lattice_cmp : int;
  phases : (string * (int * float)) list;
}

type result = {
  holds : bool;
  trace : string list option;
  stats : stats;
  par : Engine.Core.par_info option;
}

exception
  Truncated of {
    reason : [ `Max_states | `Mem_budget | `Stop ];
    stats : stats;
  }

(* ------------------------------------------------------------------ *)
(* Exploration on the shared engine core                                *)
(* ------------------------------------------------------------------ *)

let state_zone (st : Zone_graph.state) = st.Zone_graph.zone

(* Which extrapolation [Dbm.seal] applies at the sealing boundary of the
   zone graph. Reachability-style queries default to the coarser Extra-LU
   (fewer distinct zones, location reachability preserved); [`K] keeps
   classic maximal-constant Extra-M as an ablation; [`None] disables
   extrapolation (the zone graph may then be infinite). [Zone_graph]
   narrows [`Lu] and [`K] to each state's own locations, from the
   network's clock scopes. *)
type extrapolation = [ `None | `K | `Lu ]

(* The clocks a formula's clock atoms mention. *)
let rec formula_clocks acc = function
  | Prop.True | Prop.False | Prop.Loc _ | Prop.Data _ -> acc
  | Prop.Clock c -> c.Model.ci :: c.Model.cj :: acc
  | Prop.Not g -> formula_clocks acc g
  | Prop.And (g, h) | Prop.Or (g, h) | Prop.Imply (g, h) ->
    formula_clocks (formula_clocks acc g) h

let reach_extra (extrapolation : extrapolation) net f =
  match extrapolation with
  | `None -> Dbm.No_extrapolation
  | `K -> Dbm.Extra_m (Prop.merge_constants net f)
  | `Lu ->
    let lower, upper = Prop.merge_lu net f in
    Dbm.Extra_lu { lower; upper }

(* Every bound that stops a run raises [Truncated] with the partial
   stats, so a caller — the CLI, the daemon, the fuzz oracle — can
   degrade into a structured report instead of dying. *)
let check_stopped out =
  let truncated reason =
    raise (Truncated { reason; stats = out.Engine.Core.stats })
  in
  match out.Engine.Core.stopped with
  | Some Engine.Core.Max_states -> truncated `Max_states
  | Some Engine.Core.Mem_budget -> truncated `Mem_budget
  | Some Engine.Core.Stop_requested -> truncated `Stop
  | None -> ()

(* Generic exploration. [on_state] is called once per fresh symbolic
   state and may short-circuit by returning a payload. With [rich_trace],
   witness steps carry the symbolic state they reach. Zones arrive sealed
   from [Zone_graph], so no re-canonicalisation happens here. The store
   keys on the packed codec encoding of the discrete part.

   [jobs = Some j] spreads the run over the engine's shards — including
   [j = 1], whose results are byte-identical to any higher [j] (the
   sharded exploration order differs from the one-shard BFS, so
   [jobs:None] and [jobs:(Some 1)] may produce different witnesses for
   the same verdict; determinism is guaranteed within each mode). *)
let explore ?(subsumption = true) ?(max_states = 1_000_000) ?stop
    ?mem_budget_words ?(rich_trace = false) ?jobs ?pool net ~extra ~on_state =
  let spec = Zone_graph.codec net in
  let out =
    Engine.Core.with_jobs jobs pool @@ fun ~shards ~size_hint pool ->
    let store () =
      if subsumption then
        Engine.Store.subsume_keyed ~size_hint ~zone:state_zone ()
      else Engine.Store.exact_keyed ~size_hint ~zone:state_zone ()
    in
    Engine.Core.run_sharded ~max_states ?stop ?mem_budget_words ~shards ?pool
      ~store ~key:(Zone_graph.pack spec)
      ~successors:(Zone_graph.successors net ~extra)
      ~on_state
      ~init:(Zone_graph.initial net ~extra)
      ()
  in
  check_stopped out;
  let render (label, st) =
    if rich_trace then
      Format.asprintf "%s  @@ %a" label (Zone_graph.pp_state net) st
    else label
  in
  ( Option.map
      (fun (payload, steps) -> (payload, List.map render steps))
      out.Engine.Core.found,
    out.Engine.Core.stats,
    out.Engine.Core.par )

(* ------------------------------------------------------------------ *)
(* Deadlock                                                             *)
(* ------------------------------------------------------------------ *)

(* A valuation of [st.zone] deadlocks when no move can fire from it now
   or, where time may pass, after some delay: the state is deadlock-free
   iff [z ⊆ ⋃ dᵢ], [dᵢ] being move [i]'s enabling zone, down-closed when
   delay is allowed. Those escape zones depend on the discrete part
   alone: [escapes] generates them lazily in move order, skipping the
   empty ones, so a walk that stops early builds no more than it reads. *)
let escapes net locs store =
  let delay = Zone_graph.delay_allowed net locs store in
  Seq.filter_map
    (fun mv ->
      let g = Zone_graph.move_enabling_zone net locs store mv in
      if Dbm.is_empty g then None else Some (if delay then Dbm.down g else g))
    (List.to_seq (Zone_graph.moves net locs store))

(* The walk stops at the first escape that covers [z] on its own (an
   uncounted pointwise check, so [dbm_lattice_cmp] does not move); only
   when none does is the exact federation test run, on the escape zones
   as they are: [z ⊆ ⋃ dᵢ ⇔ z ⊆ ⋃ (z ∩ dᵢ)], so nothing is intersected or
   re-closed first. *)
let escapes_cover ~clocks z seq =
  let rec walk seen seq =
    match seq () with
    | Seq.Nil ->
      Fed.dbm_subset z (List.fold_left Fed.add (Fed.empty ~clocks) seen)
    | Seq.Cons (g, rest) -> Dbm.subset_quiet z g || walk (g :: seen) rest
  in
  walk [] seq

let deadlocked net (st : Zone_graph.state) =
  not
    (escapes_cover ~clocks:net.Model.n_clocks (st.zone :> Dbm.t)
       (escapes net st.locs st.store))

(* A run visits many zones per discrete state, so [check ... NoDeadlock]
   forces each discrete state's escapes once and keeps the list under
   the packed key for the rest of the run. [on_state] runs on the
   engine's shards, possibly on several domains, and one key can reach
   two shards, so the table is mutex-guarded; a lost race only computes
   an equal list twice. *)
let memo_escapes net =
  let spec = Zone_graph.codec net in
  let tbl : Dbm.t list Engine.Codec.Tbl.t = Engine.Codec.Tbl.create 1024 in
  let mu = Mutex.create () in
  fun (st : Zone_graph.state) ->
    let k = Zone_graph.pack spec st in
    match Mutex.protect mu (fun () -> Engine.Codec.Tbl.find_opt tbl k) with
    | Some l -> List.to_seq l
    | None ->
      let l = List.of_seq (escapes net st.locs st.store) in
      Mutex.protect mu (fun () -> Engine.Codec.Tbl.replace tbl k l);
      List.to_seq l

(* ------------------------------------------------------------------ *)
(* Exact graph for liveness                                             *)
(* ------------------------------------------------------------------ *)

type graph = {
  states : Zone_graph.state array;
  edges : string Engine.Core.edges; (* successor ids per state *)
  parents : (int * string) array; (* for diagnostic traces *)
}

let build_graph ?(max_states = 1_000_000) ?stop ?mem_budget_words net ~extra =
  let spec = Zone_graph.codec net in
  let out =
    Engine.Core.run_sharded ~max_states ?stop ?mem_budget_words
      ~record_edges:true ~shards:1
      ~store:(fun () -> Engine.Store.exact_keyed ~zone:state_zone ())
      ~key:(Zone_graph.pack spec)
      ~successors:(Zone_graph.successors net ~extra)
      ~on_state:(fun _ -> None)
      ~init:(Zone_graph.initial net ~extra)
      ()
  in
  check_stopped out;
  let parents =
    Array.map
      (fun (parent, label) ->
        (parent, match label with Some l -> l | None -> if parent < 0 then "init" else "?"))
      out.Engine.Core.parents
  in
  ( {
      states = out.Engine.Core.states;
      edges = out.Engine.Core.edges;
      parents;
    },
    out.Engine.Core.stats )

(* A discrete node can let time diverge iff delay is allowed at all (no
   committed/urgent location, no enabled urgent synchronisation) and no
   location invariant puts a finite upper bound on a clock. *)
let can_idle_forever net (st : Zone_graph.state) =
  Zone_graph.delay_allowed net st.locs st.store
  && not
       (List.exists
          (fun (c : Model.constr) ->
            c.ci > 0 && c.cj = 0 && not (Bound.is_inf c.cb))
          (Zone_graph.invariant_constrs net st.locs))

(* All paths from every [start] node eventually reach a [q]-node: fails on
   a cycle within the not-q subgraph, a timelocked sink, or a node that can
   idle forever before q. Returns the id of a failing node, if any. *)
let all_paths_reach graph net ~is_q starts =
  let n = Array.length graph.states in
  let status = Array.make n `White in
  (* `White unvisited; `Gray on stack; `Good / `Bad settled. *)
  let rec verify id =
    match status.(id) with
    | `Good -> true
    | `Bad -> false
    | `Gray -> false (* cycle avoiding q *)
    | `White ->
      if is_q id then begin
        status.(id) <- `Good;
        true
      end
      else begin
        status.(id) <- `Gray;
        let st = graph.states.(id) in
        let { Engine.Core.offsets; targets; _ } = graph.edges in
        let hi = offsets.(id + 1) in
        let rec all e = e >= hi || (verify targets.(e) && all (e + 1)) in
        let ok =
          (not (can_idle_forever net st)) && offsets.(id) < hi && all offsets.(id)
        in
        status.(id) <- (if ok then `Good else `Bad);
        ok
      end
  in
  List.find_opt (fun id -> not (verify id)) starts

let trace_in_graph graph id =
  let rec walk id acc =
    if id < 0 then acc
    else begin
      let parent, label = graph.parents.(id) in
      walk parent (if parent < 0 then acc else label :: acc)
    end
  in
  walk id []

(* ------------------------------------------------------------------ *)
(* Top-level check                                                      *)
(* ------------------------------------------------------------------ *)

(* A clock the formula tests must keep its bounds wherever the formula
   is evaluated, i.e. everywhere: [keep_active] makes it [Global], and
   [reach_extra]'s arrays already carry the formula's constants. *)
let check_reach ?subsumption ?max_states ?stop ?mem_budget_words
    ?rich_trace ?jobs ?pool ?(extrapolation = `Lu) net f =
  let net = Model.keep_active net (formula_clocks [] f) in
  let extra = reach_extra extrapolation net f in
  let on_state st = if Prop.holds_somewhere net st f then Some () else None in
  explore ?subsumption ?max_states ?stop ?mem_budget_words ?rich_trace
    ?jobs ?pool net ~extra ~on_state

let check_liveness ?max_states ?stop ?mem_budget_words
    ?(from_initial_only = false) net ~p ~q =
  if not (Prop.crisp p && Prop.crisp q) then
    invalid_arg "Checker: leads-to operands must not contain clock atoms";
  (* The exact graph needs zone-precise nodes; LU would merge states the
     divergence analysis must keep apart, so liveness always uses
     Extra-M on the network constants. It also keeps every clock active:
     per-location bounds are not yet checked against a leads-to oracle,
     so the graph stays the one the global bounds give. *)
  let net = Model.keep_active net (List.init net.Model.n_clocks succ) in
  let extra = Dbm.Extra_m (Array.copy net.Model.max_consts) in
  let graph, gstats =
    build_graph ?max_states ?stop ?mem_budget_words net ~extra
  in
  let is_q id = Prop.eval_crisp net graph.states.(id) q in
  let starts = ref [] in
  if from_initial_only then begin
    (* A<> q: only runs from the initial state (node 0) matter. *)
    if not (is_q 0) then starts := [ 0 ]
  end
  else
    Array.iteri
      (fun id st ->
        if Prop.eval_crisp net st p && not (is_q id) then
          starts := id :: !starts)
      graph.states;
  let failing = all_paths_reach graph net ~is_q (List.rev !starts) in
  let stats = gstats in
  match failing with
  | None -> { holds = true; trace = None; stats; par = None }
  | Some id ->
    { holds = false; trace = Some (trace_in_graph graph id); stats; par = None }

let check ?subsumption ?max_states ?stop ?mem_budget_words
    ?rich_trace ?jobs ?pool ?extrapolation net query =
  match query with
  | Prop.Possibly f ->
    let outcome, stats, par =
      check_reach ?subsumption ?max_states ?stop ?mem_budget_words
        ?rich_trace ?jobs ?pool ?extrapolation net f
    in
    (match outcome with
     | Some ((), trace) -> { holds = true; trace = Some trace; stats; par }
     | None -> { holds = false; trace = None; stats; par })
  | Prop.Invariant f ->
    let outcome, stats, par =
      check_reach ?subsumption ?max_states ?stop ?mem_budget_words
        ?rich_trace ?jobs ?pool ?extrapolation net (Prop.Not f)
    in
    (match outcome with
     | Some ((), trace) -> { holds = false; trace = Some trace; stats; par }
     | None -> { holds = true; trace = None; stats; par })
  | Prop.NoDeadlock ->
    (* The deadlock predicate inspects exact zones, for which LU is too
       coarse: always explore under Extra-M on the network constants,
       narrowed per location by [Zone_graph]. That is sound: an escape
       zone constrains only clocks active at the source, with no
       constant above their per-location bound there. *)
    let extra = Dbm.Extra_m (Array.copy net.Model.max_consts) in
    let escapes_of = memo_escapes net in
    let on_state (st : Zone_graph.state) =
      if escapes_cover ~clocks:net.Model.n_clocks (st.zone :> Dbm.t) (escapes_of st)
      then None
      else Some ()
    in
    let outcome, stats, par =
      explore ?subsumption ?max_states ?stop ?mem_budget_words
        ?rich_trace ?jobs ?pool net ~extra ~on_state
    in
    (match outcome with
     | Some ((), trace) -> { holds = false; trace = Some trace; stats; par }
     | None -> { holds = true; trace = None; stats; par })
  | Prop.LeadsTo (p, q) ->
    (* Liveness analyses run on the exact sequential graph; [jobs] is
       deliberately ignored (documented in the interface). *)
    check_liveness ?max_states ?stop ?mem_budget_words net ~p ~q
  | Prop.Eventually f ->
    if not (Prop.crisp f) then
      invalid_arg "Checker: A<> operand must not contain clock atoms";
    check_liveness ?max_states ?stop ?mem_budget_words
      ~from_initial_only:true net ~p:Prop.True ~q:f

let reachable_states ?subsumption ?max_states
    ?(extrapolation = `Lu) net =
  let extra = reach_extra extrapolation net Prop.True in
  let acc = ref [] in
  let on_state st =
    acc := st :: !acc;
    None
  in
  let (_ : (unit * string list) option * stats * Engine.Core.par_info option)
      =
    explore ?subsumption ?max_states net ~extra ~on_state
  in
  List.rev !acc
