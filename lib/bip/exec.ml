type state = { locs : int array; stores : int array array }
type scheduler = First | Random of Random.State.t

(* Engine instruments: enabled/inhibited are counted in [filtered] (the
   single choke point both execution and exhaustive reachability go
   through); fired interactions are counted where a scheduler commits. *)
let m_fired = Obs.counter "bip.interactions_fired"
let m_enabled = Obs.counter "bip.interactions_enabled"
let m_inhibited = Obs.counter "bip.priority_inhibited"
let m_steps = Obs.counter "bip.steps"

let initial (sys : System.t) =
  {
    locs = Array.map (fun (c : Component.t) -> c.Component.initial_loc) sys.components;
    stores =
      Array.map
        (fun (c : Component.t) -> Array.copy c.Component.initial_store)
        sys.components;
  }

let interaction_enabled (sys : System.t) st (i : System.interaction) =
  List.for_all
    (fun (ci, (p : Component.port)) ->
      Component.port_enabled sys.components.(ci) ~loc:st.locs.(ci)
        ~store:st.stores.(ci) p.Component.port_id)
    i.System.i_ports
  && (match i.System.i_guard with
      | None -> true
      | Some g -> g st.locs st.stores)

let enabled (sys : System.t) st =
  Array.to_list sys.interactions |> List.filter (interaction_enabled sys st)

(* Whether [on] marks some id of [row] from position [k] on. *)
let rec any_on on (row : int array) k =
  k < Array.length row && (on.(row.(k)) || any_on on row (k + 1))

let filtered (sys : System.t) st =
  let en = enabled sys st in
  let on = Array.make (Array.length sys.interactions) false in
  List.iter (fun (i : System.interaction) -> on.(i.System.i_id) <- true) en;
  let inhibited_by_priority (a : System.interaction) =
    List.exists
      (fun (r : System.priority) ->
        String.equal r.System.low a.System.i_name
        && (match r.System.when_ with
            | None -> true
            | Some c -> c st.locs st.stores)
        && List.exists
             (fun (b : System.interaction) ->
               String.equal b.System.i_name r.System.high)
             en)
      sys.priorities
  in
  let kept =
    List.filter
      (fun (a : System.interaction) ->
        not
          (inhibited_by_priority a || any_on on sys.wider.(a.System.i_id) 0))
      en
  in
  Obs.Metrics.Counter.add m_enabled (List.length en);
  Obs.Metrics.Counter.add m_inhibited (List.length en - List.length kept);
  kept

let copy_state st =
  { locs = Array.copy st.locs; stores = Array.map Array.copy st.stores }

(* Fire [i]: data transfer first (BIP's up/down), then each participant
   takes one enabled transition on its port (scheduler-resolved when a
   component offers several). *)
let fire (sys : System.t) sched st (i : System.interaction) =
  let st' = copy_state st in
  (match i.System.i_action with None -> () | Some act -> act st'.stores);
  List.iter
    (fun (ci, (p : Component.port)) ->
      let c = sys.components.(ci) in
      (* Enabledness was established on the pre-transfer store; the
         transition itself is chosen on the current one, falling back to
         the port's transitions if the transfer changed guard values. *)
      let candidates =
        match
          Component.transitions_on c ~loc:st'.locs.(ci) ~store:st'.stores.(ci)
            p.Component.port_id
        with
        | [] ->
          Component.transitions_on c ~loc:st.locs.(ci) ~store:st.stores.(ci)
            p.Component.port_id
        | ts -> ts
      in
      let t =
        match candidates, sched with
        | [], _ -> assert false
        | [ t ], _ -> t
        | t :: _, First -> t
        | ts, Random rng -> List.nth ts (Random.State.int rng (List.length ts))
      in
      t.Component.t_update st'.stores.(ci);
      st'.locs.(ci) <- t.Component.t_dst)
    i.System.i_ports;
  st'

let step sys sched st =
  Obs.Metrics.Counter.incr m_steps;
  match filtered sys st with
  | [] -> None
  | choices ->
    let i =
      match sched with
      | First -> List.hd choices
      | Random rng -> List.nth choices (Random.State.int rng (List.length choices))
    in
    Obs.Metrics.Counter.incr m_fired;
    Some (i, fire sys sched st i)

let run sys sched ~steps =
  Obs.Span.with_ ~name:"bip.run" @@ fun () ->
  let rec loop st k acc =
    if k = 0 then List.rev acc
    else
      match step sys sched st with
      | None -> List.rev acc
      | Some (i, st') -> loop st' (k - 1) ((i.System.i_name, st') :: acc)
  in
  loop (initial sys) steps []

type reach_result = {
  states : state list;
  deadlocks : state list;
  truncated : bool;
}

(* Packed codec of a system state: one location field per component
   (bit-packed) plus one word per local variable. A BIP system state is
   often dozens of words across nested arrays — exactly the shape the
   polymorphic hash truncates — so exhaustive reachability keys its
   store on the packed encoding instead. *)
let codec (sys : System.t) =
  let locs =
    Array.to_list
      (Array.map
         (fun (c : Component.t) ->
           Engine.Codec.Loc
             {
               name = c.Component.comp_name;
               count = Array.length c.Component.locations;
             })
         sys.components)
  in
  let cells =
    List.concat
      (Array.to_list
         (Array.map
            (fun (c : Component.t) ->
              Array.to_list
                (Array.map
                   (fun v ->
                     Engine.Codec.Word (c.Component.comp_name ^ "." ^ v))
                   c.Component.var_names))
            sys.components))
  in
  let spec = Engine.Codec.spec (locs @ cells) in
  let n = Array.length sys.components in
  let pack st =
    (* Field order: all locations, then each component's store cells in
       component order. *)
    let cell = ref (0, 0) in
    Engine.Codec.encode spec (fun i ->
        if i < n then st.locs.(i)
        else begin
          (* Fields are read in order, so a single cursor walks the
             nested stores without building a flat copy. *)
          let ci, vi = !cell in
          let ci, vi =
            if vi < Array.length st.stores.(ci) then (ci, vi)
            else begin
              let rec next ci =
                if Array.length st.stores.(ci + 1) = 0 then next (ci + 1)
                else (ci + 1, 0)
              in
              next ci
            end
          in
          cell := (ci, vi + 1);
          st.stores.(ci).(vi)
        end)
  in
  (spec, pack)

(* Every successor of [st] under every scheduler choice, including every
   internal transition alternative within a component, labelled by the
   interaction that fired. *)
let successors (sys : System.t) st choices =
  List.concat_map
    (fun (i : System.interaction) ->
      (* Enumerate participant transition combinations. *)
      let rec combos acc = function
        | [] -> [ List.rev acc ]
        | (ci, (p : Component.port)) :: rest ->
          let c = sys.components.(ci) in
          let ts =
            Component.transitions_on c ~loc:st.locs.(ci) ~store:st.stores.(ci)
              p.Component.port_id
          in
          List.concat_map (fun t -> combos ((ci, t) :: acc) rest) ts
      in
      List.map
        (fun combo ->
          let st' = copy_state st in
          (match i.System.i_action with None -> () | Some act -> act st'.stores);
          List.iter
            (fun (ci, (t : Component.transition)) ->
              t.Component.t_update st'.stores.(ci);
              st'.locs.(ci) <- t.Component.t_dst)
            combo;
          (i, st'))
        (combos [] i.System.i_ports))
    choices

let reachable ?(max_states = 1_000_000) sys =
  Obs.Span.with_ ~name:"bip.reachable" @@ fun () ->
  let _spec, pack = codec sys in
  let deadlocks = ref [] in
  let out =
    Engine.Core.run_sharded ~max_states ~shards:1
      ~store:(fun () -> Engine.Store.discrete_keyed ())
      ~key:pack
      ~successors:(fun st ->
        match filtered sys st with
        | [] ->
          deadlocks := st :: !deadlocks;
          []
        | choices -> successors sys st choices)
      ~on_state:(fun _ -> None)
      ~init:(initial sys) ()
  in
  {
    states = Array.to_list out.Engine.Core.states;
    deadlocks = List.rev !deadlocks;
    truncated = out.Engine.Core.stats.Engine.Stats.truncated;
  }

let invariant_holds ?max_states sys pred =
  let r = reachable ?max_states sys in
  match List.find_opt (fun st -> not (pred st)) r.states with
  | Some bad -> (false, Some bad)
  | None -> (not r.truncated, None)

let deadlock_free ?max_states sys =
  let r = reachable ?max_states sys in
  match r.deadlocks with
  | bad :: _ -> (false, Some bad)
  | [] -> ((not r.truncated), None)

let pp_state (sys : System.t) ppf st =
  let parts =
    Array.to_list
      (Array.mapi
         (fun ci (c : Component.t) ->
           let vars =
             Array.to_list
               (Array.mapi
                  (fun vi name -> Printf.sprintf "%s=%d" name st.stores.(ci).(vi))
                  c.Component.var_names)
           in
           Printf.sprintf "%s.%s%s" c.Component.comp_name
             c.Component.locations.(st.locs.(ci))
             (match vars with
              | [] -> ""
              | _ -> "{" ^ String.concat "," vars ^ "}"))
         sys.components)
  in
  Format.pp_print_string ppf (String.concat " " parts)
