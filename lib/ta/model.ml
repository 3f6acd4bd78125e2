module Bound = Zones.Bound

type clock = int
type chan_kind = Binary | Broadcast

type chan = { chan_id : int; chan_name : string; kind : chan_kind; urgent : bool }

type sync = Emit of chan | Receive of chan | Tau
type constr = { ci : int; cj : int; cb : Bound.t }

type update =
  | Assign of Expr.lvalue * Expr.t
  | Reset of clock * int
  | Prim of string * (int array -> unit)

type loc_kind = Normal | Urgent | Committed
type location = { loc_name : string; kind : loc_kind; invariant : constr list }

type edge = {
  src : int;
  dst : int;
  data_guard : Expr.t option;
  clock_guard : constr list;
  sync : sync;
  updates : update list;
  ctrl : bool; (* controllable edge (timed games); plain TA edges are true *)
}

type automaton = {
  auto_name : string;
  locations : location array;
  out : edge list array;
  initial : int;
}

type move = { mv_label : string; participants : (int * edge) list }

type synced_edge = {
  part : int * edge;
  frag : string;
  alone : move;
  rid : int;
  pairs : move array;
}

type loc_syncs = {
  taus : synced_edge list;
  emits : synced_edge list array;
  recvs : synced_edge list array;
}

type sync_index = {
  by_loc : loc_syncs array array;
  emitters : int array array;
  receivers : int array array;
  urgent_chans : int list;
}

type clock_scope =
  | Global
  | Owned of { owner : int; lower : int array; upper : int array }

type network = {
  automata : automaton array;
  n_clocks : int;
  clock_names : string array;
  channels : chan array;
  layout : Store.layout;
  max_consts : int array;
  syncs : sync_index;
  scopes : clock_scope array;
}

(* ------------------------------------------------------------------ *)
(* Sync index                                                          *)
(* ------------------------------------------------------------------ *)

(* Label fragment of one participating edge, e.g.
   [Train0.Safe->Appr[appr0!]]; a move's label joins its participants'
   fragments with single spaces. Plain concatenation: [Format] here
   measurably slowed model set-up. *)
let fragment (a : automaton) (e : edge) =
  let sync =
    match e.sync with
    | Tau -> ""
    | Emit c -> "[" ^ c.chan_name ^ "!]"
    | Receive c -> "[" ^ c.chan_name ^ "?]"
  in
  String.concat ""
    [
      a.auto_name; "."; a.locations.(e.src).loc_name; "->";
      a.locations.(e.dst).loc_name; sync;
    ]

(* Fills a pair-table slot whose receiver sits in the emitter's own
   component; [moves] never reads one. *)
let no_pair = { mv_label = ""; participants = [] }

(* Groups every location's out-edges by sync once per network, in
   out-list order, and records which components emit and receive on each
   channel (ascending). Then prebuilds every binary move: each receiving
   edge on a binary channel gets its [rid] in component, location,
   out-list order, and each emitting edge on one the [pairs] table over
   those receivers. Built eagerly, never lazily: explorations read it
   from several domains at once. *)
let index_syncs automata (channels : chan array) =
  let n_chans = Array.length channels in
  let emitters = Array.make n_chans [] and receivers = Array.make n_chans [] in
  (* The receiving edges on each binary channel so far, reversed. *)
  let binary_recvs = Array.make n_chans [] in
  let note tbl ch i =
    match tbl.(ch) with
    | j :: _ when j = i -> ()
    | l -> tbl.(ch) <- i :: l
  in
  let by_loc =
    Array.mapi
      (fun i a ->
        Array.map
          (fun edges ->
            let emits = Array.make n_chans [] and recvs = Array.make n_chans [] in
            let taus =
              List.filter_map
                (fun e ->
                  let frag = fragment a e in
                  let part = (i, e) in
                  let synced rid =
                    {
                      part;
                      frag;
                      alone = { mv_label = frag; participants = [ part ] };
                      rid;
                      pairs = [||];
                    }
                  in
                  match e.sync with
                  | Tau -> Some (synced (-1))
                  | Emit c ->
                    emits.(c.chan_id) <- synced (-1) :: emits.(c.chan_id);
                    note emitters c.chan_id i;
                    None
                  | Receive c ->
                    let c = c.chan_id in
                    let se =
                      match channels.(c).kind with
                      | Broadcast -> synced (-1)
                      | Binary ->
                        let se = synced (List.length binary_recvs.(c)) in
                        binary_recvs.(c) <- se :: binary_recvs.(c);
                        se
                    in
                    recvs.(c) <- se :: recvs.(c);
                    note receivers c i;
                    None)
                edges
            in
            {
              taus;
              emits = Array.map List.rev emits;
              recvs = Array.map List.rev recvs;
            })
          a.out)
      automata
  in
  let ascending l = Array.of_list (List.rev l) in
  let binary_recvs = Array.map ascending binary_recvs in
  let with_pairs c (e1 : synced_edge) =
    let pair (e2 : synced_edge) =
      if fst e2.part = fst e1.part then no_pair
      else { mv_label = e1.frag ^ " " ^ e2.frag; participants = [ e1.part; e2.part ] }
    in
    { e1 with pairs = Array.map pair binary_recvs.(c) }
  in
  let loc_with_pairs ls =
    { ls with emits = Array.mapi (fun c l -> List.map (with_pairs c) l) ls.emits }
  in
  {
    by_loc = Array.map (Array.map loc_with_pairs) by_loc;
    emitters = Array.map ascending emitters;
    receivers = Array.map ascending receivers;
    urgent_chans =
      List.filter_map
        (fun c -> if c.urgent then Some c.chan_id else None)
        (Array.to_list channels);
  }

(* ------------------------------------------------------------------ *)
(* Per-location clock bounds                                           *)
(* ------------------------------------------------------------------ *)

(* Static guard analysis (Behrmann, Bouyer, Fleury & Larsen, TACAS 2003)
   with lower and upper bounds kept apart (Behrmann, Bouyer, Larsen &
   Pelánek, TACAS 2004). A clock that one component alone mentions in
   invariants, guards or resets is owned by it. Its bound at location [l]
   of the owner is the larger of the constants on it in [l]'s invariant
   and out-guards, taken as [lu_bounds] takes them, and its bound at the
   target of every out-edge that does not reset it; [-1] where neither
   exists: the clock is inactive there, reset before any further test.
   Once activity is known, a reset to [v > 0] feeds [v] at the edge's
   target where the clock is active, and the fixpoint runs again, which
   leaves activity as it is. Each component walks its own clocks only.
   Built eagerly, like the sync index, so domains read it concurrently. *)
let clock_scopes automata n_clocks =
  (* [owner.(x)]: -1 unmentioned, -2 mentioned by several components. *)
  let owner = Array.make (n_clocks + 1) (-1) in
  let mention a x =
    if x > 0 then
      if owner.(x) = -1 then owner.(x) <- a
      else if owner.(x) <> a then owner.(x) <- -2
  in
  Array.iteri
    (fun a au ->
      let constr c = mention a c.ci; mention a c.cj in
      Array.iter (fun l -> List.iter constr l.invariant) au.locations;
      Array.iter
        (List.iter (fun e ->
             List.iter constr e.clock_guard;
             List.iter
               (function Reset (x, _) -> mention a x | Assign _ | Prim _ -> ())
               e.updates))
        au.out)
    automata;
  (* Each component's own clocks, and each clock's slot among them. *)
  let own = Array.make (Array.length automata) [] in
  let slot = Array.make (n_clocks + 1) (-1) in
  for x = 1 to n_clocks do
    let a = owner.(x) in
    if a >= 0 then begin
      slot.(x) <- List.length own.(a);
      own.(a) <- x :: own.(a)
    end
  done;
  let scopes = Array.make (n_clocks + 1) Global in
  Array.iteri
    (fun a au ->
      match own.(a) with
      | [] -> ()
      | xs ->
        let own = Array.of_list (List.rev xs) in
        let k = Array.length own and n_locs = Array.length au.locations in
        let lower = Array.init k (fun _ -> Array.make n_locs (-1)) in
        let upper = Array.init k (fun _ -> Array.make n_locs (-1)) in
        let bump side i l v =
          v > side.(i).(l)
          && begin
            side.(i).(l) <- v;
            true
          end
        in
        let record l c =
          if not (Bound.is_inf c.cb) then begin
            let v = abs (Bound.constant c.cb) in
            if c.ci > 0 && owner.(c.ci) = a then
              ignore (bump upper slot.(c.ci) l v);
            if c.cj > 0 && owner.(c.cj) = a then
              ignore (bump lower slot.(c.cj) l v)
          end
        in
        Array.iteri
          (fun l loc -> List.iter (record l) loc.invariant)
          au.locations;
        Array.iteri
          (fun l -> List.iter (fun e -> List.iter (record l) e.clock_guard))
          au.out;
        let resets e x =
          List.exists
            (function Reset (y, _) -> y = x | Assign _ | Prim _ -> false)
            e.updates
        in
        (* Backward to the fixpoint: a pass per propagation step. *)
        let propagate () =
          let changed = ref true in
          while !changed do
            changed := false;
            Array.iter
              (List.iter (fun e ->
                   for i = 0 to k - 1 do
                     if not (resets e own.(i)) then begin
                       if bump lower i e.src lower.(i).(e.dst) then
                         changed := true;
                       if bump upper i e.src upper.(i).(e.dst) then
                         changed := true
                     end
                   done))
              au.out
          done
        in
        propagate ();
        let fed = ref false in
        Array.iter
          (List.iter (fun e ->
               List.iter
                 (function
                   | Reset (x, v) when v > 0 && owner.(x) = a ->
                     let i = slot.(x) in
                     if lower.(i).(e.dst) >= 0 || upper.(i).(e.dst) >= 0
                     then begin
                       if bump lower i e.dst v then fed := true;
                       if bump upper i e.dst v then fed := true
                     end
                   | Reset _ | Assign _ | Prim _ -> ())
                 e.updates))
          au.out;
        if !fed then propagate ();
        Array.iteri
          (fun i x ->
            scopes.(x) <-
              Owned { owner = a; lower = lower.(i); upper = upper.(i) })
          own)
    automata;
  scopes

(* ------------------------------------------------------------------ *)
(* Constraint helpers                                                  *)
(* ------------------------------------------------------------------ *)

let clock_le x c = { ci = x; cj = 0; cb = Bound.le c }
let clock_lt x c = { ci = x; cj = 0; cb = Bound.lt c }
let clock_ge x c = { ci = 0; cj = x; cb = Bound.le (-c) }
let clock_gt x c = { ci = 0; cj = x; cb = Bound.lt (-c) }
let diff_le x y c = { ci = x; cj = y; cb = Bound.le c }
let diff_lt x y c = { ci = x; cj = y; cb = Bound.lt c }

(* ------------------------------------------------------------------ *)
(* Builder                                                             *)
(* ------------------------------------------------------------------ *)

type proto_auto = {
  pa_name : string;
  mutable pa_locs : location list; (* reversed *)
  mutable pa_edges : edge list; (* reversed *)
  mutable pa_initial : int;
}

type builder = {
  mutable clocks : string list; (* reversed *)
  mutable chans : chan list; (* reversed *)
  mutable autos : proto_auto list; (* reversed *)
  b_store : Store.builder;
}

type auto_builder = proto_auto

let builder () =
  { clocks = []; chans = []; autos = []; b_store = Store.create () }

let fresh_clock b name =
  b.clocks <- name :: b.clocks;
  List.length b.clocks

let channel b ?(kind = Binary) ?(urgent = false) name =
  let c =
    { chan_id = List.length b.chans; chan_name = name; kind; urgent }
  in
  b.chans <- c :: b.chans;
  c

let store b = b.b_store

let automaton b name =
  let pa = { pa_name = name; pa_locs = []; pa_edges = []; pa_initial = 0 } in
  b.autos <- pa :: b.autos;
  pa

let location pa ?(kind = Normal) ?(invariant = []) name =
  let l = { loc_name = name; kind; invariant } in
  pa.pa_locs <- l :: pa.pa_locs;
  List.length pa.pa_locs - 1

let set_initial pa l = pa.pa_initial <- l

let edge pa ~src ~dst ?guard ?(clock_guard = []) ?(sync = Tau)
    ?(updates = []) ?(ctrl = true) () =
  pa.pa_edges <-
    { src; dst; data_guard = guard; clock_guard; sync; updates; ctrl }
    :: pa.pa_edges

let validate_constr ~n_clocks ~what c =
  if c.ci < 0 || c.ci > n_clocks || c.cj < 0 || c.cj > n_clocks || c.ci = c.cj
  then
    invalid_arg
      (Printf.sprintf "Model.build: bad clock indices (%d,%d) in %s" c.ci c.cj
         what)

let build b =
  let n_clocks = List.length b.clocks in
  let clock_names = Array.make (n_clocks + 1) "0" in
  List.iteri
    (fun i name -> clock_names.(n_clocks - i) <- name)
    b.clocks;
  let channels = Array.of_list (List.rev b.chans) in
  let max_consts = Array.make (n_clocks + 1) 0 in
  let record_constr c =
    if not (Bound.is_inf c.cb) then begin
      let k = abs (Bound.constant c.cb) in
      if c.ci > 0 then max_consts.(c.ci) <- max max_consts.(c.ci) k;
      if c.cj > 0 then max_consts.(c.cj) <- max max_consts.(c.cj) k
    end
  in
  let finish_auto pa =
    let locations = Array.of_list (List.rev pa.pa_locs) in
    if Array.length locations = 0 then
      invalid_arg
        (Printf.sprintf "Model.build: component %s has no locations" pa.pa_name);
    Array.iter
      (fun l ->
        List.iter
          (fun c ->
            validate_constr ~n_clocks ~what:("invariant of " ^ l.loc_name) c;
            record_constr c)
          l.invariant)
      locations;
    let out = Array.make (Array.length locations) [] in
    let check_edge e =
      if e.src < 0 || e.src >= Array.length locations
         || e.dst < 0 || e.dst >= Array.length locations then
        invalid_arg
          (Printf.sprintf "Model.build: bad edge endpoints in %s" pa.pa_name);
      List.iter
        (fun c ->
          validate_constr ~n_clocks ~what:("edge guard in " ^ pa.pa_name) c;
          record_constr c)
        e.clock_guard;
      (match e.sync with
       | (Emit ch | Receive ch)
         when ch.chan_id < 0 || ch.chan_id >= Array.length channels ->
         invalid_arg
           (Printf.sprintf "Model.build: channel %s in %s was not declared"
              ch.chan_name pa.pa_name)
       | Receive ch when ch.kind = Broadcast && e.clock_guard <> [] ->
         invalid_arg
           (Printf.sprintf
              "Model.build: broadcast receiver on %s in %s must not have a \
               clock guard"
              ch.chan_name pa.pa_name)
       | (Emit ch | Receive ch) when ch.urgent && e.clock_guard <> [] ->
         invalid_arg
           (Printf.sprintf
              "Model.build: edge on urgent channel %s in %s must not have a \
               clock guard"
              ch.chan_name pa.pa_name)
       | Emit _ | Receive _ | Tau -> ());
      List.iter
        (function
          | Reset (x, v) ->
            if x < 1 || x > n_clocks then
              invalid_arg "Model.build: reset of unknown clock";
            if v < 0 then invalid_arg "Model.build: reset to negative value";
            max_consts.(x) <- max max_consts.(x) v
          | Assign _ | Prim _ -> ())
        e.updates
    in
    List.iter check_edge pa.pa_edges;
    List.iter (fun e -> out.(e.src) <- e :: out.(e.src)) pa.pa_edges;
    (* Restore declaration order of edges. *)
    Array.iteri (fun i l -> out.(i) <- l) (Array.map List.rev out);
    if pa.pa_initial < 0 || pa.pa_initial >= Array.length locations then
      invalid_arg "Model.build: bad initial location";
    {
      auto_name = pa.pa_name;
      locations;
      out;
      initial = pa.pa_initial;
    }
  in
  let automata = Array.of_list (List.rev_map finish_auto b.autos) in
  {
    automata;
    n_clocks;
    clock_names;
    channels;
    layout = Store.freeze b.b_store;
    max_consts;
    syncs = index_syncs automata channels;
    scopes = clock_scopes automata n_clocks;
  }

(* ------------------------------------------------------------------ *)
(* LU guard analysis                                                   *)
(* ------------------------------------------------------------------ *)

(* Per-clock lower/upper guard constants for Extra-LU extrapolation,
   computed on demand by scanning the network (so composed or
   observer-extended networks need no extra bookkeeping). A constraint
   [x_ci - x_cj ≺ k] bounds [ci] from above and [cj] from below, so it
   feeds [upper.(ci)] and [lower.(cj)]; the constant is taken as [abs k],
   conservative for diagonal guards. Resets to [v] feed both sides, like
   [max_consts]. *)
let lu_bounds net =
  let lower = Array.make (net.n_clocks + 1) 0 in
  let upper = Array.make (net.n_clocks + 1) 0 in
  let record_constr c =
    if not (Bound.is_inf c.cb) then begin
      let k = abs (Bound.constant c.cb) in
      if c.ci > 0 then upper.(c.ci) <- max upper.(c.ci) k;
      if c.cj > 0 then lower.(c.cj) <- max lower.(c.cj) k
    end
  in
  Array.iter
    (fun au ->
      Array.iter (fun l -> List.iter record_constr l.invariant) au.locations;
      Array.iter
        (fun edges ->
          List.iter
            (fun e ->
              List.iter record_constr e.clock_guard;
              List.iter
                (function
                  | Reset (x, v) ->
                    lower.(x) <- max lower.(x) v;
                    upper.(x) <- max upper.(x) v
                  | Assign _ | Prim _ -> ())
                e.updates)
            edges)
        au.out)
    net.automata;
  (lower, upper)

(* ------------------------------------------------------------------ *)
(* Union (parallel composition of independently built networks)        *)
(* ------------------------------------------------------------------ *)

(* Clock indices and store offsets of [b] shift; channels merge by name.
   [b] must not contain Prim updates (their closures capture the old
   store offsets and cannot be remapped). *)
let union a b =
  let shift = a.n_clocks in
  (* Merged variable layout: a's variables first (offsets unchanged). *)
  let sb = Store.create () in
  let a_inits = Store.initial a.layout and b_inits = Store.initial b.layout in
  let redeclare inits (v : Store.var) =
    if v.Store.len = 1 then
      Store.int_var sb ~init:inits.(v.Store.off) v.Store.var_name
    else Store.array_var sb ~init:inits.(v.Store.off) v.Store.var_name v.Store.len
  in
  List.iter (fun v -> ignore (redeclare a_inits v)) (Store.vars a.layout);
  let b_var_map = Hashtbl.create 16 in
  List.iter
    (fun v -> Hashtbl.replace b_var_map v.Store.var_name (redeclare b_inits v))
    (Store.vars b.layout);
  let layout = Store.freeze sb in
  (* Channels: a's kept; b's merged by name. *)
  let chan_map = Hashtbl.create 16 in
  let merged_chans = ref (Array.to_list a.channels) in
  let next_id = ref (Array.length a.channels) in
  Array.iter
    (fun (c : chan) ->
      match
        List.find_opt
          (fun (c' : chan) -> String.equal c'.chan_name c.chan_name)
          !merged_chans
      with
      | Some c' ->
        if c'.kind <> c.kind || c'.urgent <> c.urgent then
          invalid_arg
            (Printf.sprintf "Model.union: channel %s declared differently"
               c.chan_name);
        Hashtbl.replace chan_map c.chan_id c'
      | None ->
        let fresh = { c with chan_id = !next_id } in
        incr next_id;
        merged_chans := !merged_chans @ [ fresh ];
        Hashtbl.replace chan_map c.chan_id fresh)
    b.channels;
  let shift_constr (c : constr) =
    {
      c with
      ci = (if c.ci = 0 then 0 else c.ci + shift);
      cj = (if c.cj = 0 then 0 else c.cj + shift);
    }
  in
  let subst_var (v : Store.var) =
    match Hashtbl.find_opt b_var_map v.Store.var_name with
    | Some v' -> v'
    | None -> invalid_arg "Model.union: unknown variable in b"
  in
  let shift_update = function
    | Reset (x, v) -> Reset (x + shift, v)
    | Assign (lv, rhs) ->
      Assign (Expr.subst_lvalue subst_var lv, Expr.subst_vars subst_var rhs)
    | Prim (name, _) ->
      invalid_arg
        (Printf.sprintf
           "Model.union: %s uses a Prim update, which cannot be remapped" name)
  in
  let shift_sync = function
    | Tau -> Tau
    | Emit c -> Emit (Hashtbl.find chan_map c.chan_id)
    | Receive c -> Receive (Hashtbl.find chan_map c.chan_id)
  in
  let shift_auto (au : automaton) =
    {
      au with
      locations =
        Array.map
          (fun l -> { l with invariant = List.map shift_constr l.invariant })
          au.locations;
      out =
        Array.map
          (fun edges ->
            List.map
              (fun e ->
                {
                  e with
                  data_guard = Option.map (Expr.subst_vars subst_var) e.data_guard;
                  clock_guard = List.map shift_constr e.clock_guard;
                  sync = shift_sync e.sync;
                  updates = List.map shift_update e.updates;
                })
              edges)
          au.out;
    }
  in
  (* Component names must stay unique for name-based lookups. *)
  Array.iter
    (fun (au : automaton) ->
      if
        Array.exists
          (fun (au' : automaton) -> String.equal au'.auto_name au.auto_name)
          a.automata
      then
        invalid_arg
          (Printf.sprintf "Model.union: duplicate component %s" au.auto_name))
    b.automata;
  let automata = Array.append a.automata (Array.map shift_auto b.automata) in
  let channels = Array.of_list !merged_chans in
  {
    automata;
    n_clocks = a.n_clocks + b.n_clocks;
    clock_names =
      Array.append a.clock_names (Array.sub b.clock_names 1 b.n_clocks);
    channels;
    layout;
    max_consts =
      Array.append a.max_consts (Array.sub b.max_consts 1 b.n_clocks);
    syncs = index_syncs automata channels;
    scopes = clock_scopes automata (a.n_clocks + b.n_clocks);
  }

let keep_active net clocks =
  let owned x =
    x > 0 && x <= net.n_clocks
    && match net.scopes.(x) with Owned _ -> true | Global -> false
  in
  if not (List.exists owned clocks) then net
  else begin
    let scopes = Array.copy net.scopes in
    List.iter (fun x -> if owned x then scopes.(x) <- Global) clocks;
    { net with scopes }
  end

(* ------------------------------------------------------------------ *)
(* Lookup and printing                                                 *)
(* ------------------------------------------------------------------ *)

let auto_index net name =
  let found = ref (-1) in
  Array.iteri
    (fun i a -> if String.equal a.auto_name name then found := i)
    net.automata;
  if !found < 0 then raise Not_found else !found

let loc_index net a name =
  let locs = net.automata.(a).locations in
  let found = ref (-1) in
  Array.iteri
    (fun i l -> if String.equal l.loc_name name then found := i)
    locs;
  if !found < 0 then raise Not_found else !found

let loc_name net a l = net.automata.(a).locations.(l).loc_name

let pp_constr ~clock_names ppf c =
  let name i = clock_names.(i) in
  if c.cj = 0 then
    Format.fprintf ppf "%s%s" (name c.ci) (Bound.to_string c.cb)
  else if c.ci = 0 then
    Format.fprintf ppf "-%s%s" (name c.cj) (Bound.to_string c.cb)
  else
    Format.fprintf ppf "%s-%s%s" (name c.ci) (name c.cj)
      (Bound.to_string c.cb)

let pp_sync ppf = function
  | Tau -> Format.pp_print_string ppf "tau"
  | Emit c -> Format.fprintf ppf "%s!" c.chan_name
  | Receive c -> Format.fprintf ppf "%s?" c.chan_name
