type verdict = Proved | Inconclusive of int array list

type report = {
  verdict : verdict;
  n_traps : int;
  n_semiflows : int;
  n_candidates_checked : int;
}

(* Places are (component, location), flattened to ints. *)
type net = {
  offsets : int array; (* place id of (ci, 0) *)
  n_places : int;
  transitions : (int list * int list) list; (* (consumed, produced) *)
}

let place net ci loc = net.offsets.(ci) + loc

let build_net (sys : System.t) =
  let n = Array.length sys.components in
  let offsets = Array.make n 0 in
  let total = ref 0 in
  Array.iteri
    (fun ci (c : Component.t) ->
      offsets.(ci) <- !total;
      total := !total + Array.length c.Component.locations)
    sys.components;
  let net = { offsets; n_places = !total; transitions = [] } in
  (* One Petri transition per interaction per combination of participant
     transitions on the matching ports (guards ignored: over-approx). *)
  let transitions = ref [] in
  Array.iter
    (fun (i : System.interaction) ->
      let rec combos acc = function
        | [] -> [ List.rev acc ]
        | (ci, (p : Component.port)) :: rest ->
          let c = sys.components.(ci) in
          let ts =
            Array.to_list c.Component.transitions
            |> List.concat
            |> List.filter (fun (t : Component.transition) ->
                   t.Component.t_port = p.Component.port_id)
          in
          List.concat_map (fun t -> combos ((ci, t) :: acc) rest) ts
      in
      List.iter
        (fun combo ->
          if combo <> [] then begin
            let consumed =
              List.map
                (fun (ci, (t : Component.transition)) ->
                  place net ci t.Component.t_src)
                combo
            in
            let produced =
              List.map
                (fun (ci, (t : Component.transition)) ->
                  place net ci t.Component.t_dst)
                combo
            in
            transitions := (consumed, produced) :: !transitions
          end)
        (combos [] i.System.i_ports))
    sys.interactions;
  { net with transitions = !transitions }

(* Smallest trap-closed superset of [seed] under the "add all produced
   places" rule: for any net transition consuming from S but producing
   nothing into S, add its whole postset. The result is a trap. *)
let trap_closure net seed =
  let in_set = Array.make net.n_places false in
  List.iter (fun p -> in_set.(p) <- true) seed;
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun (consumed, produced) ->
        if List.exists (fun p -> in_set.(p)) consumed
           && not (List.exists (fun p -> in_set.(p)) produced)
        then begin
          List.iter (fun p -> in_set.(p) <- true) produced;
          changed := true
        end)
      net.transitions
  done;
  in_set

(* Minimal P-semiflows by the Martinez-Silva elimination: maintain rows
   [C-part | y-part]; eliminating one transition column at a time by
   non-negative combination of rows with opposite signs. Surviving rows
   have y . C = 0, i.e. y . m is constant on all reachable markings. *)
let semiflows net ~max_rows =
  let transitions = Array.of_list net.transitions in
  let n_t = Array.length transitions in
  let incidence p t =
    let consumed, produced = transitions.(t) in
    let count x xs = List.length (List.filter (fun q -> q = x) xs) in
    count p produced - count p consumed
  in
  let rec gcd a b = if b = 0 then a else gcd b (a mod b) in
  let normalize (c, y) =
    let g =
      Array.fold_left
        (fun acc v -> gcd acc (abs v))
        (Array.fold_left (fun acc v -> gcd acc (abs v)) 0 c)
        y
    in
    if g > 1 then
      (Array.map (fun v -> v / g) c, Array.map (fun v -> v / g) y)
    else (c, y)
  in
  let rows =
    ref
      (List.init net.n_places (fun p ->
           ( Array.init n_t (fun t -> incidence p t),
             Array.init net.n_places (fun q -> if q = p then 1 else 0) )))
  in
  let ok = ref true in
  (try
     for t = 0 to n_t - 1 do
       let zero, pos, neg =
         List.fold_left
           (fun (z, p, n) ((c, _) as row) ->
             if c.(t) = 0 then (row :: z, p, n)
             else if c.(t) > 0 then (z, row :: p, n)
             else (z, p, row :: n))
           ([], [], []) !rows
       in
       let combined =
         List.concat_map
           (fun (c1, y1) ->
             List.map
               (fun (c2, y2) ->
                 let a = -c2.(t) and b = c1.(t) in
                 (* a > 0, b > 0: non-negative combination. *)
                 normalize
                   ( Array.init n_t (fun k -> (a * c1.(k)) + (b * c2.(k))),
                     Array.init net.n_places (fun k ->
                         (a * y1.(k)) + (b * y2.(k))) ))
               neg)
           pos
       in
       rows := List.sort_uniq compare (zero @ combined);
       if List.length !rows > max_rows then begin
         ok := false;
         raise Exit
       end
     done
   with Exit -> ());
  if not !ok then []
  else
    List.filter_map
      (fun (_, y) -> if Array.exists (fun v -> v > 0) y then Some y else None)
      !rows

(* Locally reachable locations of one component, assuming all ports are
   always offered and ignoring guards (an over-approximation of the
   projection of the real reachable set). *)
let local_reach (c : Component.t) =
  let n = Array.length c.Component.locations in
  let seen = Array.make n false in
  let rec visit l =
    if not seen.(l) then begin
      seen.(l) <- true;
      List.iter
        (fun (t : Component.transition) -> visit t.Component.t_dst)
        c.Component.transitions.(l)
    end
  in
  visit c.Component.initial_loc;
  seen

(* [group n iter] — for each key in [0, n), the items that [iter add]
   registers under it with [add key item], in registration order. *)
let group n iter =
  let groups = Array.make n [] in
  iter (fun key item -> groups.(key) <- item :: groups.(key));
  Array.map (fun items -> Array.of_list (List.rev items)) groups

let count p a = Array.fold_left (fun n x -> if p x then n + 1 else n) 0 a

let prove ?(max_candidates = 1_000_000) (sys : System.t) =
  Obs.Span.with_ ~name:"bip.dfinder" @@ fun () ->
  let net = build_net sys in
  (* Interaction invariants: one marked trap per initial place. *)
  let init_places =
    Array.to_list
      (Array.mapi
         (fun ci (c : Component.t) -> place net ci c.Component.initial_loc)
         sys.components)
  in
  let traps =
    List.sort_uniq compare (List.map (fun p -> trap_closure net [ p ]) init_places)
  in
  let flows = Array.of_list (semiflows net ~max_rows:5000) in
  let locals = Array.map local_reach sys.components in
  let n = Array.length sys.components in
  (* Per-place tables: the traps holding the place, each semiflow's
     (non-zero) weight on it, and the guard-free interactions that have
     a participant with an unguarded transition on its port from it —
     once per such participant. *)
  let traps_at =
    group net.n_places (fun add ->
        List.iteri
          (fun k trap -> Array.iteri (fun p held -> if held then add p k) trap)
          traps)
  in
  let flows_at =
    group net.n_places (fun add ->
        Array.iteri
          (fun f y -> Array.iteri (fun p w -> if w <> 0 then add p (f, w)) y)
          flows)
  in
  let unguarded =
    Array.of_list
      (List.filter
         (fun (i : System.interaction) -> i.System.i_guard = None)
         (Array.to_list sys.interactions))
  in
  let sure_at =
    group net.n_places (fun add ->
        Array.iteri
          (fun k (i : System.interaction) ->
            List.iter
              (fun (ci, (p : Component.port)) ->
                Array.iteri
                  (fun l ts ->
                    if
                      List.exists
                        (fun (t : Component.transition) ->
                          t.Component.t_port = p.Component.port_id
                          && not t.Component.t_has_guard)
                        ts
                    then add (place net ci l) k)
                  sys.components.(ci).Component.transitions)
              i.System.i_ports)
          unguarded)
  in
  (* Running state of the partial vector: how many of its places each
     trap holds, each semiflow's weighted sum, and how many participants
     of each guard-free interaction it serves; with the counts of traps
     left empty, semiflows off their initial value and interactions
     surely enabled. A candidate survives when all three are 0. *)
  let trap_hits = Array.make (List.length traps) 0 in
  let empty_traps = ref (List.length traps) in
  let flow_init =
    Array.map
      (fun y -> List.fold_left (fun acc p -> acc + y.(p)) 0 init_places)
      flows
  in
  let flow_sums = Array.make (Array.length flows) 0 in
  let off_flows = ref (count (fun v -> v <> 0) flow_init) in
  let arity =
    Array.map
      (fun (i : System.interaction) -> List.length i.System.i_ports)
      unguarded
  in
  let served = Array.make (Array.length unguarded) 0 in
  let sure = ref (count (fun a -> a = 0) arity) in
  (* Enter ([d = 1]) or leave ([d = -1]) place [p]; loops, not
     closures, as this runs twice per node of the enumeration. *)
  let occupy p d =
    let ks = traps_at.(p) in
    for j = 0 to Array.length ks - 1 do
      let k = ks.(j) in
      let before = trap_hits.(k) in
      trap_hits.(k) <- before + d;
      if before = 0 then decr empty_traps
      else if before + d = 0 then incr empty_traps
    done;
    let fs = flows_at.(p) in
    for j = 0 to Array.length fs - 1 do
      let f, w = fs.(j) in
      let before = flow_sums.(f) in
      flow_sums.(f) <- before + (d * w);
      if before = flow_init.(f) then incr off_flows
      else if before + (d * w) = flow_init.(f) then decr off_flows
    done;
    let ks = sure_at.(p) in
    for j = 0 to Array.length ks - 1 do
      let k = ks.(j) in
      let before = served.(k) in
      served.(k) <- before + d;
      if before = arity.(k) then decr sure
      else if before + d = arity.(k) then incr sure
    done
  in
  (* Enumerate candidate vectors over the local invariants, in
     lexicographic order, and keep those that satisfy every interaction
     invariant and where nothing is surely enabled. *)
  let survivors = ref [] in
  let checked = ref 0 in
  let exception Too_many in
  let vec = Array.make n 0 in
  let report verdict =
    {
      verdict;
      n_traps = List.length traps;
      n_semiflows = Array.length flows;
      n_candidates_checked = !checked;
    }
  in
  try
    let rec enum ci =
      if ci = n then begin
        incr checked;
        if !checked > max_candidates then raise Too_many;
        if !empty_traps = 0 && !off_flows = 0 && !sure = 0 then
          survivors := Array.copy vec :: !survivors
      end
      else
        for l = 0 to Array.length locals.(ci) - 1 do
          if locals.(ci).(l) then begin
            vec.(ci) <- l;
            let p = place net ci l in
            occupy p 1;
            enum (ci + 1);
            occupy p (-1)
          end
        done
    in
    enum 0;
    report
      (match !survivors with [] -> Proved | s -> Inconclusive (List.rev s))
  with Too_many -> report (Inconclusive [])

let check ?max_candidates sys =
  match (prove ?max_candidates sys).verdict with
  | Proved -> (true, false)
  | Inconclusive _ -> (fst (Exec.deadlock_free sys), true)
