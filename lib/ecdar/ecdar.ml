module Digital = Discrete.Digital
module Model = Ta.Model

type t = {
  net : Model.network;
  inputs : string list;
  outputs : string list;
}

let move_channel (mv : Ta.Zone_graph.move) =
  let rec scan = function
    | [] -> None
    | (_, (e : Model.edge)) :: rest -> (
        match e.Model.sync with
        | Model.Emit c -> Some c.Model.chan_name
        | Model.Receive _ | Model.Tau -> scan rest)
  in
  scan mv.Ta.Zone_graph.participants

let make net ~inputs ~outputs =
  if not (Digital.is_closed net) then
    invalid_arg "Ecdar.make: specification must be closed and diagonal-free";
  let t = { net; inputs; outputs } in
  (* Every move must carry an observable channel. *)
  let graph = Digital.explore net in
  Array.iter
    (function
      | `Delay -> ()
      | `Act mv -> (
          match move_channel mv with
          | Some c when List.mem c inputs || List.mem c outputs -> ()
          | Some c ->
            invalid_arg
              (Printf.sprintf "Ecdar.make: channel %s not in the alphabet" c)
          | None ->
            invalid_arg "Ecdar.make: unobservable (tau) moves unsupported"))
    graph.Digital.kinds;
  t

(* Per-state successor map: delay successor and (channel -> targets). *)
type view = {
  n : int;
  delay : int option array;
  by_chan : (string, int list) Hashtbl.t array;
}

let view_of spec =
  let graph = Digital.explore spec.net in
  let n = Array.length graph.Digital.states in
  let delay = Array.make n None in
  let by_chan = Array.init n (fun _ -> Hashtbl.create 4) in
  for i = 0 to n - 1 do
    for e = graph.Digital.offsets.(i) to graph.Digital.offsets.(i + 1) - 1 do
      let tid = graph.Digital.targets.(e) in
      match graph.Digital.kinds.(e) with
      | `Delay -> delay.(i) <- Some tid
      | `Act mv -> (
          match move_channel mv with
          | Some c ->
            let old = try Hashtbl.find by_chan.(i) c with Not_found -> [] in
            Hashtbl.replace by_chan.(i) c (tid :: old)
          | None -> ())
    done
  done;
  { n; delay; by_chan }

type refinement_result = {
  refines : bool;
  checked_pairs : int;
  witness : string option;
}

let refines ~impl ~spec =
  if
    List.sort compare impl.inputs <> List.sort compare spec.inputs
    || List.sort compare impl.outputs <> List.sort compare spec.outputs
  then invalid_arg "Ecdar.refines: alphabets differ";
  let vi = view_of impl and vs = view_of spec in
  let succ_chan (v : view) s c =
    try Hashtbl.find v.by_chan.(s) c with Not_found -> []
  in
  (* Greatest fixpoint over the full pair space (bitset indexed s*ns+t),
     then membership of the initial pair decides refinement. *)
  let related = Array.make (vi.n * vs.n) true in
  let idx s t = (s * vs.n) + t in
  let witness = ref None in
  let note w = if !witness = None then witness := Some w in
  let violates s t =
    (* Implementation delay must be matched. *)
    (match vi.delay.(s) with
     | Some s' -> (
         match vs.delay.(t) with
         | Some t' -> if not related.(idx s' t') then (note "delay obligation"; true) else false
         | None ->
           note "impl delays where spec cannot";
           true)
     | None -> false)
    ||
    (* Implementation outputs must be matched. *)
    List.exists
      (fun o ->
        List.exists
          (fun s' ->
            let matched =
              List.exists (fun t' -> related.(idx s' t')) (succ_chan vs t o)
            in
            if not matched then note (Printf.sprintf "output %s! unmatched" o);
            not matched)
          (succ_chan vi s o))
      impl.outputs
    ||
    (* Specification inputs must be admitted. *)
    List.exists
      (fun i ->
        List.exists
          (fun t' ->
            let matched =
              List.exists (fun s' -> related.(idx s' t')) (succ_chan vi s i)
            in
            if not matched then note (Printf.sprintf "input %s? refused" i);
            not matched)
          (succ_chan vs t i))
      impl.inputs
  in
  let changed = ref true in
  while !changed do
    changed := false;
    for s = 0 to vi.n - 1 do
      for t = 0 to vs.n - 1 do
        if related.(idx s t) && violates s t then begin
          related.(idx s t) <- false;
          changed := true
        end
      done
    done
  done;
  let ok = related.(idx 0 0) in
  {
    refines = ok;
    checked_pairs = vi.n * vs.n;
    witness = (if ok then None else !witness);
  }

(* Structural composition: merged network; a channel that is one side's
   output and the other's input becomes internal communication but stays
   observable as the emitter's output (TIOA composition). Output sets
   must be disjoint. *)
let compose a b =
  let overlap =
    List.filter (fun o -> List.mem o b.outputs) a.outputs
  in
  if overlap <> [] then
    invalid_arg
      (Printf.sprintf "Ecdar.compose: shared output %s" (List.hd overlap));
  let net = Ta.Model.union a.net b.net in
  let outputs = a.outputs @ b.outputs in
  let inputs =
    List.filter
      (fun i -> not (List.mem i outputs))
      (List.sort_uniq compare (a.inputs @ b.inputs))
  in
  make net ~inputs ~outputs

(* Logical composition (conjunction) is used through its characteristic
   property on deterministic specifications: u refines (a AND b) iff u
   refines both. *)
let refines_conjunction ~impl ~specs =
  List.for_all (fun spec -> (refines ~impl ~spec).refines) specs

let consistent spec =
  let v = view_of spec in
  let ok = ref true in
  for s = 0 to v.n - 1 do
    let has_move = Hashtbl.length v.by_chan.(s) > 0 in
    if v.delay.(s) = None && not has_move then ok := false
  done;
  !ok
