type action = { a_label : string; probs : (float * int) list; reward : float }
type t = { acts : action list array }

let make actions =
  let n = Array.length actions in
  Array.iter
    (fun choices ->
      List.iter
        (fun a ->
          let total = List.fold_left (fun s (p, _) -> s +. p) 0.0 a.probs in
          if abs_float (total -. 1.0) > 1e-9 then
            invalid_arg
              (Printf.sprintf "Mdp.make: distribution of %S sums to %.12f"
                 a.a_label total);
          List.iter
            (fun (p, s) ->
              if p < 0.0 || p > 1.0 +. 1e-12 then
                invalid_arg "Mdp.make: probability out of range";
              if s < 0 || s >= n then invalid_arg "Mdp.make: bad successor")
            a.probs)
        choices)
    actions;
  { acts = Array.copy actions }

let n_states t = Array.length t.acts
let actions t s = t.acts.(s)

type sweep = Jacobi | Gauss_seidel
type vi_stats = { iterations : int; final_delta : float }

let pick ~maximize a b = if maximize then max a b else min a b

(* Value iteration stops once a sweep moves no value by more than
   [epsilon], or after [max_iter] sweeps. *)
let epsilon = 1e-12
let max_iter = 2_000_000

(* Generic value iteration from below: v := max/min over actions of
   (base(a) + sum p * v'), with target states pinned to [pin]. *)
let value_iterate ?(sweep = Gauss_seidel) t ~target ~maximize ~pin ~base
    ~frozen =
  let n = n_states t in
  let v = Array.make n 0.0 in
  Array.iteri (fun s tgt -> if tgt then v.(s) <- pin) target;
  Array.iteri (fun s f -> if f && not target.(s) then v.(s) <- infinity) frozen;
  let stats = ref { iterations = 0; final_delta = infinity } in
  (try
     for iter = 1 to max_iter do
       let source = match sweep with Jacobi -> Array.copy v | Gauss_seidel -> v in
       let delta = ref 0.0 in
       for s = 0 to n - 1 do
         if (not target.(s)) && not frozen.(s) then begin
           match t.acts.(s) with
           | [] -> () (* absorbing non-target: value stays 0 *)
           | choices ->
             let value =
               List.fold_left
                 (fun acc a ->
                   let q =
                     (* skip p = 0 terms: 0 * infinity would poison sums *)
                     List.fold_left
                       (fun sum (p, s') ->
                         if p > 0.0 then sum +. (p *. source.(s')) else sum)
                       (base a) a.probs
                   in
                   match acc with
                   | None -> Some q
                   | Some best -> Some (pick ~maximize best q))
                 None choices
             in
             (match value with
              | Some q ->
                delta := max !delta (abs_float (q -. v.(s)));
                v.(s) <- q
              | None -> ())
         end
       done;
       stats := { iterations = iter; final_delta = !delta };
       if !delta <= epsilon then raise Exit
     done
   with Exit -> ());
  (v, !stats)

let reach_prob ?sweep t ~target ~maximize =
  let n = n_states t in
  if Array.length target <> n then invalid_arg "Mdp.reach_prob: target size";
  let frozen = Array.make n false in
  value_iterate ?sweep t ~target ~maximize ~pin:1.0
    ~base:(fun _ -> 0.0)
    ~frozen

let bounded_reach_prob t ~target ~steps ~maximize =
  let n = n_states t in
  if Array.length target <> n then
    invalid_arg "Mdp.bounded_reach_prob: target size";
  let v = ref (Array.init n (fun s -> if target.(s) then 1.0 else 0.0)) in
  for _ = 1 to steps do
    let prev = !v in
    let next =
      Array.init n (fun s ->
          if target.(s) then 1.0
          else
            match t.acts.(s) with
            | [] -> 0.0
            | choices ->
              List.fold_left
                (fun acc a ->
                  let q =
                    List.fold_left
                      (fun sum (p, s') ->
                        if p > 0.0 then sum +. (p *. prev.(s')) else sum)
                      0.0 a.probs
                  in
                  match acc with
                  | None -> Some q
                  | Some best -> Some (pick ~maximize best q))
                None choices
              |> Option.value ~default:0.0)
    in
    v := next
  done;
  !v

let expected_reward ?sweep t ~target ~maximize =
  let n = n_states t in
  if Array.length target <> n then invalid_arg "Mdp.expected_reward: target size";
  (* Divergence mask: maximizing needs every scheduler to reach the target
     almost surely (min reach = 1); minimizing needs some scheduler to
     (max reach = 1). Other states get value infinity. *)
  let reach, _ = reach_prob ?sweep t ~target ~maximize:(not maximize) in
  let frozen = Array.map (fun p -> p < 1.0 -. 1e-9) reach in
  value_iterate ?sweep t ~target ~maximize ~pin:0.0
    ~base:(fun a -> a.reward)
    ~frozen

let check t =
  Array.for_all
    (fun choices ->
      List.for_all
        (fun a ->
          abs_float (List.fold_left (fun s (p, _) -> s +. p) 0.0 a.probs -. 1.0)
          <= 1e-9)
        choices)
    t.acts
