type family = Ta_reach | Priced | Mdp_vi | Smc_ci | Bip_deadlock

let all_families = [ Ta_reach; Priced; Mdp_vi; Smc_ci; Bip_deadlock ]

let family_name = function
  | Ta_reach -> "ta-reach"
  | Priced -> "priced"
  | Mdp_vi -> "mdp-vi"
  | Smc_ci -> "smc-ci"
  | Bip_deadlock -> "bip-deadlock"

let family_of_name s =
  List.find_opt (fun f -> family_name f = s) all_families

type case =
  | Ta of Ta_gen.spec
  | Pr of Ta_gen.spec
  | Md of Mdp_gen.spec
  | Sm of Mdp_gen.spec
  | Bi of Bip_gen.spec

type verdict = Agree | Skip of string | Diverge of string

let generate fam rng =
  match fam with
  | Ta_reach -> Ta (Ta_gen.generate ~max_autos:3 ~max_clocks:2 ~cmax:4 rng)
  | Priced ->
    Pr
      (Ta_gen.generate ~max_autos:2 ~max_clocks:2 ~max_vars:1 ~max_chans:1
         ~cmax:3 rng)
  | Mdp_vi -> Md (Mdp_gen.generate rng)
  | Smc_ci -> Sm (Mdp_gen.generate_dtmc rng)
  | Bip_deadlock -> Bi (Bip_gen.generate rng)

let family_of_case = function
  | Ta _ -> Ta_reach
  | Pr _ -> Priced
  | Md _ -> Mdp_vi
  | Sm _ -> Smc_ci
  | Bi _ -> Bip_deadlock

(* ------------------------------------------------------------------ *)
(* Per-family checks                                                   *)
(* ------------------------------------------------------------------ *)

(* Zone engine caps. The seal table behind {!Zones.Dbm.seal} is
   mutex-guarded, so interning from [Par]-pooled harness cases is safe. *)
let ta_max_states = 50_000
let priced_max_states = 20_000
let bip_max_states = 20_000

let check_ta ~extrapolation ?jobs spec =
  (* Harness cases may already be running on pool worker domains, and
     pools must not nest — so any harness [jobs] request is clamped to
     a poolless sharded run ([jobs = 1]): both sides still exercise the
     sharded mailbox/round machinery, and the verdict stays invariant
     across harness pool sizes (a hard fuzz-report property). *)
  let jobs = Option.map (fun _ -> 1) jobs in
  let net = Ta_gen.build spec in
  let zone net =
    (Ta.Checker.check ~extrapolation ~max_states:ta_max_states ?jobs net
       (Ta.Prop.Possibly (Ta_gen.target_formula spec)))
      .Ta.Checker.holds
  in
  let local = zone net in
  (* Extrapolation agreement: the same query with every clock kept
     active, i.e. under one bound per clock for the whole network. *)
  let global =
    zone (Ta.Model.keep_active net (List.init net.Ta.Model.n_clocks succ))
  in
  let g = Discrete.Digital.explore ~max_states:ta_max_states ?jobs net in
  let digital = Array.exists (Ta_gen.target_pred spec) g.Discrete.Digital.states in
  if local <> global then
    Diverge
      (Printf.sprintf
         "ta-reach: per-location bounds say %b, global bounds %b" local global)
  else if local = digital then Agree
  else
    Diverge
      (Printf.sprintf "ta-reach: zone engine says %b, digital exploration %b"
         local digital)

(* Independent min-cost: Bellman–Ford relaxation to a fixpoint over the
   explicit digital graph (all costs are non-negative, so it converges;
   the point is that it shares no code with the Dijkstra best-cost
   store it is checking). *)
let digital_min_cost spec net target =
  let cm = Ta_gen.cost_model spec in
  let g = Discrete.Digital.explore ~max_states:priced_max_states net in
  let states = g.Discrete.Digital.states in
  let n = Array.length states in
  let rate st =
    let acc = ref 0 in
    Array.iteri
      (fun a l -> acc := !acc + spec.Ta_gen.s_autos.(a).Ta_gen.a_rates.(l))
      st.Discrete.Digital.dlocs;
    !acc
  in
  let dist = Array.make n max_int in
  (* The initial state is id 0. *)
  dist.(0) <- 0;
  let changed = ref true in
  while !changed do
    changed := false;
    for s = 0 to n - 1 do
      if dist.(s) < max_int then
        for e = g.offsets.(s) to g.offsets.(s + 1) - 1 do
          let c =
            match g.kinds.(e) with
            | `Delay -> rate states.(s)
            | `Act mv -> cm.Priced.move_cost mv
          in
          let t = g.targets.(e) in
          if dist.(s) + c < dist.(t) then begin
            dist.(t) <- dist.(s) + c;
            changed := true
          end
        done
    done
  done;
  let best = ref None in
  Array.iteri
    (fun i st ->
      if dist.(i) < max_int && target st then
        match !best with
        | Some b when b <= dist.(i) -> ()
        | _ -> best := Some dist.(i))
    states;
  !best

let check_priced spec =
  let net = Ta_gen.build spec in
  let target = Ta_gen.target_pred spec in
  let reference = digital_min_cost spec net target in
  let cora = Priced.min_cost_reach net (Ta_gen.cost_model spec) ~target in
  match (cora, reference) with
  | None, None -> Agree
  | Some o, Some c when o.Priced.cost = c -> Agree
  | Some o, Some c ->
    Diverge
      (Printf.sprintf "priced: min_cost_reach says %d, Bellman-Ford says %d"
         o.Priced.cost c)
  | Some o, None ->
    Diverge
      (Printf.sprintf "priced: min_cost_reach reaches at cost %d, \
                       Bellman-Ford says unreachable" o.Priced.cost)
  | None, Some c ->
    Diverge
      (Printf.sprintf "priced: min_cost_reach says unreachable, \
                       Bellman-Ford reaches at cost %d" c)

let vi_tolerance = 1e-6

let check_mdp spec =
  let m = Mdp_gen.build spec in
  let target = Mdp_gen.target spec in
  let bad = ref None in
  List.iter
    (fun maximize ->
      if !bad = None then begin
        let v, _ = Mdp.reach_prob m ~target ~maximize in
        let e = Mdp_gen.exact spec ~maximize in
        Array.iteri
          (fun s ve ->
            if !bad = None && Float.abs (ve -. e.(s)) > vi_tolerance then
              bad :=
                Some
                  (Printf.sprintf
                     "mdp-vi: state %d (%s): value iteration %.12g, exact \
                      backward induction %.12g"
                     s
                     (if maximize then "max" else "min")
                     ve e.(s)))
          v
      end)
    [ true; false ];
  match !bad with None -> Agree | Some msg -> Diverge msg

let smc_runs = 2000
let smc_slack = 0.02

let check_smc spec =
  let exact = (Mdp_gen.exact spec ~maximize:true).(0) in
  (* Seeded from the spec itself so a shrunk repro stays self-contained:
     re-running [check] on the printed spec replays the same samples. *)
  let r = Random.State.make [| Hashtbl.hash spec; 0x5eed |] in
  let successes = ref 0 in
  for _ = 1 to smc_runs do
    if Mdp_gen.simulate spec r then incr successes
  done;
  let iv =
    Smc.Estimate.wilson ~confidence:0.99 ~successes:!successes ~trials:smc_runs
      ()
  in
  if exact >= iv.Smc.Estimate.low -. smc_slack
     && exact <= iv.Smc.Estimate.high +. smc_slack
  then Agree
  else
    Diverge
      (Printf.sprintf
         "smc-ci: exact probability %.6f outside Wilson interval [%.6f, %.6f] \
          (+/- %.2f slack, %d runs)"
         exact iv.Smc.Estimate.low iv.Smc.Estimate.high smc_slack smc_runs)

let check_bip spec =
  let sys = Bip_gen.build spec in
  let r = Bip.Engine.reachable ~max_states:bip_max_states sys in
  if r.Bip.Engine.truncated then Skip "bip-deadlock: exploration truncated"
  else
    let rep = Bip.Dfinder.prove ~max_candidates:bip_max_states sys in
    match (rep.Bip.Dfinder.verdict, r.Bip.Engine.deadlocks) with
    | Bip.Dfinder.Proved, _ :: _ ->
      Diverge
        (Printf.sprintf
           "bip-deadlock: D-Finder proved deadlock-freedom but exploration \
            found %d reachable deadlock(s)"
           (List.length r.Bip.Engine.deadlocks))
    | _ -> Agree

let check ?(extrapolation = `Lu) ?jobs case =
  try
    match case with
    | Ta spec -> check_ta ~extrapolation ?jobs spec
    | Pr spec -> check_priced spec
    | Md spec -> check_mdp spec
    | Sm spec -> check_smc spec
    | Bi spec -> check_bip spec
  with
  | Failure msg -> Skip ("truncated: " ^ msg)
  | Ta.Checker.Truncated { stats; _ } ->
    Skip
      (Printf.sprintf "truncated: zone state limit (%d states)"
         stats.Ta.Checker.visited)
  | e ->
    Diverge
      (Printf.sprintf "%s: backend raised %s"
         (family_name (family_of_case case))
         (Printexc.to_string e))

let shrinks = function
  | Ta spec -> List.map (fun s -> Ta s) (Ta_gen.shrinks spec)
  | Pr spec -> List.map (fun s -> Pr s) (Ta_gen.shrinks spec)
  | Md spec -> List.map (fun s -> Md s) (Mdp_gen.shrinks spec)
  | Sm spec -> List.map (fun s -> Sm s) (Mdp_gen.shrinks spec)
  | Bi spec -> List.map (fun s -> Bi s) (Bip_gen.shrinks spec)

let to_json case =
  let fam = Obs.Json.Str (family_name (family_of_case case)) in
  let spec =
    match case with
    | Ta s | Pr s -> Ta_gen.to_json s
    | Md s | Sm s -> Mdp_gen.to_json s
    | Bi s -> Bip_gen.to_json s
  in
  Obs.Json.Obj [ ("family", fam); ("spec", spec) ]

let to_ocaml case =
  let ctor, body =
    match case with
    | Ta s -> ("Ta", Ta_gen.to_ocaml s)
    | Pr s -> ("Pr", Ta_gen.to_ocaml s)
    | Md s -> ("Md", Mdp_gen.to_ocaml s)
    | Sm s -> ("Sm", Mdp_gen.to_ocaml s)
    | Bi s -> ("Bi", Bip_gen.to_ocaml s)
  in
  Printf.sprintf "Quantlib.Gen.Oracle.%s %s" ctor body

(* Packed fingerprint of the case's initial state, through the same
   codec its backends key their stores on. Deterministic (words and
   hash only, no addresses), so it is safe in the jobs-invariant fuzz
   report. *)
let packed_repr case =
  try
    match case with
    | Ta s | Pr s ->
      let net = Ta_gen.build s in
      let _, pack = Discrete.Digital.codec net in
      Engine.Codec.to_hex (pack (Discrete.Digital.initial net))
    | Md s | Sm s ->
      let m = Mdp_gen.build s in
      let cspec =
        Engine.Codec.spec
          [ Engine.Codec.Loc { name = "state"; count = Mdp.n_states m } ]
      in
      Engine.Codec.to_hex (Engine.Codec.encode cspec (fun _ -> 0))
    | Bi s ->
      let sys = Bip_gen.build s in
      let _, pack = Bip.Engine.codec sys in
      Engine.Codec.to_hex (pack (Bip.Engine.initial sys))
  with _ -> "unavailable"
