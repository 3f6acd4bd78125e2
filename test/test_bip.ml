(* Tests for the BIP layer: components, connectors (rendezvous +
   broadcast with maximal progress), priorities, the engine, D-Finder's
   compositional deadlock proof, code generation, and the DALA rover
   case study with fault injection (Section IV). *)

module Component = Bip.Component
module System = Bip.System
module Engine = Bip.Engine
module Dfinder = Bip.Dfinder
module Codegen = Bip.Codegen
module Dala = Bip.Dala

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* A two-state toggler offering [go]. *)
let toggler ?(guarded = false) name =
  let b = Component.create name in
  let a = Component.add_location b "A" in
  let c = Component.add_location b "B" in
  let p = Component.add_port b "go" in
  let v = Component.add_var b "count" in
  Component.set_initial b a;
  let guard = if guarded then Some (fun s -> s.(v) < 2) else None in
  Component.add_transition b ~src:a ~dst:c ~port:p ?guard
    ~update:(fun s -> s.(v) <- min (s.(v) + 1) 3)
    ();
  Component.add_transition b ~src:c ~dst:a ~port:p ();
  (Component.build b, p)

let test_component_basics () =
  let c, p = toggler "T" in
  check "port enabled initially" true
    (Component.port_enabled c ~loc:0 ~store:[| 0 |] p.Component.port_id);
  let cg, pg = toggler ~guarded:true "TG" in
  check "guard blocks" false
    (Component.port_enabled cg ~loc:0 ~store:[| 5 |] pg.Component.port_id);
  check "guard allows" true
    (Component.port_enabled cg ~loc:0 ~store:[| 1 |] pg.Component.port_id)

(* Rendezvous: two togglers locked together. *)
let rendezvous_pair () =
  let c1, p1 = toggler "P" in
  let c2, p2 = toggler "Q" in
  System.make
    ~components:[| c1; c2 |]
    ~connectors:
      [
        System.Rendezvous
          {
            c_name = "sync";
            members = [ (0, p1); (1, p2) ];
            guard = None;
            action = None;
          };
      ]
    ()

let test_rendezvous () =
  let sys = rendezvous_pair () in
  let r = Engine.reachable sys in
  (* Lockstep: components are always in equal locations -> 2 loc combos;
     counters equal and bounded? counters grow unboundedly... they do!
     count increments on every A->B. So cap exploration. *)
  ignore r;
  let trace = Engine.run sys Engine.First ~steps:4 in
  check_int "four steps" 4 (List.length trace);
  List.iter
    (fun (_, st) ->
      check "lockstep" true (st.Engine.locs.(0) = st.Engine.locs.(1)))
    trace

(* The same pair with Q guarded: after two full toggles Q's guard
   (count < 2) blocks the rendezvous for both -> deadlock. *)
let guarded_rendezvous () =
  let c1, p1 = toggler "P" in
  let c2, p2 = toggler ~guarded:true "Q" in
  System.make
    ~components:[| c1; c2 |]
    ~connectors:
      [
        System.Rendezvous
          {
            c_name = "sync";
            members = [ (0, p1); (1, p2) ];
            guard = None;
            action = None;
          };
      ]
    ()

let test_rendezvous_blocks () =
  (* One side guarded off: the interaction is disabled for both. *)
  let sys = guarded_rendezvous () in
  let free, witness = Engine.deadlock_free sys in
  check "guarded rendezvous deadlocks" false free;
  check "witness produced" true (witness <> None)

(* A one-port component A -p-> Done, and back to A when [cycle]. *)
let one_shot ?(cycle = false) name =
  let b = Component.create name in
  let a = Component.add_location b "A" in
  let d = Component.add_location b "Done" in
  let p = Component.add_port b "p" in
  Component.set_initial b a;
  Component.add_transition b ~src:a ~dst:d ~port:p ();
  if cycle then Component.add_transition b ~src:d ~dst:a ~port:p ();
  (Component.build b, p)

(* A trigger broadcasting to two synchrons. *)
let broadcast_trio () =
  let t, pt = one_shot "Trig" in
  let s1, ps1 = one_shot "S1" in
  let s2, ps2 = one_shot "S2" in
  System.make
    ~components:[| t; s1; s2 |]
    ~connectors:
      [
        System.Broadcast
          {
            c_name = "bcast";
            trigger = (0, pt);
            synchrons = [ (1, ps1); (2, ps2) ];
            action = None;
          };
      ]
    ()

(* Broadcast with maximal progress: the trigger takes every enabled
   synchron along. *)
let test_broadcast_maximal () =
  let sys = broadcast_trio () in
  (* 4 interactions generated: trigger alone, +S1, +S2, +S1+S2. *)
  check_int "subset interactions" 4 (Array.length sys.System.interactions);
  let st = Engine.initial sys in
  let f = Engine.filtered sys st in
  check_int "only maximal fires" 1 (List.length f);
  (match f with
   | [ i ] -> check_int "all three participate" 3 (List.length i.System.i_ports)
   | _ -> Alcotest.fail "expected one interaction");
  (* Fire it: everyone moves. *)
  match Engine.step sys Engine.First st with
  | Some (_, st') ->
    check "all moved" true (Array.for_all (fun l -> l = 1) st'.Engine.locs)
  | None -> Alcotest.fail "broadcast did not fire"

(* Two independent togglers; [a] yields to [b]. *)
let priority_pair () =
  let c1, p1 = toggler "P" in
  let c2, p2 = toggler "Q" in
  System.make
    ~components:[| c1; c2 |]
    ~connectors:
      [
        System.Rendezvous
          { c_name = "a"; members = [ (0, p1) ]; guard = None; action = None };
        System.Rendezvous
          { c_name = "b"; members = [ (1, p2) ]; guard = None; action = None };
      ]
    ~priorities:[ { System.low = "a"; high = "b"; when_ = None } ]
    ()

let test_priority () =
  let sys = priority_pair () in
  let st = Engine.initial sys in
  check_int "both enabled" 2 (List.length (Engine.enabled sys st));
  match Engine.filtered sys st with
  | [ i ] -> check "b wins" true (String.equal i.System.i_name "b")
  | _ -> Alcotest.fail "priority did not filter"

(* ------------------------------------------------------------------ *)
(* D-Finder                                                            *)
(* ------------------------------------------------------------------ *)

(* A two-process token ring: always one token -> deadlock-free, and the
   trap analysis proves it compositionally. *)
let token_ring () =
  let mk name has_token =
    let b = Component.create name in
    let with_t = Component.add_location b "Token" in
    let without = Component.add_location b "NoToken" in
    let give = Component.add_port b "give" in
    let take = Component.add_port b "take" in
    Component.set_initial b (if has_token then with_t else without);
    Component.add_transition b ~src:with_t ~dst:without ~port:give ();
    Component.add_transition b ~src:without ~dst:with_t ~port:take ();
    (Component.build b, give, take)
  in
  let c1, g1, t1 = mk "R1" true in
  let c2, g2, t2 = mk "R2" false in
  System.make
    ~components:[| c1; c2 |]
    ~connectors:
      [
        System.Rendezvous
          { c_name = "pass12"; members = [ (0, g1); (1, t2) ]; guard = None; action = None };
        System.Rendezvous
          { c_name = "pass21"; members = [ (1, g2); (0, t1) ]; guard = None; action = None };
      ]
    ()

let test_dfinder_proves_ring () =
  let sys = token_ring () in
  let report = Dfinder.prove sys in
  check "compositional proof" true (report.Dfinder.verdict = Dfinder.Proved);
  check "traps found" true (report.Dfinder.n_traps >= 1);
  (* Exact agrees. *)
  check "exact agrees" true (fst (Engine.deadlock_free sys))

let test_dfinder_fallback () =
  (* The guarded rendezvous system really deadlocks: compositional is
     inconclusive (guards ignored), the combined check lands on false. *)
  let sys = guarded_rendezvous () in
  let free, used_fallback = Dfinder.check sys in
  check "deadlock found" false free;
  check "needed the exact fallback" true used_fallback

(* ------------------------------------------------------------------ *)
(* Code generation                                                     *)
(* ------------------------------------------------------------------ *)

let test_codegen () =
  let sys = token_ring () in
  let src = Codegen.to_ocaml ~module_comment:"token ring" sys in
  check "mentions interactions" true
    (Astring.String.is_infix ~affix:"pass12" src
     && Astring.String.is_infix ~affix:"pass21" src);
  check_int "interaction table size" 2 (Codegen.interaction_count_in_source src);
  check "has engine loop" true (Astring.String.is_infix ~affix:"let run steps" src)

let test_codegen_compiles () =
  (* Best effort: compile the generated module when a compiler is
     available in the environment. *)
  let sys = token_ring () in
  let src = Codegen.to_ocaml sys in
  let dir = Filename.temp_file "bipgen" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  let file = Filename.concat dir "bip_generated.ml" in
  let oc = open_out file in
  output_string oc src;
  close_out oc;
  let cmd =
    Printf.sprintf "cd %s && ocamlfind ocamlc -package unix bip_generated.ml 2>/dev/null"
      (Filename.quote dir)
  in
  match Sys.command cmd with
  | 0 -> ()
  | _ -> (
      (* Fall back to plain ocamlc; skip silently if unavailable. *)
      let cmd2 =
        Printf.sprintf "cd %s && ocamlc bip_generated.ml 2>&1" (Filename.quote dir)
      in
      match Sys.command cmd2 with
      | 0 -> ()
      | _ -> Alcotest.fail "generated code does not compile")


let test_codegen_dala_scale () =
  let d = Dala.make ~controlled:true () in
  let src = Codegen.to_ocaml d.Dala.sys in
  check "all DALA interactions in the table" true
    (Codegen.interaction_count_in_source src
     = Array.length d.Dala.sys.System.interactions);
  check "substantial module" true
    (List.length (String.split_on_char '\n' src) > 150)

let test_engine_first_deterministic () =
  let d = Dala.make ~modules:[ "RFLEX"; "NDD"; "POM" ] ~controlled:true () in
  let t1 = List.map fst (Engine.run d.Dala.sys Engine.First ~steps:30) in
  let t2 = List.map fst (Engine.run d.Dala.sys Engine.First ~steps:30) in
  check "First scheduler is deterministic" true (t1 = t2);
  check "trace is nonempty" true (t1 <> [])

(* ------------------------------------------------------------------ *)
(* DALA                                                                *)
(* ------------------------------------------------------------------ *)

let small_modules = [ "RFLEX"; "NDD"; "POM"; "Battery"; "Science" ]

let test_dala_controlled_safe () =
  let d = Dala.make ~modules:small_modules ~controlled:true () in
  let ok, witness = Engine.invariant_holds d.Dala.sys (Dala.safety_ok d) in
  check "safety invariant holds" true ok;
  check "no witness" true (witness = None)

let test_dala_uncontrolled_unsafe () =
  let d = Dala.make ~modules:small_modules ~controlled:false () in
  let ok, witness = Engine.invariant_holds d.Dala.sys (Dala.safety_ok d) in
  check "baseline violates safety" false ok;
  check "witness produced" true (witness <> None)

let test_dala_deadlock_free () =
  let d = Dala.make ~modules:small_modules ~controlled:true () in
  let report = Dfinder.prove d.Dala.sys in
  check "D-Finder proves DALA deadlock-free" true
    (report.Dfinder.verdict = Dfinder.Proved)

let test_dala_fault_injection () =
  let controlled = Dala.make ~controlled:true () in
  let r = Dala.inject_faults controlled ~runs:20 ~steps:200 ~seed:7 in
  check "faults were injected" true (r.Dala.faults_injected > 0);
  check_int "controller prevents violations" 0 r.Dala.violations;
  let baseline = Dala.make ~controlled:false () in
  let r0 = Dala.inject_faults baseline ~runs:20 ~steps:200 ~seed:7 in
  check "baseline violates" true (r0.Dala.violations > 0)

let test_dala_full_run () =
  let d = Dala.make ~controlled:true () in
  let trace = Engine.run d.Dala.sys (Engine.Random (Random.State.make [| 3 |])) ~steps:500 in
  check_int "engine sustains 500 steps" 500 (List.length trace);
  List.iter (fun (_, st) -> check "safe along run" true (Dala.safety_ok d st)) trace

(* ------------------------------------------------------------------ *)
(* Golden exact reachability                                           *)
(* ------------------------------------------------------------------ *)

let state_string sys st = Format.asprintf "%a" (Engine.pp_state sys) st

(* Order-sensitive fingerprint of a state list (locations and stores). *)
let states_digest sys states =
  Digest.to_hex
    (Digest.string (String.concat "\n" (List.map (state_string sys) states)))

let test_golden_dala5 () =
  let d = Dala.make ~modules:small_modules ~controlled:true () in
  let r = Engine.reachable d.Dala.sys in
  check "complete" false r.Engine.truncated;
  check_int "states" 771 (List.length r.Engine.states);
  check_int "deadlocks" 0 (List.length r.Engine.deadlocks);
  Alcotest.(check string) "state order" "4fae773fb6e1a7c021286f7b1e480b77"
    (states_digest d.Dala.sys r.Engine.states)

let test_golden_deadlocks () =
  let sys = guarded_rendezvous () in
  let r = Engine.reachable sys in
  check "complete" false r.Engine.truncated;
  Alcotest.(check (list string)) "states in order"
    [
      "P.A{count=0} Q.A{count=0}"; "P.B{count=1} Q.B{count=1}";
      "P.A{count=1} Q.A{count=1}"; "P.B{count=2} Q.B{count=2}";
      "P.A{count=2} Q.A{count=2}";
    ]
    (List.map (state_string sys) r.Engine.states);
  Alcotest.(check (list string)) "deadlocks in order"
    [ "P.A{count=2} Q.A{count=2}" ]
    (List.map (state_string sys) r.Engine.deadlocks)

(* Successor count of [st]: one per enabled interaction and combination
   of its participants' transitions. *)
let fanout (sys : System.t) (st : Engine.state) =
  List.fold_left
    (fun acc (i : System.interaction) ->
      acc
      + List.fold_left
          (fun n (ci, (p : Component.port)) ->
            n
            * List.length
                (Component.transitions_on sys.System.components.(ci)
                   ~loc:st.Engine.locs.(ci) ~store:st.Engine.stores.(ci)
                   p.Component.port_id))
          1 i.System.i_ports)
    0 (Engine.filtered sys st)

(* The truncation contract: a run capped at [k] states stops once more
   than [k] are admitted, so it overshoots by at most one state's
   fanout, keeps the untruncated discovery order, and reports deadlocks
   only from the states it expanded. *)
let test_truncation_contract () =
  let d = Dala.make ~modules:small_modules ~controlled:true () in
  let sys = d.Dala.sys in
  let full = Engine.reachable sys in
  let max_fanout =
    List.fold_left (fun m st -> max m (fanout sys st)) 0 full.Engine.states
  in
  let k = 100 in
  let r = Engine.reachable ~max_states:k sys in
  let n = List.length r.Engine.states in
  check "truncated" true r.Engine.truncated;
  check "more than k states" true (n > k);
  check "at most one fanout past k" true (n <= k + max_fanout);
  check "untruncated discovery order" true
    (r.Engine.states = List.filteri (fun i _ -> i < n) full.Engine.states);
  (* The guarded pair is a five-state chain ending in its deadlock. At
     k = 4 the deadlock is admitted but never expanded; at k = 5 the run
     completes. *)
  let sys = guarded_rendezvous () in
  let r4 = Engine.reachable ~max_states:4 sys in
  check "k = 4 truncated" true r4.Engine.truncated;
  check_int "k = 4 admits the whole chain" 5 (List.length r4.Engine.states);
  check_int "unexpanded deadlock not reported" 0
    (List.length r4.Engine.deadlocks);
  let r5 = Engine.reachable ~max_states:5 sys in
  check "k = 5 complete" false r5.Engine.truncated;
  check_int "k = 5 deadlock reported" 1 (List.length r5.Engine.deadlocks)


(* ------------------------------------------------------------------ *)
(* Priority compilation (source-to-source transformation)              *)
(* ------------------------------------------------------------------ *)

module Transform = Bip.Transform

let states_set r =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun (st : Engine.state) ->
      Hashtbl.replace tbl (st.Engine.locs, st.Engine.stores) ())
    r.Engine.states;
  tbl

let same_reachable a b =
  let sa = states_set (Engine.reachable a) in
  let sb = states_set (Engine.reachable b) in
  Hashtbl.length sa = Hashtbl.length sb
  && Hashtbl.fold (fun k () acc -> acc && Hashtbl.mem sb k) sa true

let test_priority_compilation_equiv () =
  (* Priority example: after the transformation (no priority layer) the
     reachable states and deterministic traces coincide. *)
  let sys = priority_pair () in
  let compiled = Transform.compile_priorities sys in
  check "no priorities left" true (compiled.System.priorities = []);
  check "reachable states agree" true (same_reachable sys compiled);
  let trace s = List.map fst (Engine.run s Engine.First ~steps:6) in
  check "deterministic traces agree" true (trace sys = trace compiled)

(* A cycling trigger broadcasting to one cycling synchron. *)
let broadcast_pair () =
  let t, pt = one_shot ~cycle:true "Trig" in
  let s1, ps1 = one_shot ~cycle:true "S1" in
  System.make
    ~components:[| t; s1 |]
    ~connectors:
      [
        System.Broadcast
          {
            c_name = "bc";
            trigger = (0, pt);
            synchrons = [ (1, ps1) ];
            action = None;
          };
      ]
    ()

let test_priority_compilation_broadcast () =
  (* Maximal progress folds into guards the same way. *)
  let sys = broadcast_pair () in
  let compiled = Transform.compile_priorities sys in
  check "maximality compiled into guards" true
    (Array.exists (fun row -> row <> [||]) sys.System.wider
     && Array.for_all (fun row -> row = [||]) compiled.System.wider);
  check "reachable states agree (broadcast)" true (same_reachable sys compiled);
  (* In the initial state only the maximal interaction fires in both. *)
  let names s = List.map (fun (i : System.interaction) -> i.System.i_name)
      (Engine.filtered s (Engine.initial s)) in
  check "filtered sets agree" true (names sys = names compiled)

let test_priority_compilation_dala () =
  let d = Dala.make ~modules:[ "RFLEX"; "NDD"; "POM" ] ~controlled:true () in
  let compiled = Transform.compile_priorities d.Dala.sys in
  check "DALA subset equivalent after compilation" true
    (same_reachable d.Dala.sys compiled)

(* ------------------------------------------------------------------ *)
(* Engine reference: maximal progress, golden runs                     *)
(* ------------------------------------------------------------------ *)

(* The engine's first filter, kept as the reference: enabledness from
   each participant's full list of enabled transitions, priority rules
   by name, and maximal progress recomputed for every pair of enabled
   interactions from their sorted port lists. Returns the kept names
   and whether maximal progress inhibited an enabled interaction. *)
let reference_filtered (sys : System.t) (st : Engine.state) =
  let locs = st.Engine.locs and stores = st.Engine.stores in
  let enabled (i : System.interaction) =
    List.for_all
      (fun (ci, (p : Component.port)) ->
        Component.transitions_on sys.System.components.(ci) ~loc:locs.(ci)
          ~store:stores.(ci) p.Component.port_id
        <> [])
      i.System.i_ports
    && match i.System.i_guard with None -> true | Some g -> g locs stores
  in
  let en = List.filter enabled (Array.to_list sys.System.interactions) in
  let port_set (i : System.interaction) =
    List.map
      (fun (ci, (p : Component.port)) -> (ci, p.Component.port_id))
      i.System.i_ports
    |> List.sort compare
  in
  let by_priority (a : System.interaction) =
    List.exists
      (fun (r : System.priority) ->
        String.equal r.System.low a.System.i_name
        && (match r.System.when_ with None -> true | Some c -> c locs stores)
        && List.exists
             (fun (b : System.interaction) ->
               String.equal b.System.i_name r.System.high)
             en)
      sys.System.priorities
  in
  let by_maximality (a : System.interaction) =
    let pa = port_set a in
    List.exists
      (fun (b : System.interaction) ->
        b.System.i_id <> a.System.i_id
        &&
        let pb = port_set b in
        List.length pb > List.length pa && List.for_all (fun p -> List.mem p pb) pa)
      en
  in
  let kept =
    List.filter (fun a -> not (by_priority a || by_maximality a)) en
  in
  (List.map (fun (i : System.interaction) -> i.System.i_name) kept,
   List.exists by_maximality en)

(* [Engine.filtered] against the reference on every reachable state;
   returns the state count and how many states had an interaction
   inhibited by maximal progress. *)
let filter_agrees sys =
  let r = Engine.reachable sys in
  check "exploration complete" false r.Engine.truncated;
  let inhibited =
    List.fold_left
      (fun n st ->
        let names, maximal = reference_filtered sys st in
        Alcotest.(check (list string))
          (state_string sys st) names
          (List.map
             (fun (i : System.interaction) -> i.System.i_name)
             (Engine.filtered sys st));
        if maximal then n + 1 else n)
      0 r.Engine.states
  in
  (List.length r.Engine.states, inhibited)

let test_filter_reference_dala5 () =
  let agree controlled =
    filter_agrees (Dala.make ~modules:small_modules ~controlled ()).Dala.sys
  in
  let states, inhibited = agree true in
  check_int "controlled states" 771 states;
  check_int "controlled states with maximal progress" 739 inhibited;
  let states, inhibited = agree false in
  check_int "uncontrolled states" 1024 states;
  check_int "uncontrolled states with maximal progress" 0 inhibited

let test_filter_reference_small () =
  List.iter
    (fun (name, sys, states, inhibited) ->
      let s, i = filter_agrees sys in
      check_int (name ^ " states") states s;
      check_int (name ^ " states with maximal progress") inhibited i)
    [
      ("broadcast trio", broadcast_trio (), 2, 1);
      ("broadcast pair", broadcast_pair (), 2, 2);
      ("priority pair", priority_pair (), 7, 0);
      ("token ring", token_ring (), 2, 0);
      ("guarded rendezvous", guarded_rendezvous (), 5, 0);
    ]

let test_filter_reference_generated () =
  let inhibited = ref 0 in
  for i = 0 to 199 do
    let spec = Gen.Bip_gen.generate Gen.Rng.(child (child (make 20) 1) i) in
    inhibited := !inhibited + snd (filter_agrees (Gen.Bip_gen.build spec))
  done;
  check "some generated state has maximal progress" true (!inhibited > 0)

(* The E5 fault-injection rows and [quantcli bip] at its default seed. *)
let test_golden_fault_injection () =
  let row ~controlled ~runs ~steps ~seed =
    let r = Dala.inject_faults (Dala.make ~controlled ()) ~runs ~steps ~seed in
    (r.Dala.faults_injected, r.Dala.violations)
  in
  let pair = Alcotest.(pair int int) in
  Alcotest.check pair "E5 with R2C" (4185, 0)
    (row ~controlled:true ~runs:50 ~steps:300 ~seed:11);
  Alcotest.check pair "E5 without R2C" (4029, 4367)
    (row ~controlled:false ~runs:50 ~steps:300 ~seed:11);
  Alcotest.check pair "quantcli bip" (1114, 0)
    (row ~controlled:true ~runs:20 ~steps:200 ~seed:42)

(* The interactions fired by the E5 campaign's runs, one per line. *)
let test_golden_interaction_names () =
  let d = Dala.make ~controlled:true () in
  let b = Buffer.create 300_000 in
  for k = 1 to 50 do
    let rng = Random.State.make [| 11; k |] in
    List.iter
      (fun (name, _) ->
        Buffer.add_string b name;
        Buffer.add_char b '\n')
      (Engine.run d.Dala.sys (Engine.Random rng) ~steps:300)
  done;
  check_int "bytes" 274_828 (Buffer.length b);
  Alcotest.(check string) "md5" "b44c8a6b97b72e82484accddd532c9f7"
    (Digest.to_hex (Digest.string (Buffer.contents b)))

(* ------------------------------------------------------------------ *)
(* D-Finder reference                                                  *)
(* ------------------------------------------------------------------ *)

(* D-Finder as first written, kept as the reference: the same net,
   traps and semiflows, and a candidate check that rebuilds every
   invariant's value from the location vector. *)
module Dfinder_reference = struct
  type net = {
    offsets : int array;
    n_places : int;
    transitions : (int list * int list) list;
  }

  let place net ci loc = net.offsets.(ci) + loc

  let build_net (sys : System.t) =
    let n = Array.length sys.System.components in
    let offsets = Array.make n 0 in
    let total = ref 0 in
    Array.iteri
      (fun ci (c : Component.t) ->
        offsets.(ci) <- !total;
        total := !total + Array.length c.Component.locations)
      sys.System.components;
    let net = { offsets; n_places = !total; transitions = [] } in
    let transitions = ref [] in
    Array.iter
      (fun (i : System.interaction) ->
        let rec combos acc = function
          | [] -> [ List.rev acc ]
          | (ci, (p : Component.port)) :: rest ->
            let c = sys.System.components.(ci) in
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
      sys.System.interactions;
    { net with transitions = !transitions }

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
      if g > 1 then (Array.map (fun v -> v / g) c, Array.map (fun v -> v / g) y)
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

  let surely_enabled (sys : System.t) locs (i : System.interaction) =
    i.System.i_guard = None
    && List.for_all
         (fun (ci, (p : Component.port)) ->
           List.exists
             (fun (t : Component.transition) ->
               t.Component.t_port = p.Component.port_id
               && not t.Component.t_has_guard)
             sys.System.components.(ci).Component.transitions.(locs.(ci)))
         i.System.i_ports

  let prove ?(max_candidates = 1_000_000) (sys : System.t) =
    let net = build_net sys in
    let init_places =
      Array.to_list
        (Array.mapi
           (fun ci (c : Component.t) -> place net ci c.Component.initial_loc)
           sys.System.components)
    in
    let traps =
      List.sort_uniq compare
        (List.map (fun p -> trap_closure net [ p ]) init_places)
    in
    let flows = semiflows net ~max_rows:5000 in
    let init_value y = List.fold_left (fun acc p -> acc + y.(p)) 0 init_places in
    let flow_consts = List.map (fun y -> (y, init_value y)) flows in
    let locals = Array.map local_reach sys.System.components in
    let n = Array.length sys.System.components in
    let survivors = ref [] in
    let checked = ref 0 in
    let exception Too_many in
    let vec = Array.make n 0 in
    let report verdict =
      {
        Dfinder.verdict;
        n_traps = List.length traps;
        n_semiflows = List.length flows;
        n_candidates_checked = !checked;
      }
    in
    try
      let rec enum ci =
        if ci = n then begin
          incr checked;
          if !checked > max_candidates then raise Too_many;
          let locs = Array.copy vec in
          let trap_ok trap =
            Array.exists
              (fun ci' -> trap.(place net ci' locs.(ci')))
              (Array.init n Fun.id)
          in
          let flow_ok (y, v0) =
            let v =
              Array.to_list (Array.mapi (fun ci' l -> y.(place net ci' l)) locs)
              |> List.fold_left ( + ) 0
            in
            v = v0
          in
          if
            List.for_all trap_ok traps
            && List.for_all flow_ok flow_consts
            && not (Array.exists (surely_enabled sys locs) sys.System.interactions)
          then survivors := locs :: !survivors
        end
        else
          Array.iteri
            (fun l ok ->
              if ok then begin
                vec.(ci) <- l;
                enum (ci + 1)
              end)
            locals.(ci)
      in
      enum 0;
      report
        (match !survivors with
         | [] -> Dfinder.Proved
         | s -> Dfinder.Inconclusive (List.rev s))
    with Too_many -> report (Dfinder.Inconclusive [])
end

let verdict_lines = function
  | Dfinder.Proved -> [ "proved" ]
  | Dfinder.Inconclusive vs ->
    "inconclusive"
    :: List.map
         (fun v -> String.concat "," (Array.to_list (Array.map string_of_int v)))
         vs

(* [Dfinder.prove] against the reference, whole report; returns it. *)
let same_report ?max_candidates name sys =
  let want = Dfinder_reference.prove ?max_candidates sys in
  let got = Dfinder.prove ?max_candidates sys in
  Alcotest.(check (list string))
    (name ^ ": verdict and survivors")
    (verdict_lines want.Dfinder.verdict)
    (verdict_lines got.Dfinder.verdict);
  check_int (name ^ ": traps") want.Dfinder.n_traps got.Dfinder.n_traps;
  check_int (name ^ ": semiflows") want.Dfinder.n_semiflows
    got.Dfinder.n_semiflows;
  check_int (name ^ ": candidates") want.Dfinder.n_candidates_checked
    got.Dfinder.n_candidates_checked;
  got

let check_dala_report name (r : Dfinder.report) ~traps ~semiflows =
  check (name ^ ": proved") true (r.Dfinder.verdict = Dfinder.Proved);
  check_int (name ^ ": traps") traps r.Dfinder.n_traps;
  check_int (name ^ ": semiflows") semiflows r.Dfinder.n_semiflows;
  check_int (name ^ ": candidates") 262_144 r.Dfinder.n_candidates_checked

let test_dfinder_reference_dala_controlled () =
  let sys = (Dala.make ~controlled:true ()).Dala.sys in
  check_dala_report "controlled" (same_report "controlled" sys) ~traps:10
    ~semiflows:12

let test_dfinder_reference_dala_uncontrolled () =
  let sys = (Dala.make ~controlled:false ()).Dala.sys in
  check_dala_report "uncontrolled" (same_report "uncontrolled" sys) ~traps:9
    ~semiflows:9

let test_dfinder_reference_small () =
  let cut =
    same_report ~max_candidates:1000 "controlled, cut"
      (Dala.make ~controlled:true ()).Dala.sys
  in
  check "cut is inconclusive without survivors" true
    (cut.Dfinder.verdict = Dfinder.Inconclusive []);
  check_int "cut counts one past the bound" 1001
    cut.Dfinder.n_candidates_checked;
  ignore (same_report "token ring" (token_ring ()));
  ignore (same_report "guarded rendezvous" (guarded_rendezvous ()))

let test_dfinder_reference_generated () =
  let with_survivors = ref 0 and cut = ref 0 in
  for i = 0 to 1199 do
    let spec = Gen.Bip_gen.generate Gen.Rng.(child (child (make 20) 2) i) in
    let sys = Gen.Bip_gen.build spec in
    let name = Printf.sprintf "generated %d" i in
    (match (same_report name sys).Dfinder.verdict with
     | Dfinder.Inconclusive (_ :: _) -> incr with_survivors
     | _ -> ());
    match (same_report ~max_candidates:3 (name ^ ", cut at 3") sys).Dfinder.verdict with
    | Dfinder.Inconclusive [] -> incr cut
    | _ -> ()
  done;
  check "some generated system keeps survivors" true (!with_survivors > 0);
  check "some generated system hits the cut" true (!cut > 0)

(* ------------------------------------------------------------------ *)
(* Spans                                                               *)
(* ------------------------------------------------------------------ *)

let test_spans () =
  Obs.reset ();
  let sys = token_ring () in
  ignore (Dfinder.prove sys);
  ignore (Engine.run sys Engine.First ~steps:3);
  let names = List.map fst (Obs.Flight.span_totals ()) in
  check "bip.dfinder timed" true (List.mem "bip.dfinder" names);
  check "bip.run timed" true (List.mem "bip.run" names)

let () =
  Alcotest.run "bip"
    [
      ( "components",
        [ Alcotest.test_case "basics" `Quick test_component_basics ] );
      ( "glue",
        [
          Alcotest.test_case "rendezvous" `Quick test_rendezvous;
          Alcotest.test_case "rendezvous blocks" `Quick test_rendezvous_blocks;
          Alcotest.test_case "broadcast maximal" `Quick test_broadcast_maximal;
          Alcotest.test_case "priority" `Quick test_priority;
        ] );
      ( "dfinder",
        [
          Alcotest.test_case "proves ring" `Quick test_dfinder_proves_ring;
          Alcotest.test_case "fallback" `Quick test_dfinder_fallback;
        ] );
      ( "codegen",
        [
          Alcotest.test_case "structure" `Quick test_codegen;
          Alcotest.test_case "compiles" `Slow test_codegen_compiles;
          Alcotest.test_case "dala scale" `Quick test_codegen_dala_scale;
          Alcotest.test_case "first deterministic" `Quick
            test_engine_first_deterministic;
        ] );
      ( "transform",
        [
          Alcotest.test_case "priority compilation" `Quick
            test_priority_compilation_equiv;
          Alcotest.test_case "broadcast compilation" `Quick
            test_priority_compilation_broadcast;
          Alcotest.test_case "dala compilation" `Quick
            test_priority_compilation_dala;
        ] );
      ( "dala",
        [
          Alcotest.test_case "controlled safe" `Slow test_dala_controlled_safe;
          Alcotest.test_case "uncontrolled unsafe" `Quick test_dala_uncontrolled_unsafe;
          Alcotest.test_case "deadlock-free" `Quick test_dala_deadlock_free;
          Alcotest.test_case "fault injection" `Slow test_dala_fault_injection;
          Alcotest.test_case "long run" `Slow test_dala_full_run;
        ] );
      ( "golden",
        [
          Alcotest.test_case "dala-5 reachable" `Quick test_golden_dala5;
          Alcotest.test_case "guarded rendezvous deadlocks" `Quick
            test_golden_deadlocks;
          Alcotest.test_case "truncation contract" `Quick
            test_truncation_contract;
          Alcotest.test_case "fault injection rows" `Quick
            test_golden_fault_injection;
          Alcotest.test_case "interaction names md5" `Quick
            test_golden_interaction_names;
        ] );
      ( "reference",
        [
          Alcotest.test_case "filter: dala-5" `Quick test_filter_reference_dala5;
          Alcotest.test_case "filter: small systems" `Quick
            test_filter_reference_small;
          Alcotest.test_case "filter: generated" `Quick
            test_filter_reference_generated;
          Alcotest.test_case "dfinder: dala controlled" `Slow
            test_dfinder_reference_dala_controlled;
          Alcotest.test_case "dfinder: dala uncontrolled" `Slow
            test_dfinder_reference_dala_uncontrolled;
          Alcotest.test_case "dfinder: small systems" `Quick
            test_dfinder_reference_small;
          Alcotest.test_case "dfinder: generated" `Quick
            test_dfinder_reference_generated;
        ] );
      ("spans", [ Alcotest.test_case "prove and run" `Quick test_spans ]);
    ]
