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

(* Broadcast with maximal progress: the trigger takes every enabled
   synchron along. *)
let test_broadcast_maximal () =
  let mk name =
    let b = Component.create name in
    let a = Component.add_location b "A" in
    let d = Component.add_location b "Done" in
    let p = Component.add_port b "p" in
    Component.set_initial b a;
    Component.add_transition b ~src:a ~dst:d ~port:p ();
    (Component.build b, p)
  in
  let t, pt = mk "Trig" in
  let s1, ps1 = mk "S1" in
  let s2, ps2 = mk "S2" in
  let sys =
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
  in
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

let test_priority () =
  let c1, p1 = toggler "P" in
  let c2, p2 = toggler "Q" in
  let sys =
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
  in
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
  let mk () =
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
  in
  let sys = mk () in
  let compiled = Transform.compile_priorities sys in
  check "no priorities left" true (compiled.System.priorities = []);
  check "reachable states agree" true (same_reachable sys compiled);
  let trace s = List.map fst (Engine.run s Engine.First ~steps:6) in
  check "deterministic traces agree" true (trace sys = trace compiled)

let test_priority_compilation_broadcast () =
  (* Maximal progress folds into guards the same way. *)
  let mk name =
    let b = Component.create name in
    let a = Component.add_location b "A" in
    let d = Component.add_location b "Done" in
    let p = Component.add_port b "p" in
    Component.set_initial b a;
    Component.add_transition b ~src:a ~dst:d ~port:p ();
    Component.add_transition b ~src:d ~dst:a ~port:p ();
    (Component.build b, p)
  in
  let t, pt = mk "Trig" in
  let s1, ps1 = mk "S1" in
  let sys =
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
  in
  let compiled = Transform.compile_priorities sys in
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
        ] );
    ]
