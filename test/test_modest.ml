(* Tests for the MODEST layer: STA construction and classification, the
   parser (Fig. 5 compiles verbatim), the three backends cross-validated
   against each other and closed-form values, and the BRP Table I
   reproduction. *)

module Sta = Modest.Sta
module Ast = Modest.Ast
module Parser = Modest.Parser
module Mprop = Modest.Mprop
module Mctau = Modest.Mctau
module Mcpta = Modest.Mcpta
module Modes = Modest.Modes
module Brp = Modest.Brp
module Lexer = Modest.Lexer
module Model = Ta.Model
module Expr = Ta.Expr
module Store = Ta.Store

let check = Alcotest.(check bool)

let close ?(tol = 1e-9) a b = abs_float (a -. b) <= tol

(* ------------------------------------------------------------------ *)
(* STA builder & classification                                        *)
(* ------------------------------------------------------------------ *)

(* A one-shot lossy sender: s --send--> (0.7 done | 0.3 lost). *)
let lossy_sta () =
  let b = Sta.builder () in
  let sb = Sta.store b in
  let got = Store.int_var sb "got" in
  let p = Sta.process b "P" in
  let s0 = Sta.location p "s0" in
  let s_done = Sta.location p "done" in
  let s_lost = Sta.location p "lost" in
  Sta.edge p ~src:s0
    ~branches:
      [
        (7, [ Model.Assign (Expr.Cell got, Expr.Int 1) ], s_done);
        (3, [], s_lost);
      ]
    ();
  Sta.build b

let test_classify () =
  let sta = lossy_sta () in
  check "no clocks -> MDP" true (Sta.classify sta = Sta.Class_mdp);
  let t = Brp.make ~n:2 () in
  check "BRP is a PTA" true (Sta.classify t.Brp.sta = Sta.Class_pta);
  (* Deterministic weights -> TA. *)
  let b = Sta.builder () in
  let x = Sta.fresh_clock b "x" in
  let p = Sta.process b "P" in
  let a = Sta.location p "a" in
  let c = Sta.location p "c" in
  Sta.edge p ~src:a ~clock_guard:[ Model.clock_ge x 1 ]
    ~branches:[ (1, [], c) ] ();
  check "single branches -> TA" true (Sta.classify (Sta.build b) = Sta.Class_ta)

let test_mcpta_simple_prob () =
  let sta = lossy_sta () in
  let p_done = Mprop.P_loc ("P", "done") in
  let v, _ = Mcpta.reach_prob sta p_done ~maximize:true in
  check "P(done) = 0.7" true (close v 0.7);
  (* The minimizing scheduler can idle forever (delay self-loop), so the
     minimum reachability probability is 0 — a classic MDP subtlety. *)
  let v_min, _ = Mcpta.reach_prob sta p_done ~maximize:false in
  check "min scheduler idles" true (close v_min 0.0)

let test_mctau_overapprox () =
  let sta = lossy_sta () in
  let bounds p = fst (Mctau.prob_bounds sta p) in
  check "reachable -> [0,1]" true
    (bounds (Mprop.P_loc ("P", "done")) = `Interval (0.0, 1.0));
  check "unreachable -> zero" true
    (bounds
       (Mprop.P_and
          (Mprop.P_loc ("P", "done"), Mprop.P_loc ("P", "lost")))
     = `Zero);
  check "invariant exact" true
    (fst
       (Mctau.invariant_holds sta
          (Mprop.P_not (Mprop.P_and (Mprop.P_loc ("P", "done"),
                                     Mprop.P_data (Expr.Eq (Expr.var (Store.find sta.Sta.layout "got"), Expr.Int 0)))))))

(* Two sequential coin flips: P(2 heads) = 0.25; checks branch products
   and expected steps. *)
let test_two_flips () =
  let b = Sta.builder () in
  let sb = Sta.store b in
  let heads = Store.int_var sb "heads" in
  let p = Sta.process b "P" in
  let s0 = Sta.location p "s0" in
  let s1 = Sta.location p "s1" in
  let s2 = Sta.location p "s2" in
  let inc = Model.Assign (Expr.Cell heads, Expr.Add (Expr.var heads, Expr.Int 1)) in
  Sta.edge p ~src:s0 ~branches:[ (1, [ inc ], s1); (1, [], s1) ] ();
  Sta.edge p ~src:s1 ~branches:[ (1, [ inc ], s2); (1, [], s2) ] ();
  let sta = Sta.build b in
  let two_heads =
    Mprop.P_and
      (Mprop.P_loc ("P", "s2"), Mprop.P_data (Expr.Eq (Expr.var heads, Expr.Int 2)))
  in
  let v, _ = Mcpta.reach_prob sta two_heads ~maximize:true in
  check "P(HH) = 1/4" true (close v 0.25)

(* ------------------------------------------------------------------ *)
(* Timed PTA: expected time and time-bounded reachability              *)
(* ------------------------------------------------------------------ *)

(* Wait exactly 3, then flip: 0.5 done / 0.5 retry (wait 3 again). The
   expected completion time is 3 * E[geometric(1/2)] = 6. *)
let retry_sta () =
  let b = Sta.builder () in
  let x = Sta.fresh_clock b "x" in
  let p = Sta.process b "P" in
  let s0 = Sta.location p ~invariant:[ Model.clock_le x 3 ] "s0" in
  let s_done = Sta.location p "done" in
  Sta.edge p ~src:s0
    ~clock_guard:[ Model.clock_ge x 3 ]
    ~branches:[ (1, [], s_done); (1, [ Model.Reset (x, 0) ], s0) ]
    ();
  Sta.build b

let test_expected_time () =
  let sta = retry_sta () in
  let v, _ = Mcpta.expected_time sta (Mprop.P_loc ("P", "done")) ~maximize:true in
  check "E[time] = 6" true (close ~tol:1e-6 v 6.0)

let test_time_bounded () =
  let sta = retry_sta () in
  let p_done = Mprop.P_loc ("P", "done") in
  let v3, _ = Mcpta.time_bounded_reach sta p_done ~bound:3 ~maximize:true in
  check "P(done within 3) = 1/2" true (close v3 0.5);
  let v6, _ = Mcpta.time_bounded_reach sta p_done ~bound:6 ~maximize:true in
  check "P(done within 6) = 3/4" true (close v6 0.75);
  let v2, _ = Mcpta.time_bounded_reach sta p_done ~bound:2 ~maximize:true in
  check "P(done within 2) = 0" true (close v2 0.0)

let test_modes_agrees () =
  let sta = retry_sta () in
  let obs =
    Modes.runs sta ~seed:11 ~n:2000 ~horizon:200.0
      ~watch:[| Mprop.P_loc ("P", "done") |]
      ~monitors:[||]
  in
  let times =
    Array.map
      (fun (o : Modes.observation) ->
        match o.Modes.hits.(0) with Some t -> t | None -> nan)
      obs
  in
  check "all runs complete" true (Array.for_all (fun t -> t = t) times);
  let mean, _ = Smc.Estimate.mean_std times in
  check "simulated mean near 6" true (abs_float (mean -. 6.0) < 0.3)

(* ------------------------------------------------------------------ *)
(* Parser: Fig. 5 and friends                                          *)
(* ------------------------------------------------------------------ *)

let fig5_model =
  {|
  const int TD = 1;
  int delivered = 0;

  // Fig. 5 of the paper, verbatim modulo the enclosing test harness.
  process Channel() {
    clock c;
    put palt {
    :98: {= c = 0 =};
         invariant(c <= TD) get
    : 2: {==} // message lost
    }; Channel()
  }

  process Sender() {
    put; Sender()
  }

  process Receiver() {
    get; {= delivered = 1 =}; Receiver()
  }

  par { Sender() || Channel() || Receiver() }
  |}

let test_fig5_parses () =
  let sta = Parser.parse_and_compile fig5_model in
  check "three processes" true (Array.length sta.Sta.processes = 3);
  check "classified PTA" true (Sta.classify sta = Sta.Class_pta);
  (* The channel's palt has branches 98/2. *)
  let chan = sta.Sta.processes.(Sta.proc_index sta "Channel") in
  let palt_edges =
    Array.to_list chan.Sta.p_out |> List.concat
    |> List.filter (fun (e : Sta.edge) -> List.length e.Sta.e_branches = 2)
  in
  check "one probabilistic edge" true (List.length palt_edges = 1)

(* Same channel, but the sender transmits a single message: the delivery
   probability is exactly the channel's 98%. *)
let fig5_once_model =
  {|
  const int TD = 1;
  int delivered = 0;
  process Channel() {
    clock c;
    put palt {
    :98: {= c = 0 =};
         invariant(c <= TD) get
    : 2: {==}
    }; Channel()
  }
  process Sender() { put; stop }
  process Receiver() { get; {= delivered = 1 =}; Receiver() }
  par { Sender() || Channel() || Receiver() }
  |}

let test_fig5_delivery_prob () =
  let sta = Parser.parse_and_compile fig5_model in
  let delivered sta =
    Mprop.P_data
      (Expr.Ge (Expr.var (Store.find sta.Sta.layout "delivered"), Expr.Int 1))
  in
  (* The sender retries forever, so delivery eventually happens a.s. *)
  let v, _ = Mcpta.reach_prob sta (delivered sta) ~maximize:true in
  check "delivery a.s." true (close ~tol:1e-6 v 1.0);
  (* A single-shot sender delivers with the channel's probability. *)
  let sta1 = Parser.parse_and_compile fig5_once_model in
  let v1, _ = Mcpta.reach_prob sta1 (delivered sta1) ~maximize:true in
  check "single-shot delivery = 0.98" true (close ~tol:1e-6 v1 0.98)

let test_parser_errors () =
  (try
     ignore (Parser.parse "process P() { when }");
     Alcotest.fail "expected parse error"
   with Parser.Parse_error _ -> ());
  (try
     ignore (Parser.parse_and_compile "process P() { undeclared_action_with_bad; P() } par { P() } int x = ;");
     Alcotest.fail "expected parse error"
   with Parser.Parse_error _ | Lexer.Lex_error _ -> ());
  try
    ignore (Parser.parse_and_compile "process P() { P() } par { P() }");
    Alcotest.fail "expected compile error (actionless recursion)"
  with Ast.Compile_error _ -> ()

let test_lexer () =
  let toks = Lexer.tokenize "x <= 10 // comment\n {= y = 1 =}" in
  let kinds = List.map fst toks in
  check "lexes" true
    (kinds
     = [
         Lexer.IDENT "x"; Lexer.PUNCT "<="; Lexer.INT 10; Lexer.PUNCT "{=";
         Lexer.IDENT "y"; Lexer.PUNCT "="; Lexer.INT 1; Lexer.PUNCT "=}";
         Lexer.EOF;
       ])

(* ------------------------------------------------------------------ *)
(* BRP / Table I                                                       *)
(* ------------------------------------------------------------------ *)

let test_brp_small_exact () =
  (* N=1, MAX=1: per-attempt failure q = 1 - 0.98*0.99 = 0.0298;
     P1 = q^2 (both attempts fail). *)
  let t = Brp.make ~n:1 ~max_retrans:1 () in
  let q = 1.0 -. (0.98 *. 0.99) in
  let v, _ = Mcpta.reach_prob t.Brp.sta (Brp.p1 t) ~maximize:true in
  check "P1 = q^2" true (close ~tol:1e-9 v (q *. q));
  (* With one chunk a failure is always on the last chunk: P2 = P1. *)
  let v2, _ = Mcpta.reach_prob t.Brp.sta (Brp.p2 t) ~maximize:true in
  check "P2 = P1 for N=1" true (close ~tol:1e-9 v2 (q *. q))

let test_brp_table1_mcpta () =
  let t = Brp.make () in
  let row = Brp.run_mcpta t in
  check "TA1" true row.Brp.mc_ta1;
  check "TA2" true row.Brp.mc_ta2;
  check "PA = 0" true (close row.Brp.mc_pa 0.0);
  check "PB = 0" true (close row.Brp.mc_pb 0.0);
  (* Paper: 4.233e-4, 2.645e-5, 0.9996, 33.473. *)
  check "P1 matches paper" true (close ~tol:2e-6 row.Brp.mc_p1 4.233e-4);
  check "P2 matches paper" true (close ~tol:2e-7 row.Brp.mc_p2 2.645e-5);
  check "Dmax matches paper" true (abs_float (row.Brp.mc_dmax -. 0.9996) < 5e-4);
  check "Emax matches paper" true (abs_float (row.Brp.mc_emax -. 33.473) < 0.1)

let test_brp_table1_mctau () =
  let t = Brp.make () in
  let row = Brp.run_mctau t in
  check "TA1 true" true row.Brp.mt_ta1;
  check "TA2 true" true row.Brp.mt_ta2;
  check "PA zero" true (row.Brp.mt_pa = `Zero);
  check "PB zero" true (row.Brp.mt_pb = `Zero);
  check "P1 unknown" true (row.Brp.mt_p1 = `Interval (0.0, 1.0));
  check "P2 unknown" true (row.Brp.mt_p2 = `Interval (0.0, 1.0));
  check "Dmax unknown" true (row.Brp.mt_dmax = `Interval (0.0, 1.0))

let test_brp_table1_modes () =
  let t = Brp.make () in
  let row = Brp.run_modes ~runs:1000 t in
  check "all runs satisfy TA1" true (row.Brp.md_ta1_ok = row.Brp.md_runs);
  check "all runs satisfy TA2" true (row.Brp.md_ta2_ok = row.Brp.md_runs);
  check "no PA observations" true (row.Brp.md_pa_obs = 0);
  check "no PB observations" true (row.Brp.md_pb_obs = 0);
  check "P1 rare" true (row.Brp.md_p1_obs <= 5);
  check "Dmax near all runs" true
    (row.Brp.md_dmax_obs >= row.Brp.md_runs - 10);
  check "Emax mean near 33.5" true (abs_float (row.Brp.md_emax_mean -. 33.47) < 0.5);
  check "Emax std near 2.1" true (abs_float (row.Brp.md_emax_std -. 2.14) < 0.8)

let test_brp_scaling () =
  (* Larger MAX lowers the failure probability. *)
  let p1_of max_retrans =
    let t = Brp.make ~n:4 ~max_retrans () in
    fst (Mcpta.reach_prob t.Brp.sta (Brp.p1 t) ~maximize:true)
  in
  let p1_1 = p1_of 1 and p1_3 = p1_of 3 in
  check "more retries, fewer failures" true (p1_3 < p1_1 /. 100.0)

(* ------------------------------------------------------------------ *)
(* Golden digital-clock expansions                                     *)
(* ------------------------------------------------------------------ *)

(* Order-sensitive fingerprint of an expansion: per state id, its
   fields, then its actions in order (label, (probability, successor)
   pairs, reward). Floats print in hex, so equal digests mean
   bit-identical MDPs under identical state numbering. *)
let expansion_digest (exp : Modest.Digital_sta.expansion) =
  let b = Buffer.create 65536 in
  let ints a = Array.iter (fun x -> Printf.bprintf b "%d," x) a in
  Array.iteri
    (fun i (st : Modest.Digital_sta.dstate) ->
      Printf.bprintf b "#%d:" i;
      ints st.Modest.Digital_sta.slocs;
      ints st.Modest.Digital_sta.sstore;
      ints st.Modest.Digital_sta.sclocks;
      Printf.bprintf b "t%d|" st.Modest.Digital_sta.stime;
      List.iter
        (fun (a : Mdp.action) ->
          Printf.bprintf b "%s:" a.Mdp.a_label;
          List.iter (fun (p, s) -> Printf.bprintf b "%h>%d;" p s) a.Mdp.probs;
          Printf.bprintf b "r%h/" a.Mdp.reward)
        (Mdp.actions exp.Modest.Digital_sta.mdp i))
    exp.Modest.Digital_sta.states;
  Digest.to_hex (Digest.string (Buffer.contents b))

let check_expansion ~states ~digest exp =
  Alcotest.(check int) "states" states
    (Array.length exp.Modest.Digital_sta.states);
  Alcotest.(check int) "mdp states" states
    (Mdp.n_states exp.Modest.Digital_sta.mdp);
  Alcotest.(check int) "initial" 0 exp.Modest.Digital_sta.initial;
  Alcotest.(check string) "actions digest" digest (expansion_digest exp)

let test_golden_brp () =
  let t = Brp.make () in
  check_expansion ~states:906 ~digest:"ec9fa58574f0d111e14438f416d92008"
    (Modest.Digital_sta.expand t.Brp.sta)

let test_golden_brp_time_capped () =
  let t = Brp.make ~n:4 () in
  check_expansion ~states:1490 ~digest:"cac565efe39fc831a14596d37208c707"
    (Modest.Digital_sta.expand ~time_cap:64 t.Brp.sta)

(* [max_states] bounds the reachable count: BRP's 906 states fit a cap
   of 906 and overflow a cap of 905. *)
let test_golden_state_limit () =
  let t = Brp.make () in
  Alcotest.check_raises "one state over"
    (Failure "Digital_sta.expand: state limit") (fun () ->
      ignore (Modest.Digital_sta.expand ~max_states:905 t.Brp.sta));
  let exp = Modest.Digital_sta.expand ~max_states:906 t.Brp.sta in
  Alcotest.(check int) "exactly at the cap" 906
    (Array.length exp.Modest.Digital_sta.states)




let test_do_loop () =
  (* do-loop version of the Fig. 5 recursion: same shape, same class. *)
  let src = {|
  const int TD = 1;
  int delivered = 0;
  process Channel() {
    clock c;
    do {
      put palt {
      :98: {= c = 0 =};
           invariant(c <= TD) get
      : 2: {==}
      }
    }
  }
  process Sender() { do { put } }
  process Receiver() { do { get; {= delivered = 1 =} } }
  par { Sender() || Channel() || Receiver() }
  |} in
  let sta = Parser.parse_and_compile src in
  check "do-loop compiles" true (Sta.classify sta = Sta.Class_pta);
  let delivered =
    Mprop.P_data
      (Expr.Ge (Expr.var (Store.find sta.Sta.layout "delivered"), Expr.Int 1))
  in
  let v, _ = Mcpta.reach_prob sta delivered ~maximize:true in
  check "delivery a.s. through do-loops" true (close ~tol:1e-6 v 1.0)


let test_lexer_comments () =
  let toks = Lexer.tokenize "a /* multi\nline */ b // tail\n c" in
  let idents = List.filter_map (function Lexer.IDENT s, _ -> Some s | _ -> None)
      (List.map (fun (t, l) -> (t, l)) toks) in
  check "comments skipped" true (idents = [ "a"; "b"; "c" ]);
  (try
     ignore (Lexer.tokenize "a /* unterminated");
     Alcotest.fail "expected lex error"
   with Lexer.Lex_error _ -> ());
  try
    ignore (Lexer.tokenize "a $ b");
    Alcotest.fail "expected bad char"
  with Lexer.Lex_error _ -> ()

let test_alt_parses () =
  let src = {|
  int choice = 0;
  process P() {
    alt {
    :: a; {= choice = 1 =}
    :: b; {= choice = 2 =}
    }; stop
  }
  par { P() }
  |} in
  let sta = Parser.parse_and_compile src in
  (* Both alternatives are reachable (nondeterministic choice). *)
  let chose k =
    Mprop.P_data (Expr.Eq (Expr.var (Store.find sta.Sta.layout "choice"), Expr.Int k))
  in
  let v1, _ = Mcpta.reach_prob sta (chose 1) ~maximize:true in
  let v2, _ = Mcpta.reach_prob sta (chose 2) ~maximize:true in
  check "alt branch a reachable" true (close ~tol:1e-9 v1 1.0);
  check "alt branch b reachable" true (close ~tol:1e-9 v2 1.0);
  (* But the minimizing scheduler avoids each. *)
  let v1min, _ = Mcpta.reach_prob sta (chose 1) ~maximize:false in
  check "alt is nondeterministic" true (close ~tol:1e-9 v1min 0.0)

let test_class_sta_rejected () =
  (* A strict clock guard puts the model outside PTA: mcpta refuses. *)
  let b = Sta.builder () in
  let x = Sta.fresh_clock b "x" in
  let p = Sta.process b "P" in
  let s0 = Sta.location p "s0" in
  let s1 = Sta.location p "s1" in
  Sta.edge p ~src:s0 ~clock_guard:[ Model.clock_gt x 1 ]
    ~branches:[ (1, [], s1); (1, [], s0) ] ();
  let sta = Sta.build b in
  check "classified STA" true (Sta.classify sta = Sta.Class_sta);
  try
    ignore (Modest.Digital_sta.expand sta);
    Alcotest.fail "expected rejection"
  with Invalid_argument _ -> ()


let test_modes_monitor_violation () =
  (* A monitor that the model violates on every run is reported false. *)
  let t = Brp.make ~n:2 () in
  let impossible =
    Mprop.P_data (Expr.Lt (Expr.var (Store.find t.Brp.sta.Sta.layout "i"), Expr.Int 1))
  in
  let obs =
    Modes.runs t.Brp.sta ~seed:3 ~n:20 ~horizon:100.0 ~watch:[||]
      ~monitors:[| impossible |]
  in
  check "violated monitor detected in every run" true
    (Array.for_all (fun (o : Modes.observation) -> not o.Modes.monitors_ok.(0)) obs)

(* ------------------------------------------------------------------ *)
(* UPPAAL XML export (the mctau export path of Section III)            *)
(* ------------------------------------------------------------------ *)

module Uppaal_xml = Modest.Uppaal_xml

let test_xml_export_structure () =
  let xml = Uppaal_xml.of_network (Ta.Train_gate.make ~n_trains:2) in
  let has affix = Astring.String.is_infix ~affix xml in
  check "nta document" true (has "<nta>" && has "</nta>");
  check "declares clocks" true (has "clock x0;" && has "clock x1;");
  check "declares urgent channel" true (has "urgent chan go0;");
  check "declares the queue array" true (has "int list[3];");
  check "templates for all automata" true
    (has "<name>Train0</name>" && has "<name>Gate</name>");
  check "committed location marked" true (has "<committed/>");
  check "sync labels" true (has "appr0!" && has "appr0?");
  check "system line" true (has "system Train0, Train1, Gate;")

let test_xml_export_escapes () =
  (* Guards contain <= which must be escaped. *)
  let xml = Uppaal_xml.of_network (Ta.Train_gate.make ~n_trains:2) in
  check "no raw <= in labels" true
    (Astring.String.is_infix ~affix:"&lt;=" xml);
  check "well-formed: balanced templates" true
    (let count affix =
       List.length (String.split_on_char '\n' xml)
       |> fun _ ->
       let rec go i acc =
         match Astring.String.find_sub ~start:i ~sub:affix xml with
         | Some j -> go (j + 1) (acc + 1)
         | None -> acc
       in
       go 0 0
     in
     count "<template>" = count "</template>")

let test_xml_of_sta () =
  let t = Brp.make ~n:2 () in
  let xml = Uppaal_xml.of_sta t.Brp.sta in
  let has affix = Astring.String.is_infix ~affix xml in
  check "sta exports via mctau" true
    (has "<name>Sender</name>" && has "<name>ChannelK</name>");
  check "channels declared" true (has "chan put;")

(* ------------------------------------------------------------------ *)
(* Randomized contention resolution (backoff)                          *)
(* ------------------------------------------------------------------ *)

module Backoff = Modest.Backoff

let test_backoff_closed_forms () =
  let t = Backoff.make () in
  check "classified PTA" true (Sta.classify t.Backoff.sta = Sta.Class_pta);
  (* slots=2, round=2: success 1/2 per round. *)
  check "P(within 2) = 1/2" true (close ~tol:1e-9 (Backoff.success_within t ~bound:2) 0.5);
  check "P(within 4) = 3/4" true (close ~tol:1e-9 (Backoff.success_within t ~bound:4) 0.75);
  check "P(within 6) = 7/8" true (close ~tol:1e-9 (Backoff.success_within t ~bound:6) 0.875);
  check "E[time] = 4" true (close ~tol:1e-6 (Backoff.expected_resolution_time t) 4.0)

let test_backoff_more_slots () =
  (* slots=4: success per round = 3/4, expected rounds 4/3, E[time] = 8/3. *)
  let t = Backoff.make ~slots:4 () in
  check "P(within 2) = 3/4" true (close ~tol:1e-9 (Backoff.success_within t ~bound:2) 0.75);
  check "E[time] = 8/3" true
    (close ~tol:1e-6 (Backoff.expected_resolution_time t) (8.0 /. 3.0))

let test_backoff_modes_agrees () =
  let t = Backoff.make () in
  let mean, _ = Backoff.simulate_mean_time t ~runs:3000 ~seed:13 in
  check "simulated mean near 4" true (abs_float (mean -. 4.0) < 0.2)

(* ------------------------------------------------------------------ *)
(* Reference simulator and goldens                                     *)
(* ------------------------------------------------------------------ *)

(* The list-based ASAP simulator that the compiled kernel replaced,
   kept verbatim as the oracle of the differential tests below: same
   draws, in the same order, from the same stream, so every observation
   (hitting times, monitors, end time, step count) must be equal. *)
module Ref_modes = struct
  module Model = Ta.Model
  module Bound = Zones.Bound

  type mstate = {
    mlocs : int array;
    mstore : int array;
    mclocks : float array;
    mtime : float;
  }

  let rec eval sta ~locs ~store = function
    | Mprop.P_true -> true
    | Mprop.P_loc (pname, lname) ->
      let pi = Sta.proc_index sta pname in
      locs.(pi) = Sta.loc_index sta pi lname
    | Mprop.P_data e -> Expr.eval_bool store e
    | Mprop.P_not p -> not (eval sta ~locs ~store p)
    | Mprop.P_and (p, q) -> eval sta ~locs ~store p && eval sta ~locs ~store q
    | Mprop.P_or (p, q) -> eval sta ~locs ~store p || eval sta ~locs ~store q

  let initial (sta : Sta.t) =
    {
      mlocs = Array.map (fun (p : Sta.process) -> p.Sta.p_initial) sta.Sta.processes;
      mstore = Ta.Store.initial sta.Sta.layout;
      mclocks = Array.make (sta.Sta.n_clocks + 1) 0.0;
      mtime = 0.0;
    }

  let guard_window v constrs =
    let lo = ref 0.0 and hi = ref infinity and feasible = ref true in
    List.iter
      (fun (c : Model.constr) ->
        if not (Bound.is_inf c.cb) then begin
          let m = float_of_int (Bound.constant c.cb) in
          if c.ci > 0 && c.cj = 0 then hi := min !hi (m -. v.(c.ci))
          else if c.ci = 0 && c.cj > 0 then lo := max !lo (-.m -. v.(c.cj))
          else if not (Bound.sat c.cb (v.(c.ci) -. v.(c.cj))) then
            feasible := false
        end)
      constrs;
    if (not !feasible) || !lo > !hi +. 1e-12 then None else Some (!lo, !hi)

  let data_ok store (e : Sta.edge) =
    match e.Sta.e_guard with None -> true | Some g -> Expr.eval_bool store g

  let candidate_moves (sta : Sta.t) st =
    let acc = ref [] in
    let edge_lo (e : Sta.edge) =
      match guard_window st.mclocks e.Sta.e_clock_guard with
      | Some (lo, hi) -> Some (max 0.0 lo, hi)
      | None -> None
    in
    Array.iteri
      (fun pi (p : Sta.process) ->
        List.iter
          (fun (e : Sta.edge) ->
            if data_ok st.mstore e then begin
              match e.Sta.e_action with
              | None -> (
                match edge_lo e with
                | Some (lo, hi) -> acc := (lo, hi, [ (pi, e) ]) :: !acc
                | None -> ())
              | Some a ->
                (match Hashtbl.find_opt sta.Sta.sync a with
                 | Some [ _ ] | None -> (
                   match edge_lo e with
                   | Some (lo, hi) -> acc := (lo, hi, [ (pi, e) ]) :: !acc
                   | None -> ())
                 | Some [ p1; p2 ] ->
                   if pi = p1 then begin
                     List.iter
                       (fun (e2 : Sta.edge) ->
                         if e2.Sta.e_action = Some a && data_ok st.mstore e2
                         then
                           match edge_lo e, edge_lo e2 with
                           | Some (lo1, hi1), Some (lo2, hi2) ->
                             let lo = max lo1 lo2 and hi = min hi1 hi2 in
                             if lo <= hi +. 1e-12 then
                               acc := (lo, hi, [ (pi, e); (p2, e2) ]) :: !acc
                           | _, _ -> ())
                       sta.Sta.processes.(p2).Sta.p_out.(st.mlocs.(p2))
                   end
                 | Some _ -> assert false)
            end)
          p.Sta.p_out.(st.mlocs.(pi)))
      sta.Sta.processes;
    List.rev !acc

  let invariant_ub (sta : Sta.t) st =
    let ub = ref infinity in
    Array.iteri
      (fun pi (p : Sta.process) ->
        List.iter
          (fun (c : Model.constr) ->
            if (not (Bound.is_inf c.cb)) && c.ci > 0 && c.cj = 0 then
              ub :=
                min !ub (float_of_int (Bound.constant c.cb) -. st.mclocks.(c.ci)))
          p.Sta.p_locations.(st.mlocs.(pi)).Sta.l_invariant)
      sta.Sta.processes;
    !ub

  let urgent_present (sta : Sta.t) st =
    let found = ref false in
    Array.iteri
      (fun pi (p : Sta.process) ->
        if p.Sta.p_locations.(st.mlocs.(pi)).Sta.l_kind = Sta.L_urgent then
          found := true)
      sta.Sta.processes;
    !found

  let sample_branch rng (e : Sta.edge) =
    let total =
      List.fold_left
        (fun acc (b : Sta.branch) -> acc + b.Sta.weight)
        0 e.Sta.e_branches
    in
    let roll = Random.State.int rng total in
    let rec pick acc = function
      | [] -> assert false
      | (b : Sta.branch) :: rest ->
        let acc = acc + b.Sta.weight in
        if roll < acc then b else pick acc rest
    in
    pick 0 e.Sta.e_branches

  let fire rng (st : mstate) participants =
    let locs = Array.copy st.mlocs in
    let store = Array.copy st.mstore in
    let clocks = Array.copy st.mclocks in
    List.iter
      (fun (pi, e) ->
        let b = sample_branch rng e in
        locs.(pi) <- b.Sta.b_dst;
        List.iter
          (function
            | Model.Assign (lv, rhs) ->
              let v = Expr.eval store rhs in
              store.(Expr.lvalue_offset store lv) <- v
            | Model.Reset (x, v) -> clocks.(x) <- float_of_int v
            | Model.Prim (_, f) -> f store)
          b.Sta.b_updates)
      participants;
    { st with mlocs = locs; mstore = store; mclocks = clocks }

  let advance st d =
    {
      st with
      mclocks = Array.mapi (fun i x -> if i = 0 then 0.0 else x +. d) st.mclocks;
      mtime = st.mtime +. d;
    }

  let step (sta : Sta.t) rng st =
    let candidates = candidate_moves sta st in
    let now = List.filter (fun (lo, _, _) -> lo <= 1e-12) candidates in
    match now with
    | _ :: _ ->
      let _, _, participants =
        List.nth now (Random.State.int rng (List.length now))
      in
      Some (fire rng st participants)
    | [] ->
      if urgent_present sta st then None
      else begin
        let ub = invariant_ub sta st in
        let earliest =
          List.fold_left
            (fun acc (lo, _, _) -> if lo <= ub +. 1e-12 then min acc lo else acc)
            infinity candidates
        in
        if earliest = infinity then None
        else begin
          let st' = advance st earliest in
          let enabled =
            List.filter
              (fun (_, _, parts) ->
                List.for_all
                  (fun (_, (e : Sta.edge)) ->
                    match guard_window st'.mclocks e.Sta.e_clock_guard with
                    | Some (lo, _) -> lo <= 1e-12
                    | None -> false)
                  parts)
              candidates
          in
          match enabled with
          | [] -> Some st'
          | _ ->
            let _, _, participants =
              List.nth enabled (Random.State.int rng (List.length enabled))
            in
            Some (fire rng st' participants)
        end
      end

  let run (sta : Sta.t) ~seed ~horizon ~watch ~monitors =
    let rng = Random.State.make [| seed |] in
    let hits = Array.make (Array.length watch) None in
    let monitors_ok = Array.make (Array.length monitors) true in
    let observe (st : mstate) =
      Array.iteri
        (fun k p ->
          if hits.(k) = None && eval sta ~locs:st.mlocs ~store:st.mstore p
          then hits.(k) <- Some st.mtime)
        watch;
      Array.iteri
        (fun k p ->
          if monitors_ok.(k) && not (eval sta ~locs:st.mlocs ~store:st.mstore p)
          then monitors_ok.(k) <- false)
        monitors
    in
    let rec loop st steps =
      observe st;
      let all_hit =
        Array.length hits > 0 && Array.for_all (fun h -> h <> None) hits
      in
      if all_hit || st.mtime > horizon || steps > 1_000_000 then (st, steps)
      else
        match step sta rng st with
        | None -> (st, steps)
        | Some st' -> loop st' (steps + 1)
    in
    let final, steps = loop (initial sta) 0 in
    { Modes.hits; monitors_ok; end_time = final.mtime; steps }

  let runs sta ~seed ~n ~horizon ~watch ~monitors =
    Array.init n (fun k ->
        run sta ~seed:(seed + (k * 7919)) ~horizon ~watch ~monitors)
end

let observations_text obs =
  let b = Buffer.create 65536 in
  Array.iter
    (fun (o : Modes.observation) ->
      Array.iter
        (function
          | Some h -> Printf.bprintf b "%h " h
          | None -> Buffer.add_string b "- ")
        o.Modes.hits;
      Array.iter (fun ok -> Printf.bprintf b "%b " ok) o.Modes.monitors_ok;
      Printf.bprintf b "%h %d\n" o.Modes.end_time o.Modes.steps)
    obs;
  Buffer.contents b

let brp_watch t =
  [| Brp.pa t; Brp.pb t; Brp.p1 t; Brp.p2 t; Brp.success t; Brp.finished t |]

let brp_monitors t = [| Brp.ta1 t; Brp.ta2 t |]

(* E4's modes column: BRP (16, 2, 1), seed 42, horizon 154, the six
   watched properties and two monitors of [Brp.run_modes]. *)
let brp_golden ~runs ~bytes ~steps ~md5 () =
  let t = Brp.make () in
  let obs =
    Modes.runs t.Brp.sta ~seed:42 ~n:runs ~horizon:154.0 ~watch:(brp_watch t)
      ~monitors:(brp_monitors t)
  in
  let text = observations_text obs in
  Alcotest.(check int) "bytes" bytes (String.length text);
  Alcotest.(check int) "steps" steps
    (Array.fold_left (fun acc (o : Modes.observation) -> acc + o.Modes.steps) 0 obs);
  Alcotest.(check string) "md5" md5 (Digest.to_hex (Digest.string text))

let test_golden_brp_modes_1k () =
  let truncated = Obs.counter "modes.truncated_runs" in
  let before = Obs.Metrics.Counter.value truncated in
  brp_golden ~runs:1_000 ~bytes:45_132 ~steps:82_284
    ~md5:"66118503a0aaa798091daaf91c13d1f0" ();
  Alcotest.(check int) "no run truncated" before
    (Obs.Metrics.Counter.value truncated)

(* Names resolve when a prop is compiled, even in a branch evaluation
   would never reach. *)
let test_mprop_compile () =
  let sta = retry_sta () in
  let p = Mprop.compile sta (Mprop.P_loc ("P", "done")) in
  let initial = Array.map (fun (p : Sta.process) -> p.Sta.p_initial) sta.Sta.processes in
  check "initial location is not done" false (p initial [||]);
  check "unknown location" true
    (match Mprop.compile sta (Mprop.P_or (Mprop.P_true, Mprop.P_loc ("P", "nowhere"))) with
     | (_ : int array -> int array -> bool) -> false
     | exception Not_found -> true)

(* A run that never lets time pass stops at the step cap, counted as
   truncated. *)
let test_modes_truncated () =
  let b = Sta.builder () in
  let p = Sta.process b "P" in
  let l = Sta.location p "L" in
  Sta.edge p ~src:l ~branches:[ (1, [], l) ] ();
  let truncated = Obs.counter "modes.truncated_runs" in
  let before = Obs.Metrics.Counter.value truncated in
  let obs =
    Modes.runs (Sta.build b) ~seed:1 ~n:1 ~horizon:10.0 ~watch:[||]
      ~monitors:[||]
  in
  Alcotest.(check int) "one truncated run" (before + 1)
    (Obs.Metrics.Counter.value truncated);
  Alcotest.(check int) "steps" 1_000_001 obs.(0).Modes.steps;
  check "time stood still" true (obs.(0).Modes.end_time = 0.0)

let test_golden_brp_modes_10k =
  brp_golden ~runs:10_000 ~bytes:452_210 ~steps:823_052
    ~md5:"3082ffd6b48a4466a3661b3dc567295c"

let agrees_with_reference name sta ~seed ~n ~horizon ~watch ~monitors =
  let got = Modes.runs sta ~seed ~n ~horizon ~watch ~monitors in
  let want = Ref_modes.runs sta ~seed ~n ~horizon ~watch ~monitors in
  Alcotest.(check string) name (observations_text want) (observations_text got)

let test_reference_modes () =
  List.iter
    (fun (n, max_retrans, td) ->
      let t = Brp.make ~n ~max_retrans ~td () in
      let horizon =
        float_of_int (n * ((max_retrans + 1) * ((2 * td) + 1))) +. 10.0
      in
      agrees_with_reference
        (Printf.sprintf "brp (%d, %d, %d)" n max_retrans td)
        t.Brp.sta ~seed:7 ~n:300 ~horizon ~watch:(brp_watch t)
        ~monitors:(brp_monitors t))
    [ (16, 2, 1); (4, 1, 2) ];
  let b = Backoff.make ~slots:3 () in
  agrees_with_reference "backoff" b.Backoff.sta ~seed:5 ~n:500 ~horizon:400.0
    ~watch:[| Backoff.resolved b; Backoff.contending b |]
    ~monitors:[| Mprop.P_not (Backoff.resolved b) |];
  let channel =
    Parser.parse_and_compile
      (In_channel.with_open_text "../examples/models/channel.modest"
         In_channel.input_all)
  in
  let delivered =
    Mprop.P_data
      (Expr.Eq (Expr.var (Store.find channel.Sta.layout "delivered"), Expr.Int 1))
  in
  agrees_with_reference "channel" channel ~seed:9 ~n:300 ~horizon:30.0
    ~watch:[| delivered; Mprop.P_loc ("Receiver", "s2") |]
    ~monitors:[| Mprop.P_not delivered |];
  agrees_with_reference "retry" (retry_sta ()) ~seed:11 ~n:300 ~horizon:200.0
    ~watch:[| Mprop.P_loc ("P", "done") |]
    ~monitors:[||]

let () =
  Alcotest.run "modest"
    [
      ( "sta",
        [
          Alcotest.test_case "classify" `Quick test_classify;
          Alcotest.test_case "mcpta simple" `Quick test_mcpta_simple_prob;
          Alcotest.test_case "mctau overapprox" `Quick test_mctau_overapprox;
          Alcotest.test_case "two flips" `Quick test_two_flips;
        ] );
      ( "timed",
        [
          Alcotest.test_case "expected time" `Quick test_expected_time;
          Alcotest.test_case "time bounded" `Quick test_time_bounded;
          Alcotest.test_case "modes agrees" `Slow test_modes_agrees;
        ] );
      ( "parser",
        [
          Alcotest.test_case "lexer" `Quick test_lexer;
          Alcotest.test_case "fig5 parses" `Quick test_fig5_parses;
          Alcotest.test_case "fig5 delivery" `Quick test_fig5_delivery_prob;
          Alcotest.test_case "errors" `Quick test_parser_errors;
          Alcotest.test_case "do loop" `Quick test_do_loop;
          Alcotest.test_case "lexer comments" `Quick test_lexer_comments;
          Alcotest.test_case "alt" `Quick test_alt_parses;
          Alcotest.test_case "sta rejected by mcpta" `Quick test_class_sta_rejected;
        ] );
      ( "modes",
        [ Alcotest.test_case "monitor violation" `Quick test_modes_monitor_violation ] );
      ( "uppaal-xml",
        [
          Alcotest.test_case "structure" `Quick test_xml_export_structure;
          Alcotest.test_case "escaping" `Quick test_xml_export_escapes;
          Alcotest.test_case "sta export" `Quick test_xml_of_sta;
        ] );
      ( "backoff",
        [
          Alcotest.test_case "closed forms" `Quick test_backoff_closed_forms;
          Alcotest.test_case "more slots" `Quick test_backoff_more_slots;
          Alcotest.test_case "modes agrees" `Slow test_backoff_modes_agrees;
        ] );
      ( "brp",
        [
          Alcotest.test_case "small exact" `Quick test_brp_small_exact;
          Alcotest.test_case "table1 mcpta" `Slow test_brp_table1_mcpta;
          Alcotest.test_case "table1 mctau" `Slow test_brp_table1_mctau;
          Alcotest.test_case "table1 modes" `Slow test_brp_table1_modes;
          Alcotest.test_case "scaling" `Slow test_brp_scaling;
        ] );
      ( "golden",
        [
          Alcotest.test_case "modes brp 1k" `Quick test_golden_brp_modes_1k;
          Alcotest.test_case "modes brp 10k" `Slow test_golden_brp_modes_10k;
          Alcotest.test_case "modes reference" `Quick test_reference_modes;
          Alcotest.test_case "modes truncated runs" `Quick test_modes_truncated;
          Alcotest.test_case "mprop compile" `Quick test_mprop_compile;
          Alcotest.test_case "digital brp" `Quick test_golden_brp;
          Alcotest.test_case "digital brp n=4 time-capped" `Quick
            test_golden_brp_time_capped;
          Alcotest.test_case "digital state limit" `Quick
            test_golden_state_limit;
        ] );
    ]
