(* Tests for the quantd service layer: protocol framing, in-process
   request handling (reply cache, smc requests isolated within a read
   round), the registry's eviction order, intern-table lifecycle under
   warm-query churn, and the socket daemon end to end —
   byte-identity against the one-shot path, malformed-input survival,
   deadline expiry, LRU eviction under a memory budget and graceful
   SIGTERM shutdown. Daemon tests fork a child that never returns into
   alcotest (it leaves via [Unix._exit]). *)

module P = Serve.Protocol
module Json = Obs.Json

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

(* ------------------------------------------------------------------ *)
(* Protocol                                                            *)
(* ------------------------------------------------------------------ *)

let test_parse_request () =
  let line =
    {|{"v":1,"id":7,"method":"check","params":{"model":"fischer"},"deadline_ms":250.0}|}
  in
  (match P.parse_request line with
   | Ok req ->
     check "id" true (req.P.id = Json.Int 7);
     check_str "method" "check" req.P.meth;
     check "params" true (Json.member "model" req.P.params = Some (Json.Str "fischer"));
     check "deadline" true (req.P.deadline_ms = Some 250.0)
   | Error _ -> Alcotest.fail "valid request rejected");
  let rejected line =
    match P.parse_request line with Error _ -> true | Ok _ -> false
  in
  check "garbage rejected" true (rejected "{\"unterminated");
  check "non-object rejected" true (rejected "[1,2,3]");
  check "missing method rejected" true (rejected {|{"v":1,"id":1,"params":{}}|});
  check "wrong version rejected" true
    (rejected {|{"v":2,"id":1,"method":"ping","params":{}}|});
  check "array params rejected" true
    (rejected {|{"v":1,"id":1,"method":"ping","params":[]}|});
  check "negative deadline rejected" true
    (rejected {|{"v":1,"id":1,"method":"ping","params":{},"deadline_ms":-5}|})

let test_reply_lines () =
  let ok = P.ok_line ~id:(Json.Int 3) (Json.Obj [ ("x", Json.Int 1) ]) in
  (match P.parse_reply ok with
   | Ok r ->
     check "ok id" true (r.P.reply_id = Json.Int 3);
     check "ok payload" true (r.P.payload = Ok (Json.Obj [ ("x", Json.Int 1) ]))
   | Error _ -> Alcotest.fail "ok_line does not parse");
  let err = P.error_line ~id:Json.Null P.Bad_request "nope" in
  match P.parse_reply err with
  | Ok r -> check "error payload" true (r.P.payload = Error ("bad_request", "nope"))
  | Error _ -> Alcotest.fail "error_line does not parse"

(* ------------------------------------------------------------------ *)
(* In-process service: reply cache, one handler per request            *)
(* ------------------------------------------------------------------ *)

let with_service ?mem_budget_words f =
  Par.Pool.with_pool ~jobs:2 @@ fun pool ->
  let registry = Serve.Registry.create ?mem_budget_words () in
  f (Serve.Service.create ~registry ~pool ())

let request ?deadline_ms ~id meth params =
  let fields =
    [ ("v", Json.Int 1); ("id", Json.Int id); ("method", Json.Str meth);
      ("params", Json.Obj params) ]
    @ match deadline_ms with
      | Some ms -> [ ("deadline_ms", Json.Float ms) ]
      | None -> []
  in
  Json.to_string (Json.Obj fields)

let reply_text line =
  match P.parse_reply line with
  | Ok { P.payload = Ok result; _ } -> (
    match Json.member "text" result with
    | Some (Json.Str t) -> t
    | _ -> Alcotest.fail ("reply without text: " ^ line))
  | _ -> Alcotest.fail ("error reply: " ^ line)

let test_check_matches_oneshot_and_caches () =
  with_service @@ fun svc ->
  let expected =
    let spec = Serve.Models.fischer in
    let net = spec.Serve.Models.make 3 in
    String.concat ""
      (List.map
         (fun (name, q) ->
           Serve.Render.query_line ~stats_json:false name (Ta.Checker.check net q))
         (spec.Serve.Models.queries net))
  in
  let params = [ ("model", Json.Str "fischer"); ("n", Json.Int 3) ] in
  let r1 = Serve.Service.handle_line svc (request ~id:1 "check" params) in
  check_str "daemon bytes = one-shot bytes" expected (reply_text r1);
  let hits = Obs.counter "serve.reply_hits" in
  let before = Obs.Metrics.Counter.value hits in
  let r2 = Serve.Service.handle_line svc (request ~id:2 "check" params) in
  check_str "cached reply identical" expected (reply_text r2);
  check "second query hit the reply cache" true
    (Obs.Metrics.Counter.value hits > before)

let fischer_smc_params =
  [ ("model", Json.Str "fischer"); ("trains", Json.Int 2); ("runs", Json.Int 120) ]

let train_smc_params =
  [ ("model", Json.Str "train-gate"); ("trains", Json.Int 2); ("runs", Json.Int 120) ]

(* Each request answered alone, on a fresh service. *)
let smc_alone id params =
  with_service @@ fun svc ->
  reply_text (Serve.Service.handle_line svc (request ~id "smc" params))

let test_two_smc_in_one_round () =
  (* Two smc requests in one read round: the replies must be byte-equal
     to each request answered alone. *)
  let alone_f = smc_alone 1 fischer_smc_params in
  let alone_t = smc_alone 2 train_smc_params in
  with_service @@ fun svc ->
  match
    Serve.Service.handle_batch svc
      [ request ~id:1 "smc" fischer_smc_params; request ~id:2 "smc" train_smc_params ]
  with
  | [ rf; rt ] ->
    check_str "fischer in the round = alone" alone_f (reply_text rf);
    check_str "train-gate in the round = alone" alone_t (reply_text rt)
  | _ -> Alcotest.fail "batch reply count"

let test_expired_smc_in_round () =
  (* A deadline of 1 us from the start of the round has passed by the
     time its sampling starts: that request alone fails, and the other
     smc request of the round keeps its bytes. *)
  let alone_t = smc_alone 2 train_smc_params in
  with_service @@ fun svc ->
  match
    Serve.Service.handle_batch svc
      [ request ~deadline_ms:0.001 ~id:1 "smc" fischer_smc_params;
        request ~id:2 "smc" train_smc_params ]
  with
  | [ rf; rt ] ->
    (match P.parse_reply rf with
     | Ok { P.payload = Error (code, _); _ } ->
       check_str "expired request" "deadline_exceeded" code
     | _ -> Alcotest.fail ("expected deadline_exceeded: " ^ rf));
    check_str "the other request = alone" alone_t (reply_text rt)
  | _ -> Alcotest.fail "batch reply count"

let test_bad_requests_are_structured () =
  with_service @@ fun svc ->
  let code line =
    match P.parse_reply (Serve.Service.handle_line svc line) with
    | Ok { P.payload = Error (code, _); _ } -> code
    | _ -> "ok"
  in
  check_str "bad json" "bad_json" (code "{\"broken");
  check_str "unknown method" "unknown_method"
    (code (request ~id:1 "frobnicate" []));
  check_str "unknown model" "bad_request"
    (code (request ~id:2 "check" [ ("model", Json.Str "bogus") ]));
  check_str "bad param type" "bad_request"
    (code (request ~id:3 "check" [ ("n", Json.Str "four") ]));
  check_str "fault injection refused" "bad_request"
    (code (request ~id:4 "fuzz" [ ("inject", Json.Str "dbm-up") ]));
  check_str "out-of-range n" "bad_request"
    (code (request ~id:5 "check" [ ("n", Json.Int 99) ]))

(* ------------------------------------------------------------------ *)
(* Registry: two cache classes under one budget                        *)
(* ------------------------------------------------------------------ *)

module R = Serve.Registry

let test_registry_eviction_order () =
  let fischer = Serve.Models.fischer in
  let reply i = Json.Str (String.make 2000 (Char.chr (Char.code 'a' + i))) in
  let key = string_of_int in
  (* Sizes as the budgeted registry will see them, measured on an
     unbudgeted one holding the same model and one reply. *)
  let probe = R.create () in
  ignore (R.model probe fischer ~n:3);
  let model_words = R.words probe in
  R.store_reply probe ~fingerprint:(key 0) (reply 0);
  let reply_words = R.words probe - model_words in
  let budget = model_words + (3 * reply_words) + (reply_words / 2) in
  let reg = R.create ~mem_budget_words:budget () in
  let net = R.model reg fischer ~n:3 in
  let store i =
    R.store_reply reg ~fingerprint:(key i) (reply i);
    check
      (Printf.sprintf "words within budget after storing reply %d" i)
      true
      (R.words reg <= budget)
  in
  let cached i = R.cached_reply reg ~fingerprint:(key i) <> None in
  store 1;
  store 2;
  store 3;
  (* The hit refreshes reply 1: the LRU order is now 2, 3, 1. *)
  check "three replies fit" true (cached 1);
  store 4;
  check "the least recently used reply went" false (cached 2);
  check "the refreshed reply stayed" true (cached 1);
  check "the newer replies stayed" true (cached 3 && cached 4);
  check "replies go before models" true (R.model reg fischer ~n:3 == net);
  (* Models go once no reply is left, least recently used first: a
     budget one word short of three models, with model 3 the oldest
     once model 2 is touched again. *)
  let probe = R.create () in
  List.iter (fun n -> ignore (R.model probe fischer ~n)) [ 2; 3; 4 ];
  let budget = R.words probe - 1 in
  let reg = R.create ~mem_budget_words:budget () in
  let nets = List.map (fun n -> (n, R.model reg fischer ~n)) [ 2; 3; 4 ] in
  ignore (R.model reg fischer ~n:2);
  R.store_reply reg ~fingerprint:"r" (reply 0);
  check "words within budget after the store" true (R.words reg <= budget);
  check "the reply went first" true
    (R.cached_reply reg ~fingerprint:"r" = None);
  check "the recently used models stayed" true
    (R.model reg fischer ~n:2 == List.assoc 2 nets
    && R.model reg fischer ~n:4 == List.assoc 4 nets);
  check "the least recently used model went" true
    (R.model reg fischer ~n:3 != List.assoc 3 nets)

(* The budget holds after every reply store whatever the mix: model
   compiles and hits (some models explored, as a served check would),
   reply hits, replies of random size and shape, replies re-stored
   under a live fingerprint, and one value cached under two
   fingerprints. *)
let test_registry_budget_random () =
  let rng = Random.State.make [| 20 |] in
  let int n = Random.State.int rng n in
  let specs = [| Serve.Models.fischer; Serve.Models.train_gate |] in
  let probe = R.create () in
  ignore (R.model probe Serve.Models.fischer ~n:3);
  let budget = R.words probe + 4_000 in
  let reg = R.create ~mem_budget_words:budget () in
  let reply () =
    match int 3 with
    | 0 -> Json.Str (String.make (int 4_000) 'r')
    | 1 -> Json.Arr (List.init (int 200) (fun i -> Json.Int i))
    | _ ->
      Json.Obj
        (List.init (1 + int 20) (fun i ->
             (string_of_int i, Json.Str (String.make (int 100) 'o'))))
  in
  let last = ref (Json.Int 0) and stores = ref 0 in
  for step = 1 to 3_000 do
    match int 10 with
    | 0 ->
      let net = R.model reg specs.(int 2) ~n:(2 + int 2) in
      if int 4 = 0 then ignore (Ta.Checker.reachable_states net)
    | 1 | 2 -> ignore (R.cached_reply reg ~fingerprint:(string_of_int (int 80)))
    | k ->
      let value = if k = 3 then !last else reply () in
      last := value;
      R.store_reply reg ~fingerprint:(string_of_int (int 80)) value;
      incr stores;
      if R.words reg > budget then
        Alcotest.failf "step %d: %d words over a budget of %d" step
          (R.words reg) budget
  done;
  check "replies were stored" true (!stores > 1_000)

(* The recency list evicts what the old victim search did: a fold over
   the class's table for the least last-use tick. A random mix of reply
   stores (new and re-stored fingerprints, random sizes), reply hits
   and misses, and model hits is replayed against that fold; after
   every step the registry's reply order, least recently used first,
   must be the fold's, so every store evicted the fold's victims. *)
let test_registry_lru_matches_fold () =
  let rng = Random.State.make [| 21 |] in
  let int n = Random.State.int rng n in
  let probe = R.create () in
  ignore (R.model probe Serve.Models.fischer ~n:3);
  let budget = R.words probe + 40_000 in
  let reg = R.create ~mem_budget_words:budget () in
  let net = R.model reg Serve.Models.fischer ~n:3 in
  (* The old victim search, over a table of last-use ticks. *)
  let ticks = Hashtbl.create 64 and clock = ref 0 in
  let touch key =
    incr clock;
    Hashtbl.replace ticks key !clock
  in
  let fold_evict () =
    let lru =
      Hashtbl.fold
        (fun key tick acc ->
          match acc with
          | Some (_, old) when old <= tick -> acc
          | _ -> Some (key, tick))
        ticks None
    in
    match lru with Some (key, _) -> Hashtbl.remove ticks key | None -> ()
  in
  let fold_order () =
    Hashtbl.fold (fun key tick acc -> (tick, key) :: acc) ticks []
    |> List.sort compare |> List.map snd
  in
  let evicted = ref 0 in
  for step = 1 to 4_000 do
    let key = string_of_int (int 150) in
    (match int 5 with
     | 0 | 1 -> (
       match R.cached_reply reg ~fingerprint:key with
       | Some _ -> touch key
       | None ->
         if Hashtbl.mem ticks key then
           Alcotest.failf "step %d: %s missing from the registry" step key)
     | 2 -> check "model kept" true (R.model reg Serve.Models.fischer ~n:3 == net)
     | _ ->
       R.store_reply reg ~fingerprint:key (Json.Str (String.make (int 6_000) 'r'));
       touch key;
       let _, replies = R.lru_keys reg in
       while Hashtbl.length ticks > List.length replies do
         fold_evict ();
         incr evicted
       done);
    let _, replies = R.lru_keys reg in
    if replies <> fold_order () then
      Alcotest.failf "step %d: the LRU order differs from the fold's" step
  done;
  check "stores evicted" true (!evicted > 500);
  check "the model stayed" true (fst (R.lru_keys reg) = [ "fischer:3" ])

(* ------------------------------------------------------------------ *)
(* Intern-table lifecycle under warm-query churn                       *)
(* ------------------------------------------------------------------ *)

let settle () =
  Gc.full_major ();
  Gc.full_major ()

let test_dbm_intern_shared_across_queries () =
  let net = Ta.Fischer.make ~n:3 () in
  let s1 = Ta.Checker.reachable_states net in
  settle ();
  let size1 = Zones.Dbm.intern_size () in
  let s2 = Ta.Checker.reachable_states net in
  settle ();
  let size2 = Zones.Dbm.intern_size () in
  (* The second query re-derives the same canonical zones, so while the
     first result is live it interns nothing new. *)
  check_int "warm re-query adds no zones" size1 size2;
  check_int "same state count" (List.length s1) (List.length s2);
  List.iter2
    (fun (a : Ta.Zone_graph.state) (b : Ta.Zone_graph.state) ->
      check "zone physically shared across queries" true
        (a.Ta.Zone_graph.zone == b.Ta.Zone_graph.zone))
    s1 s2

let test_dbm_intern_drains_after_churn () =
  settle ();
  let baseline = Zones.Dbm.intern_size () in
  for _ = 1 to 5 do
    let net = Ta.Fischer.make ~n:3 () in
    ignore (Ta.Checker.check net (Ta.Fischer.mutex net))
  done;
  settle ();
  (* Weak table: once no store holds the zones, repeated queries leave
     no residue — the daemon's long-uptime no-leak property. *)
  check "no unbounded growth after GC" true
    (Zones.Dbm.intern_size () <= baseline + 64)

(* ------------------------------------------------------------------ *)
(* Daemon end to end (forked child)                                    *)
(* ------------------------------------------------------------------ *)

let fork_daemon ?mem_budget_words ?(jobs = 1) sock =
  (try Unix.unlink sock with Unix.Unix_error _ -> ());
  let pid = Unix.fork () in
  if pid = 0 then begin
    (* Child: silence the banner, run the daemon, and leave without
       touching alcotest's exit machinery. *)
    (try
       let devnull = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0o644 in
       Unix.dup2 devnull Unix.stdout;
       Unix.close devnull;
       let config =
         { Serve.Daemon.default_config with socket_path = sock; jobs;
           mem_budget_words }
       in
       Serve.Daemon.run ~config ()
     with _ -> ());
    Unix._exit 0
  end
  else pid

let stop_daemon pid =
  Unix.kill pid Sys.sigterm;
  match Unix.waitpid [] pid with
  | _, Unix.WEXITED code -> code
  | _, (Unix.WSIGNALED _ | Unix.WSTOPPED _) -> -1

let with_daemon ?mem_budget_words f =
  let sock =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "quantd-test-%d.sock" (Unix.getpid ()))
  in
  let pid = fork_daemon ?mem_budget_words sock in
  Fun.protect
    ~finally:(fun () -> try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ())
    (fun () ->
      let client = Serve.Client.connect sock in
      let r = Fun.protect ~finally:(fun () -> Serve.Client.close client) (fun () -> f client) in
      check_int "graceful SIGTERM exit" 0 (stop_daemon pid);
      r)

let result_text = function
  | Ok j -> (
    match Json.member "text" j with
    | Some (Json.Str t) -> t
    | _ -> Alcotest.fail "reply without text")
  | Error (code, msg) -> Alcotest.fail (code ^ ": " ^ msg)

let test_daemon_byte_identity () =
  let expected_check =
    let spec = Serve.Models.fischer in
    let net = spec.Serve.Models.make 3 in
    String.concat ""
      (List.map
         (fun (name, q) ->
           Serve.Render.query_line ~stats_json:false name (Ta.Checker.check net q))
         (spec.Serve.Models.queries net))
  in
  let expected_smc =
    let net = Ta.Fischer.make ~n:2 () in
    String.concat ""
      (List.map
         (fun i ->
           Serve.Render.smc_fischer_line i
             (Smc.probability ~runs:100 ~seed:(42 + i) net
                {
                  Smc.horizon = 30.0;
                  goal = Ta.Prop.Loc (i, Ta.Model.loc_index net i "cs");
                }))
         [ 0; 1 ])
  in
  with_daemon @@ fun client ->
  let r =
    Serve.Client.call client ~meth:"check"
      [ ("model", Json.Str "fischer"); ("n", Json.Int 3) ]
  in
  check_str "check over the socket = one-shot" expected_check (result_text r);
  let r =
    Serve.Client.call client ~meth:"smc"
      [ ("model", Json.Str "fischer"); ("trains", Json.Int 2);
        ("runs", Json.Int 100) ]
  in
  check_str "smc over the socket = one-shot" expected_smc (result_text r);
  (* Pipelined pair in one write: one read round, the replies keep
     request order and the same bytes. *)
  match
    Serve.Client.call_many client
      [ ("smc",
         None,
         [ ("model", Json.Str "fischer"); ("trains", Json.Int 2);
           ("runs", Json.Int 150) ]);
        ("ping", None, []) ]
  with
  | [ smc; ping ] ->
    let expected_150 =
      let net = Ta.Fischer.make ~n:2 () in
      String.concat ""
        (List.map
           (fun i ->
             Serve.Render.smc_fischer_line i
               (Smc.probability ~runs:150 ~seed:(42 + i) net
                  {
                    Smc.horizon = 30.0;
                    goal = Ta.Prop.Loc (i, Ta.Model.loc_index net i "cs");
                  }))
           [ 0; 1 ])
    in
    check_str "pipelined smc bytes" expected_150 (result_text smc);
    check "pipelined ping answered" true
      (match ping with
       | Ok j -> Json.member "pong" j = Some (Json.Bool true)
       | Error _ -> false)
  | _ -> Alcotest.fail "call_many reply count"

let test_daemon_survives_malformed_input () =
  with_daemon @@ fun client ->
  let code_of_raw raw =
    match P.parse_reply (Serve.Client.call_raw client raw) with
    | Ok { P.payload = Error (code, _); _ } -> code
    | _ -> "ok"
  in
  check_str "truncated frame" "bad_json" (code_of_raw "{\"v\":1,\"id");
  check_str "binary garbage" "bad_json" (code_of_raw "\x00\xff\xfe garbage");
  check_str "valid json, wrong shape" "bad_request" (code_of_raw "[1,2,3]");
  check_str "unknown method" "unknown_method"
    (code_of_raw {|{"v":1,"id":1,"method":"nope","params":{}}|});
  (* The connection — and the daemon — are still healthy. *)
  check "ping after abuse" true
    (match Serve.Client.call client ~meth:"ping" [] with
     | Ok _ -> true
     | Error _ -> false)

let test_daemon_deadline_expiry () =
  with_daemon @@ fun client ->
  (match
     Serve.Client.call client ~meth:"check" ~deadline_ms:1.0
       [ ("model", Json.Str "fischer"); ("n", Json.Int 6) ]
   with
   | Error ("deadline_exceeded", _) -> ()
   | Error (code, msg) -> Alcotest.fail ("wrong error: " ^ code ^ ": " ^ msg)
   | Ok _ -> Alcotest.fail "expected deadline_exceeded");
  (* The expired query cost one reply, not the daemon: a sane request
     on the same connection still completes. *)
  check "daemon alive after expiry" true
    (match
       Serve.Client.call client ~meth:"check"
         [ ("model", Json.Str "fischer"); ("n", Json.Int 2) ]
     with
     | Ok _ -> true
     | Error _ -> false)

let test_daemon_eviction_under_budget () =
  (* 16 kWords = 128 KB: roomy enough for a fischer-3 check to answer,
     tight enough that a fischer-5 exploration degrades into a
     structured resource_exhausted reply instead of an OOM kill, and
     that a few hundred small cached smc replies must evict. *)
  with_daemon ~mem_budget_words:16_384 @@ fun client ->
  let check_model n =
    Serve.Client.call client ~meth:"check"
      [ ("model", Json.Str "fischer"); ("n", Json.Int n) ]
  in
  check "fischer-3 answered under the budget" true
    (Result.is_ok (check_model 3));
  (match check_model 5 with
   | Error ("resource_exhausted", _) -> ()
   | Error (code, msg) -> Alcotest.fail ("wrong error: " ^ code ^ ": " ^ msg)
   | Ok _ -> Alcotest.fail "expected resource_exhausted");
  (* Distinct seeds keep every reply a new cache entry. *)
  List.iter
    (fun r ->
      match r with
      | Ok _ -> ()
      | Error (code, msg) -> Alcotest.fail (code ^ ": " ^ msg))
    (Serve.Client.call_many client
       (List.init 300 (fun seed ->
            ( "smc",
              None,
              [ ("model", Json.Str "fischer"); ("trains", Json.Int 1);
                ("runs", Json.Int 1); ("seed", Json.Int seed) ] ))));
  match Serve.Client.call client ~meth:"metrics" [] with
  | Ok j ->
    let evictions =
      match
        Option.bind (Json.member "metrics" j) (fun m ->
            Option.bind (Json.member "serve.evictions" m) (Json.member "value"))
      with
      | Some (Json.Int n) -> n
      | Some (Json.Float f) -> int_of_float f
      | _ -> 0
    in
    check "budget forced evictions" true (evictions > 0);
    (* Eviction degraded the cache, not the answers. *)
    check "still answering after eviction" true (Result.is_ok (check_model 3))
  | Error (code, msg) -> Alcotest.fail (code ^ ": " ^ msg)

let test_daemon_metrics_scrape () =
  with_daemon @@ fun client ->
  ignore
    (Serve.Client.call client ~meth:"check"
       [ ("model", Json.Str "fischer"); ("n", Json.Int 3) ]);
  match Serve.Client.call client ~meth:"metrics" [] with
  | Ok j ->
    check "has metrics section" true (Json.member "metrics" j <> None);
    check "has serve cache stats" true
      (match Json.member "serve" j with
       | Some s -> Json.member "models" s <> None && Json.member "dbm_intern_size" s <> None
       | None -> false);
    check "has uptime" true (Json.member "uptime_s" j <> None)
  | Error (code, msg) -> Alcotest.fail (code ^ ": " ^ msg)

let () =
  Alcotest.run "serve"
    [
      (* The daemon section forks, which OCaml 5 forbids once any domain
         has been created — so it runs first, before the service and
         lifecycle tests spawn pools. *)
      ( "daemon",
        [
          Alcotest.test_case "byte identity + pipelining" `Quick
            test_daemon_byte_identity;
          Alcotest.test_case "survives malformed input" `Quick
            test_daemon_survives_malformed_input;
          Alcotest.test_case "deadline expiry" `Quick test_daemon_deadline_expiry;
          Alcotest.test_case "eviction under --mem-budget" `Quick
            test_daemon_eviction_under_budget;
          Alcotest.test_case "metrics scrape" `Quick test_daemon_metrics_scrape;
        ] );
      ( "protocol",
        [
          Alcotest.test_case "parse_request" `Quick test_parse_request;
          Alcotest.test_case "reply lines" `Quick test_reply_lines;
        ] );
      ( "service",
        [
          Alcotest.test_case "check = one-shot bytes, then cached" `Quick
            test_check_matches_oneshot_and_caches;
          Alcotest.test_case "two smc in a round = each alone" `Quick
            test_two_smc_in_one_round;
          Alcotest.test_case "expired smc request in a round" `Quick
            test_expired_smc_in_round;
          Alcotest.test_case "structured errors" `Quick
            test_bad_requests_are_structured;
        ] );
      ( "registry",
        [
          Alcotest.test_case "replies, then models, LRU within each" `Quick
            test_registry_eviction_order;
          Alcotest.test_case "budget holds under a random mix" `Quick
            test_registry_budget_random;
          Alcotest.test_case "LRU order matches the fold" `Quick
            test_registry_lru_matches_fold;
        ] );
      ( "intern lifecycle",
        [
          Alcotest.test_case "zones shared across warm queries" `Quick
            test_dbm_intern_shared_across_queries;
          Alcotest.test_case "no residue after churn + GC" `Quick
            test_dbm_intern_drains_after_churn;
        ] );
    ]
