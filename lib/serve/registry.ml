(* The daemon's warm state: compiled models, a reply cache, and (after a
   model proves hot) a "warm anchor" — a retained symbolic state space
   whose sealed zones keep the weak DBM intern table ({!Zones.Dbm.seal})
   populated between requests, so later queries on the same model
   intern into existing representatives instead of rebuilding them.
   Everything here is droppable: eviction degrades latency, never
   correctness. *)

let m_model_hits = Obs.counter "serve.model_hits"
let m_model_misses = Obs.counter "serve.model_misses"
let m_reply_hits = Obs.counter "serve.reply_hits"
let m_reply_misses = Obs.counter "serve.reply_misses"
let m_evictions = Obs.counter "serve.evictions"
let m_anchors = Obs.counter "serve.anchors_built"

type entry = {
  key : string;
  net : Ta.Model.network;
  mutable queries : int;
  mutable anchor : Ta.Zone_graph.state list;  (* [] = cold *)
  mutable anchor_failed : bool;  (* model too large to anchor; don't retry *)
  mutable tick : int;
}

type cached_reply = { reply : Obs.Json.t; mutable r_tick : int }

type t = {
  models : (string, entry) Hashtbl.t;
  replies : (string, cached_reply) Hashtbl.t;
  mutable clock : int;
  budget_words : int option;
  anchor_max_states : int;
}

let create ?mem_budget_words ?(anchor_max_states = 200_000) () =
  {
    models = Hashtbl.create 16;
    replies = Hashtbl.create 64;
    clock = 0;
    budget_words = mem_budget_words;
    anchor_max_states;
  }

let mem_budget_words t = t.budget_words

let tick t =
  t.clock <- t.clock + 1;
  t.clock

let net e = e.net

(* Retained heap of both caches, shared structure counted once. An
   O(live-cache) walk — called on reply insertion (bounded by the same
   geometric spacing idea as the engine's poll: insertions are rare
   next to compute) and on metrics scrapes. *)
let words t = Obj.reachable_words (Obj.repr (t.models, t.replies))

let lru_fold tbl ~live f =
  Hashtbl.fold
    (fun key v acc ->
      if not (live v) then acc
      else
        match acc with
        | Some (_, best) when f best <= f v -> acc
        | _ -> Some (key, v))
    tbl None

(* Reclaim until under budget, cheapest-to-recompute first: anchors
   (pure latency aids), then cached replies, then whole model entries.
   LRU within each class. *)
let enforce_budget t =
  match t.budget_words with
  | None -> ()
  | Some budget ->
    let continue_ = ref (words t > budget) in
    while !continue_ do
      let dropped =
        match
          lru_fold t.models ~live:(fun e -> e.anchor <> []) (fun e -> e.tick)
        with
        | Some (_, e) ->
          e.anchor <- [];
          true
        | None -> (
          match lru_fold t.replies ~live:(fun _ -> true) (fun r -> r.r_tick) with
          | Some (key, _) ->
            Hashtbl.remove t.replies key;
            true
          | None -> (
            match lru_fold t.models ~live:(fun _ -> true) (fun e -> e.tick) with
            | Some (key, _) ->
              Hashtbl.remove t.models key;
              true
            | None -> false))
      in
      if dropped then begin
        Obs.Metrics.Counter.incr m_evictions;
        (* Eviction frees nothing until the GC agrees; compact the major
           heap so the next [words] reading reflects the drop. *)
        Gc.full_major ();
        continue_ := words t > budget
      end
      else continue_ := false
    done

let model t (spec : Models.spec) ~n =
  let key = Printf.sprintf "%s:%d" spec.Models.name n in
  match Hashtbl.find_opt t.models key with
  | Some e ->
    Obs.Metrics.Counter.incr m_model_hits;
    e.tick <- tick t;
    e
  | None ->
    Obs.Metrics.Counter.incr m_model_misses;
    let e =
      {
        key;
        net = spec.Models.make n;
        queries = 0;
        anchor = [];
        anchor_failed = false;
        tick = tick t;
      }
    in
    Hashtbl.replace t.models key e;
    e

(* Called after a successful query on [e]. The anchor is built lazily on
   the second query — a model queried once may never return, but a
   model queried twice is worth keeping warm — and only when the state
   space stays under [anchor_max_states] (a [Failure] from the cap
   marks the entry un-anchorable rather than retrying forever). *)
let warm t e =
  e.queries <- e.queries + 1;
  if e.queries >= 2 && e.anchor = [] && not e.anchor_failed then begin
    (match Ta.Checker.reachable_states ~max_states:t.anchor_max_states e.net with
     | states ->
       e.anchor <- states;
       Obs.Metrics.Counter.incr m_anchors
     | exception Failure _ -> e.anchor_failed <- true);
    enforce_budget t
  end

let cached_reply t ~fingerprint =
  match Hashtbl.find_opt t.replies fingerprint with
  | Some r ->
    Obs.Metrics.Counter.incr m_reply_hits;
    r.r_tick <- tick t;
    Some r.reply
  | None ->
    Obs.Metrics.Counter.incr m_reply_misses;
    None

let store_reply t ~fingerprint reply =
  Hashtbl.replace t.replies fingerprint { reply; r_tick = tick t };
  enforce_budget t

let stats_json t =
  let anchors =
    Hashtbl.fold (fun _ e n -> if e.anchor <> [] then n + 1 else n) t.models 0
  in
  Obs.Json.Obj
    [
      ("models", Obs.Json.Int (Hashtbl.length t.models));
      ("anchors", Obs.Json.Int anchors);
      ("replies", Obs.Json.Int (Hashtbl.length t.replies));
      ("cache_words", Obs.Json.Int (words t));
      ( "budget_words",
        match t.budget_words with
        | Some b -> Obs.Json.Int b
        | None -> Obs.Json.Null );
      ("dbm_intern_size", Obs.Json.Int (Zones.Dbm.intern_size ()));
    ]
