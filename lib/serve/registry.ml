(* The daemon's warm state: compiled models and cached replies, under
   one optional memory budget. Everything here is droppable: eviction
   degrades latency, never correctness. *)

let m_model_hits = Obs.counter "serve.model_hits"
let m_model_misses = Obs.counter "serve.model_misses"
let m_reply_hits = Obs.counter "serve.reply_hits"
let m_reply_misses = Obs.counter "serve.reply_misses"
let m_evictions = Obs.counter "serve.evictions"

(* A cached value and the registry clock at its last use. *)
type 'a cached = { value : 'a; mutable tick : int }

type t = {
  models : (string, Ta.Model.network cached) Hashtbl.t;
  replies : (string, Obs.Json.t cached) Hashtbl.t;
  mutable clock : int;
  budget_words : int option;
}

let create ?mem_budget_words () =
  {
    models = Hashtbl.create 16;
    replies = Hashtbl.create 64;
    clock = 0;
    budget_words = mem_budget_words;
  }

let mem_budget_words t = t.budget_words

let tick t =
  t.clock <- t.clock + 1;
  t.clock

let find t tbl key ~hit ~miss =
  match Hashtbl.find_opt tbl key with
  | Some c ->
    Obs.Metrics.Counter.incr hit;
    c.tick <- tick t;
    Some c.value
  | None ->
    Obs.Metrics.Counter.incr miss;
    None

let add t tbl key value = Hashtbl.replace tbl key { value; tick = tick t }

(* Retained heap of both caches, shared structure counted once. An
   O(live-cache) walk — called on reply insertion (rare next to
   compute) and on metrics scrapes. It counts what the tables reach,
   so an entry leaves the reading as soon as it leaves its table. *)
let words t = Obj.reachable_words (Obj.repr (t.models, t.replies))

(* Drop the least recently used entry of [tbl]; false when it is empty. *)
let evict tbl =
  let lru =
    Hashtbl.fold
      (fun key c acc ->
        match acc with
        | Some (_, tick) when tick <= c.tick -> acc
        | _ -> Some (key, c.tick))
      tbl None
  in
  match lru with
  | Some (key, _) ->
    Hashtbl.remove tbl key;
    Obs.Metrics.Counter.incr m_evictions;
    true
  | None -> false

(* Reclaim until under budget, cheapest to recompute first: cached
   replies, then compiled models, LRU within each class. *)
let rec enforce_budget t =
  match t.budget_words with
  | Some budget when words t > budget ->
    if evict t.replies || evict t.models then enforce_budget t
  | _ -> ()

let model t (spec : Models.spec) ~n =
  let key = Printf.sprintf "%s:%d" spec.Models.name n in
  match find t t.models key ~hit:m_model_hits ~miss:m_model_misses with
  | Some net -> net
  | None ->
    let net = spec.Models.make n in
    add t t.models key net;
    net

let cached_reply t ~fingerprint =
  find t t.replies fingerprint ~hit:m_reply_hits ~miss:m_reply_misses

let store_reply t ~fingerprint reply =
  add t t.replies fingerprint reply;
  enforce_budget t

let stats_json t =
  Obs.Json.Obj
    [
      ("models", Obs.Json.Int (Hashtbl.length t.models));
      ("replies", Obs.Json.Int (Hashtbl.length t.replies));
      ("cache_words", Obs.Json.Int (words t));
      ( "budget_words",
        match t.budget_words with
        | Some b -> Obs.Json.Int b
        | None -> Obs.Json.Null );
      ("dbm_intern_size", Obs.Json.Int (Zones.Dbm.intern_size ()));
    ]
