(* The daemon's warm state: compiled models and cached replies, under
   one optional memory budget. Everything here is droppable: eviction
   degrades latency, never correctness. *)

let m_model_hits = Obs.counter "serve.model_hits"
let m_model_misses = Obs.counter "serve.model_misses"
let m_reply_hits = Obs.counter "serve.reply_hits"
let m_reply_misses = Obs.counter "serve.reply_misses"
let m_evictions = Obs.counter "serve.evictions"

(* A cached value, the registry clock at its last use, and the words
   it was charged when added. *)
type 'a cached = { value : 'a; mutable tick : int; charge : int }

(* One cache class: its table, the bucket count it was created with,
   and the most entries it has held. Buckets double when the entries
   exceed twice their number and never shrink, so the bucket array has
   at most [max buckets peak] slots. *)
type 'a cache = {
  tbl : (string, 'a cached) Hashtbl.t;
  buckets : int;
  mutable peak : int;
}

type t = {
  models : Ta.Model.network cache;
  replies : Obs.Json.t cache;
  mutable clock : int;
  budget_words : int option;
  mutable charges : int;
      (* the empty registry's words plus every entry's charge *)
}

let cache buckets = { tbl = Hashtbl.create buckets; buckets; peak = 0 }

(* Retained heap of both caches, shared structure counted once. An
   O(live-cache) walk, for metrics scrapes. It counts what the tables
   reach, so an entry leaves the reading as soon as it leaves its
   table. *)
let words_of models replies =
  Obj.reachable_words (Obj.repr (models.tbl, replies.tbl))

let words t = words_of t.models t.replies

let create ?mem_budget_words () =
  let models = cache 16 and replies = cache 64 in
  {
    models;
    replies;
    clock = 0;
    budget_words = mem_budget_words;
    charges = words_of models replies;
  }

let mem_budget_words t = t.budget_words

(* What the budget is enforced against: never below [words t], since
   each entry's charge covers everything it reaches (shared structure
   is charged to every entry that reaches it) and each bucket array is
   bounded by its peak. O(1), where [words] walks the whole cache. *)
let charged t =
  let growth c = max 0 (c.peak - c.buckets) in
  t.charges + growth t.models + growth t.replies

let tick t =
  t.clock <- t.clock + 1;
  t.clock

let find t c key ~hit ~miss =
  match Hashtbl.find_opt c.tbl key with
  | Some e ->
    Obs.Metrics.Counter.incr hit;
    e.tick <- tick t;
    Some e.value
  | None ->
    Obs.Metrics.Counter.incr miss;
    None

(* A hash bucket cell (key, data, next) and a [cached] record, headers
   included. *)
let entry_overhead = 4 + 4

let add t c key value =
  (match Hashtbl.find_opt c.tbl key with
   | Some old -> t.charges <- t.charges - old.charge
   | None -> ());
  let charge =
    entry_overhead
    + Obj.reachable_words (Obj.repr key)
    + Obj.reachable_words (Obj.repr value)
  in
  Hashtbl.replace c.tbl key { value; tick = tick t; charge };
  t.charges <- t.charges + charge;
  c.peak <- max c.peak (Hashtbl.length c.tbl)

(* Drop the least recently used entry of [c]; false when it is empty. *)
let evict t c =
  let lru =
    Hashtbl.fold
      (fun key e acc ->
        match acc with
        | Some (_, old) when old.tick <= e.tick -> acc
        | _ -> Some (key, e))
      c.tbl None
  in
  match lru with
  | Some (key, e) ->
    Hashtbl.remove c.tbl key;
    t.charges <- t.charges - e.charge;
    Obs.Metrics.Counter.incr m_evictions;
    true
  | None -> false

(* Reclaim until under budget, cheapest to recompute first: cached
   replies, then compiled models, LRU within each class. *)
let rec enforce_budget t =
  match t.budget_words with
  | Some budget when charged t > budget ->
    if evict t t.replies || evict t t.models then enforce_budget t
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
      ("models", Obs.Json.Int (Hashtbl.length t.models.tbl));
      ("replies", Obs.Json.Int (Hashtbl.length t.replies.tbl));
      ("cache_words", Obs.Json.Int (words t));
      ( "budget_words",
        match t.budget_words with
        | Some b -> Obs.Json.Int b
        | None -> Obs.Json.Null );
      ("dbm_intern_size", Obs.Json.Int (Zones.Dbm.intern_size ()));
    ]
