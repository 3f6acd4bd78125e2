(* The daemon's warm state: compiled models and cached replies, under
   one optional memory budget. Everything here is droppable: eviction
   degrades latency, never correctness. *)

let m_model_hits = Obs.counter "serve.model_hits"
let m_model_misses = Obs.counter "serve.model_misses"
let m_reply_hits = Obs.counter "serve.reply_hits"
let m_reply_misses = Obs.counter "serve.reply_misses"
let m_evictions = Obs.counter "serve.evictions"

(* A cached value, the words it was charged when added, and its place
   in its class's recency list. [self] is the link the neighbours hold,
   made once with the entry, so a touch relinks without allocating. *)
type 'a cached = {
  key : string;
  value : 'a;
  charge : int;
  mutable newer : 'a cached option;
  mutable older : 'a cached option;
  self : 'a cached option;
}

(* One cache class: its table, its entries from most to least recently
   used, the bucket count it was created with, and the most entries it
   has held. Buckets double when the entries exceed twice their number
   and never shrink, so the bucket array has at most
   [max buckets peak] slots. *)
type 'a cache = {
  tbl : (string, 'a cached) Hashtbl.t;
  mutable newest : 'a cached option;
  mutable oldest : 'a cached option;
  buckets : int;
  mutable peak : int;
}

type t = {
  models : Ta.Model.network cache;
  replies : Obs.Json.t cache;
  budget_words : int option;
  mutable charges : int;
      (* the empty registry's words plus every entry's charge *)
}

let cache buckets =
  { tbl = Hashtbl.create buckets; newest = None; oldest = None; buckets; peak = 0 }

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

let unlink c e =
  (match e.newer with Some n -> n.older <- e.older | None -> c.newest <- e.older);
  (match e.older with Some o -> o.newer <- e.newer | None -> c.oldest <- e.newer);
  e.newer <- None;
  e.older <- None

let push_newest c e =
  e.older <- c.newest;
  (match c.newest with Some n -> n.newer <- e.self | None -> c.oldest <- e.self);
  c.newest <- e.self

let find c key ~hit ~miss =
  match Hashtbl.find_opt c.tbl key with
  | Some e ->
    Obs.Metrics.Counter.incr hit;
    unlink c e;
    push_newest c e;
    Some e.value
  | None ->
    Obs.Metrics.Counter.incr miss;
    None

(* A hash bucket cell (key, data, next), a [cached] record and its
   [self] link, headers included. *)
let entry_overhead = 4 + 7 + 2

let add t c key value =
  (match Hashtbl.find_opt c.tbl key with
   | Some old ->
     unlink c old;
     t.charges <- t.charges - old.charge
   | None -> ());
  let charge =
    entry_overhead
    + Obj.reachable_words (Obj.repr key)
    + Obj.reachable_words (Obj.repr value)
  in
  let rec e = { key; value; charge; newer = None; older = None; self = Some e } in
  Hashtbl.replace c.tbl key e;
  push_newest c e;
  t.charges <- t.charges + charge;
  c.peak <- max c.peak (Hashtbl.length c.tbl)

(* Drop the least recently used entry of [c]; false when it is empty. *)
let evict t c =
  match c.oldest with
  | Some e ->
    unlink c e;
    Hashtbl.remove c.tbl e.key;
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
  match find t.models key ~hit:m_model_hits ~miss:m_model_misses with
  | Some net -> net
  | None ->
    let net = spec.Models.make n in
    add t t.models key net;
    net

let cached_reply t ~fingerprint =
  find t.replies fingerprint ~hit:m_reply_hits ~miss:m_reply_misses

let store_reply t ~fingerprint reply =
  add t t.replies fingerprint reply;
  enforce_budget t

let lru_keys t =
  let rec from_oldest acc = function
    | Some e -> from_oldest (e.key :: acc) e.newer
    | None -> List.rev acc
  in
  (from_oldest [] t.models.oldest, from_oldest [] t.replies.oldest)

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
