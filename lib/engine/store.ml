module Dbm = Zones.Dbm

type verdict =
  | Added of { dropped : int; reopened : bool }
  | Dup of int
  | Covered

type 's t = {
  name : string;
  insert : 's -> id:int -> verdict;
  stale : 's -> bool;
  size : unit -> int;
  words : unit -> int;
}

let default_size_hint = 4096

(* Flight-recorder phases shared by all store flavours: [store.probe]
   the key lookup, [store.insert] the table write, [store.subsume] the
   inclusion walk over a subsume bucket. No-ops unless
   [Obs.Flight.enable] ran. *)
let ph_probe = Obs.Flight.intern "store.probe"
let ph_insert = Obs.Flight.intern "store.insert"
let ph_subsume = Obs.Flight.intern "store.subsume"

(* Retained-heap estimate of the passed list: everything reachable from
   the table — buckets, keys and stored values (zones included), shared
   structure counted once. One full traversal per call; the engine calls
   it when building the final [Stats.t] and at its geometrically spaced
   memory-budget polls. *)
let reachable_words tbl () = Obj.reachable_words (Obj.repr tbl)

(* The packed stores below key on {!Codec.packed} states: the probe hash
   is the memoized full-width one (O(1), no truncation) and collisions
   compare packed words, never the original state structure. *)

(* Fused symbolic key: the packed discrete part next to a sealed zone
   handle, hashed by mixing the codec's memoized hash with the zone's
   memoized hash — both O(1), so probing a symbolic store costs no
   hashing work at all. Equality is pointer-first on both components;
   the zone comparison goes through [Dbm.equal] so cmp_stats keeps
   counting how often sealing makes it physical. *)
module Zkey = struct
  type t = { h : int; pk : Codec.packed; z : Dbm.canon }

  let make pk (z : Dbm.canon) =
    assert (Dbm.is_sealed (z :> Dbm.t));
    { h = Codec.mix_hash (Codec.hash pk) (Dbm.hash (z :> Dbm.t)); pk; z }

  let equal a b =
    Codec.equal a.pk b.pk && Dbm.equal (a.z :> Dbm.t) (b.z :> Dbm.t)

  let hash k = k.h
end

module Ztbl = Hashtbl.Make (Zkey)

(* Open-addressed probe table on packed keys. The hash is the key's
   memoized field, probing is a linear scan of one slot array, and a
   lookup allocates nothing — where [Hashtbl.Make] pays two module
   calls plus an option per probe (no cross-module inlining without
   flambda). Keys are never removed, so there are no tombstones. *)
module Ptbl = struct
  type 'v slot = Empty | Slot of { key : Codec.packed; mutable v : 'v }
  type 'v t = { mutable mask : int; mutable slots : 'v slot array; mutable len : int }

  let create hint =
    let cap = ref 16 in
    while !cap < hint * 2 do cap := !cap * 2 done;
    { mask = !cap - 1; slots = Array.make !cap Empty; len = 0 }

  (* First slot that is empty or holds [k]; [Codec.equal] settles
     same-slot collisions hash-first, so mismatches cost one compare. *)
  let rec probe slots mask k i =
    match slots.(i) with
    | Empty -> i
    | Slot s -> if Codec.equal s.key k then i else probe slots mask k ((i + 1) land mask)

  let find_default t k d =
    match t.slots.(probe t.slots t.mask k (Codec.hash k land t.mask)) with
    | Empty -> d
    | Slot s -> s.v

  let grow t =
    let mask = (2 * (t.mask + 1)) - 1 in
    let slots = Array.make (mask + 1) Empty in
    Array.iter
      (function
        | Empty -> ()
        | Slot s as e ->
          let rec free i =
            match slots.(i) with Empty -> i | Slot _ -> free ((i + 1) land mask)
          in
          slots.(free (Codec.hash s.key land mask)) <- e)
      t.slots;
    t.mask <- mask;
    t.slots <- slots

  let set t k v =
    let i = probe t.slots t.mask k (Codec.hash k land t.mask) in
    match t.slots.(i) with
    | Slot s -> s.v <- v
    | Empty ->
      t.slots.(i) <- Slot { key = k; v };
      t.len <- t.len + 1;
      (* Grow at 2/3 load to keep probe runs short. *)
      if 3 * t.len > 2 * (t.mask + 1) then grow t
end

(* Keyed stores: the caller computes the packed key once and hands it
   to every insert/stale call. The exploration loop lives on these —
   the same key that routes a state to its shard probes the shard's
   table, so the hot path never encodes twice. *)
type 's keyed = {
  kname : string;
  kinsert : 's -> key:Codec.packed -> id:int -> verdict;
  kstale : 's -> key:Codec.packed -> bool;
  ksize : unit -> int;
  kwords : unit -> int;
}

let k_no_stale _ ~key:_ = false

let discrete_keyed ?(size_hint = default_size_hint) () =
  let tbl : int Codec.Tbl.t = Codec.Tbl.create size_hint in
  {
    kname = "discrete";
    kinsert =
      (fun _s ~key ~id ->
        let fl = Obs.Flight.start () in
        let hit = Codec.Tbl.find_opt tbl key in
        Obs.Flight.stop ph_probe fl;
        match hit with
        | Some id' -> Dup id'
        | None ->
          let fl = Obs.Flight.start () in
          Codec.Tbl.replace tbl key id;
          Obs.Flight.stop ph_insert fl;
          Added { dropped = 0; reopened = false });
    kstale = k_no_stale;
    ksize = (fun () -> Codec.Tbl.length tbl);
    kwords = reachable_words tbl;
  }

let exact_keyed ?(size_hint = default_size_hint) ~zone () =
  (* One flat table on the fused (packed, zone) key — no per-key bucket
     lists to scan, and both hashes are memoized. *)
  let tbl : int Ztbl.t = Ztbl.create size_hint in
  {
    kname = "exact";
    kinsert =
      (fun s ~key ~id ->
        let fl = Obs.Flight.start () in
        let zk = Zkey.make key (zone s) in
        let hit = Ztbl.find_opt tbl zk in
        Obs.Flight.stop ph_probe fl;
        match hit with
        | Some id' -> Dup id'
        | None ->
          let fl = Obs.Flight.start () in
          Ztbl.replace tbl zk id;
          Obs.Flight.stop ph_insert fl;
          Added { dropped = 0; reopened = false });
    kstale = k_no_stale;
    ksize = (fun () -> Ztbl.length tbl);
    kwords = reachable_words tbl;
  }

let subsume_keyed ?(size_hint = default_size_hint) ~zone () =
  let tbl : Dbm.canon list Ptbl.t = Ptbl.create size_hint in
  (* packed key -> zone list; stored zones are pairwise incomparable and
     kept sorted by decreasing {!Dbm.width}. The width score is monotone
     for inclusion, so only the prefix at least as wide as a candidate
     can cover it (and the widest zones — the likeliest coverers — are
     probed first), and only the suffix at most as wide can be evicted
     by it: each insert pays one inclusion direction per entry instead
     of two full walks. No exact-match front cache: a re-proposed
     candidate carries the same sealed handle and settles on a pointer
     comparison during the prefix walk. Scans are tallied in local
     accumulators and flushed to {!Dbm.cmp_stats} once per insert, so
     the per-scan cost matches the quiet comparisons. *)
  let count = ref 0 in
  {
    kname = "subsume";
    kinsert =
      (fun s ~key:k ~id:_ ->
        let z : Dbm.canon = zone s in
        let fl = Obs.Flight.start () in
        let entries = Ptbl.find_default tbl k [] in
        let fl_scan = Obs.Flight.stop_start ph_probe fl in
        let wz = Dbm.width (z :> Dbm.t) in
        (* Eviction suffix: every entry here has width <= wz, so [z]
           cannot be covered; filter out what it swallows. *)
        let evict tail rev_head dropped lat =
          let kept =
            List.filter
              (fun (z' : Dbm.canon) ->
                not (Dbm.subset_quiet (z' :> Dbm.t) (z :> Dbm.t)))
              tail
          in
          let dropped = dropped + List.length tail - List.length kept in
          Dbm.note_scans ~phys:0 ~lattice:(lat + List.length tail);
          let fl = Obs.Flight.start () in
          Ptbl.set tbl k (List.rev_append rev_head (z :: kept));
          Obs.Flight.stop ph_insert fl;
          count := !count + 1 - dropped;
          Added { dropped; reopened = false }
        in
        (* Cover prefix: entries at least as wide as [z], in decreasing
           width order. Equal-width entries can also be evicted (only
           when clamping hides the strict inclusion), so they get the
           second check before surviving into the head. *)
        let rec cover entries rev_head dropped lat =
          match entries with
          | [] -> evict [] rev_head dropped lat
          | (z' : Dbm.canon) :: rest ->
            if z == z' then begin
              Dbm.note_scans ~phys:1 ~lattice:lat;
              Covered
            end
            else begin
              let w' = Dbm.width (z' :> Dbm.t) in
              if w' < wz then evict entries rev_head dropped lat
              else if Dbm.subset_quiet (z :> Dbm.t) (z' :> Dbm.t) then begin
                Dbm.note_scans ~phys:0 ~lattice:(lat + 1);
                Covered
              end
              else if
                w' = wz && Dbm.subset_quiet (z' :> Dbm.t) (z :> Dbm.t)
              then cover rest rev_head (dropped + 1) (lat + 2)
              else
                cover rest (z' :: rev_head) dropped
                  (lat + if w' = wz then 2 else 1)
            end
        in
        let verdict = cover entries [] 0 0 in
        Obs.Flight.stop ph_subsume fl_scan;
        verdict);
    kstale = k_no_stale;
    ksize = (fun () -> !count);
    kwords = reachable_words tbl;
  }

let best_cost_keyed ?(size_hint = default_size_hint) ~cost () =
  let best : int Codec.Tbl.t = Codec.Tbl.create size_hint in
  {
    kname = "best-cost";
    kinsert =
      (fun s ~key:k ~id:_ ->
        let c = cost s in
        match Codec.Tbl.find_opt best k with
        | Some old when old <= c -> Covered
        | prev ->
          Codec.Tbl.replace best k c;
          (* A previous entry means this key is being re-opened on a
             cheaper path: report it as such, not as an eviction. *)
          Added { dropped = 0; reopened = prev <> None });
    kstale =
      (fun s ~key:k ->
        match Codec.Tbl.find_opt best k with
        | Some b -> cost s > b
        | None -> false);
    ksize = (fun () -> Codec.Tbl.length best);
    kwords = reachable_words best;
  }
