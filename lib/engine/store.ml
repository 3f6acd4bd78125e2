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

(* The zones one subsume bucket holds under one packed key: pairwise
   incomparable, with each zone's {!Dbm.width} and row-0 signature
   ({!Dbm.signature}) in parallel arrays, so a walk reads a zone record
   only after both pre-filters pass. Entries sit in increasing width
   order and walks run from the top, widest first. A candidate lands
   between the narrower entries and the wider ones, so an insert moves
   the wider side up a slot: it is the shorter side on fischer-5 (24
   entries on average, against 64 narrower ones), and every move of a
   zone slot pays OCaml's write barrier, while the int arrays move with
   plain stores. Zone slots at and past [len] hold [vacant], so an
   evicted zone is not kept alive by the array it left. *)
type bucket = {
  mutable len : int;
  ws : int array;
  sigs : int array;
  zs : Dbm.canon array;
}

let vacant = Dbm.seal (Dbm.empty ~clocks:0)

(* What every key not stored yet finds: empty and full at once, so the
   first insert under a key allocates the key's own bucket. *)
let no_bucket = { len = 0; ws = [||]; sigs = [||]; zs = [||] }

(* Moves [len] entries of [src] from [p] to [dst] at [q]; overlap-safe
   within one bucket. *)
let move_entries src p dst q len =
  let step j =
    dst.ws.(q + j) <- src.ws.(p + j);
    dst.sigs.(q + j) <- src.sigs.(p + j);
    dst.zs.(q + j) <- src.zs.(p + j)
  in
  if q > p then for j = len - 1 downto 0 do step j done
  else if q < p || src != dst then for j = 0 to len - 1 do step j done

(* [z] joins bucket [b] of key [k] above the [t] narrower entries it
   kept, below the [wide] wider ones, which now sit at [from]; zone
   slots below the old length [n] that fall free are cleared. Only a
   full bucket that drops nothing lacks room: it grows by half (less
   slack than doubling, for a few more copies), and the copy replaces
   it in [tbl]. *)
let place tbl k b ~n ~t ~from ~wide z ~wz ~sz =
  let len = t + 1 + wide in
  let b =
    if len <= Array.length b.zs then begin
      move_entries b from b (t + 1) wide;
      if len < n then Array.fill b.zs len (n - len) vacant;
      b
    end
    else begin
      let cap = max 2 (Array.length b.zs * 3 / 2) in
      let g =
        {
          len;
          ws = Array.make cap 0;
          sigs = Array.make cap 0;
          zs = Array.make cap vacant;
        }
      in
      move_entries b 0 g 0 t;
      move_entries b from g (t + 1) wide;
      Ptbl.set tbl k g;
      g
    end
  in
  b.ws.(t) <- wz;
  b.sigs.(t) <- sz;
  b.zs.(t) <- z;
  b.len <- len

let subsume_keyed ?(size_hint = default_size_hint) ~zone () =
  let tbl : bucket Ptbl.t = Ptbl.create size_hint in
  (* The width score is monotone for inclusion, so only the entries at
     least as wide as a candidate can cover it (and the widest zones —
     the likeliest coverers — are probed first), and only those at most
     as wide can be evicted by it: each insert pays one inclusion
     direction per entry instead of two full walks. The signature test,
     monotone too, settles most remaining non-inclusions without a
     scan. No exact-match front cache: a re-proposed candidate carries
     the same sealed handle and settles on a pointer comparison during
     the cover walk. Every inclusion decision counts as one lattice
     scan, pre-filter rejections included, tallied in locals and flushed
     to {!Dbm.cmp_stats} once per insert. *)
  let count = ref 0 in
  {
    kname = "subsume";
    kinsert =
      (fun s ~key:k ~id:_ ->
        let z : Dbm.canon = zone s in
        let fl = Obs.Flight.start () in
        let b = Ptbl.find_default tbl k no_bucket in
        let fl_scan = Obs.Flight.stop_start ph_probe fl in
        let zt = (z :> Dbm.t) in
        let wz = Dbm.width zt and sz = Dbm.signature zt in
        let guards = Dbm.sig_guards ~clocks:(Dbm.clocks zt) in
        let n = b.len and ws = b.ws and sigs = b.sigs and zs = b.zs in
        (* Eviction walk over the entries below [q], all narrower than
           [z], so none covers it; the kept ones close up in place, and
           [z] goes above them, below the [n - 1 - h] wider ones kept
           at [h + 1]. *)
        let evict q h lat =
          let t = ref 0 in
          for j = 0 to q - 1 do
            if
              not
                (Dbm.sig_le ~guards sigs.(j) sz
                && Dbm.subset_quiet (zs.(j) :> Dbm.t) zt)
            then begin
              if !t < j then move_entries b j b !t 1;
              incr t
            end
          done;
          let t = !t and wide = n - 1 - h in
          let dropped = n - t - wide in
          Dbm.note_scans ~phys:0 ~lattice:(lat + q);
          let fl = Obs.Flight.start () in
          place tbl k b ~n ~t ~from:(h + 1) ~wide z ~wz ~sz;
          Obs.Flight.stop ph_insert fl;
          count := !count + 1 - dropped;
          Added { dropped; reopened = false }
        in
        (* Cover walk, from the top down over the entries at least as
           wide as [z]. Equal-width entries can also be evicted (only
           when clamping hides the strict inclusion), so they get the
           second check, and the kept ones close up in place: [i] reads,
           [h] writes. [h > i] only after such a drop, and then nothing
           covers [z], since its coverer would contain the dropped entry
           too. *)
        let covered h i ~phys ~lattice =
          assert (h = i);
          Dbm.note_scans ~phys ~lattice;
          Covered
        in
        let rec cover i h lat =
          if i < 0 then evict 0 h lat
          else begin
            let z' = zs.(i) in
            if z == z' then covered h i ~phys:1 ~lattice:lat
            else begin
              let w' = ws.(i) and s' = sigs.(i) in
              if w' < wz then evict (i + 1) h lat
              else if
                Dbm.sig_le ~guards sz s' && Dbm.subset_quiet zt (z' :> Dbm.t)
              then covered h i ~phys:0 ~lattice:(lat + 1)
              else if
                w' = wz
                && Dbm.sig_le ~guards s' sz
                && Dbm.subset_quiet (z' :> Dbm.t) zt
              then cover (i - 1) h (lat + 2)
              else begin
                if h > i then move_entries b i b h 1;
                cover (i - 1) (h - 1) (lat + if w' = wz then 2 else 1)
              end
            end
          end
        in
        let verdict = cover (n - 1) (n - 1) 0 in
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
