type t = {
  visited : int;
  stored : int;
  subsumed : int;
  dropped : int;
  reopened : int;
  peak_frontier : int;
  store_words : int;
  truncated : bool;
  time_s : float;
  dbm_phys_eq : int;
  dbm_lattice_cmp : int;
  phases : (string * (int * float)) list;
      (** flight-recorder phase totals attributable to this run —
          [(name, (count, total seconds))], sorted by name; empty when
          the recorder was off *)
}

let zero =
  {
    visited = 0;
    stored = 0;
    subsumed = 0;
    dropped = 0;
    reopened = 0;
    peak_frontier = 0;
    store_words = 0;
    truncated = false;
    time_s = 0.0;
    dbm_phys_eq = 0;
    dbm_lattice_cmp = 0;
    phases = [];
  }

let basic ~visited ~stored = { zero with visited; stored }

(* "Attempts" are insertions the store answered definitively: kept,
   evicted-by or covered-by an incomparable state. Re-opened best-cost
   states are counted separately in [reopened] — a re-opening is new
   work, not a cache answer — so CORA runs report both numbers instead
   of folding re-openings into the hit rate's denominator. *)
let store_hit_rate t =
  let attempts = t.stored + t.dropped + t.subsumed in
  if attempts = 0 then 0.0 else float_of_int t.subsumed /. float_of_int attempts

(* [phase_delta before after] — what the flight totals gained between
   two snapshots, i.e. the phase work of the bracketed run. Both lists
   are sorted by name (Flight.totals guarantees it); names only ever
   gain counts, so a one-pass merge suffices. *)
let phase_delta before after =
  let find name = List.assoc_opt name before in
  List.filter_map
    (fun (name, (c, s)) ->
      let c0, s0 = match find name with Some v -> v | None -> (0, 0.0) in
      if c - c0 > 0 then Some (name, (c - c0, s -. s0)) else None)
    after

let phases_json t =
  Obs.Json.Obj
    (List.map
       (fun (name, (count, total_s)) ->
         ( name,
           Obs.Json.Obj
             [
               ("count", Obs.Json.Int count);
               ("total_s", Obs.Json.Float total_s);
             ] ))
       t.phases)

let to_json_value t =
  Obs.Json.Obj
    ([
      ("visited", Obs.Json.Int t.visited);
      ("stored", Obs.Json.Int t.stored);
      ("subsumed", Obs.Json.Int t.subsumed);
      ("dropped", Obs.Json.Int t.dropped);
      ("reopened", Obs.Json.Int t.reopened);
      ("peak_frontier", Obs.Json.Int t.peak_frontier);
      ("store_words", Obs.Json.Int t.store_words);
      ("store_hit_rate", Obs.Json.Float (store_hit_rate t));
      ("truncated", Obs.Json.Bool t.truncated);
      ("time_s", Obs.Json.Float t.time_s);
      ("dbm_phys_eq", Obs.Json.Int t.dbm_phys_eq);
      ("dbm_lattice_cmp", Obs.Json.Int t.dbm_lattice_cmp);
    ]
    @ if t.phases = [] then [] else [ ("phases", phases_json t) ])

let to_json t = Obs.Json.to_string (to_json_value t)

let pp ppf t =
  Format.fprintf ppf
    "visited %d, stored %d, subsumed %d, dropped %d, reopened %d, peak \
     frontier %d, hit rate %.2f, %.3fs"
    t.visited t.stored t.subsumed t.dropped t.reopened t.peak_frontier
    (store_hit_rate t) t.time_s
