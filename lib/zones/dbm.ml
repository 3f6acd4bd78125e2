type t = { dim : int; m : int array; mutable h : int; mutable w : int }

(* Internal representation: [m] holds raw Bound encodings row-major,
   [m.(i*dim + j)] bounding [x_i - x_j]. Invariant: the matrix is closed
   (canonical) and a semantically empty zone is normalized so that every
   entry is [Bound.lt_zero]. [h] is the sealed hash: [-1] until [seal]
   interns the DBM, then the memoized structural hash. Only interned
   representatives carry [h >= 0], so it doubles as the sealed flag.
   [w] is the memoized width score, filled alongside [h] at seal time
   (0 until then, recomputed on demand). *)

type canon = t

let clocks t = t.dim - 1
let raw t i j = t.m.((i * t.dim) + j)
let get t i j = Bound.of_int (raw t i j)

let le_zero = Bound.to_int Bound.le_zero
let lt_zero = Bound.to_int Bound.lt_zero
let inf = Bound.to_int Bound.inf

(* {!Bound}'s arithmetic on the raw encoding ([2m + 1] for [<= m], [2m]
   for [< m]), written out for the inner loops below: without
   cross-module inlining each [Bound] call there would be an out-of-line
   call. [add_fin] is [Bound.add] on two finite bounds, [add_raw] also
   takes [inf]. *)
let[@inline] add_fin a b = (((a asr 1) + (b asr 1)) lsl 1) lor (a land b land 1)
let[@inline] add_raw a b = if a = inf || b = inf then inf else add_fin a b
let[@inline] lt_raw m = m lsl 1
let[@inline] le_raw m = (m lsl 1) lor 1
let[@inline] nonneg k = if k > 0 then k else 0

let empty ~clocks =
  let dim = clocks + 1 in
  { dim; m = Array.make (dim * dim) lt_zero; h = -1; w = 0 }

let is_empty t = t.m.(0) < le_zero

let zero ~clocks =
  let dim = clocks + 1 in
  { dim; m = Array.make (dim * dim) le_zero; h = -1; w = 0 }

let universal ~clocks =
  let dim = clocks + 1 in
  let m = Array.make (dim * dim) inf in
  for i = 0 to dim - 1 do
    m.((i * dim) + i) <- le_zero;
    m.(i) <- le_zero (* row 0: 0 - x_j <= 0 *)
  done;
  { dim; m; h = -1; w = 0 }

let copy t = { t with m = Array.copy t.m; h = -1; w = 0 }

let normalize_empty t =
  Array.fill t.m 0 (t.dim * t.dim) lt_zero;
  t

(* Full Floyd-Warshall closure; used after bulk updates. Returns the
   (possibly emptied) argument, mutated in place. *)
let close_inplace t =
  let d = t.dim and m = t.m in
  (try
     for k = 0 to d - 1 do
       let kd = k * d in
       for i = 0 to d - 1 do
         let id = i * d in
         let ik = m.(id + k) in
         if ik <> inf then
           for j = 0 to d - 1 do
             let kj = m.(kd + j) in
             if kj <> inf then begin
               let via = add_fin ik kj in
               if via < m.(id + j) then m.(id + j) <- via
             end
           done
       done;
       for i = 0 to d - 1 do
         if m.((i * d) + i) < le_zero then raise Exit
       done
     done
   with Exit -> ignore (normalize_empty t));
  if t.m.(0) < le_zero then ignore (normalize_empty t);
  t

let constrain t i j b =
  let b = (b : Bound.t :> int) in
  if is_empty t then t
  else if b >= raw t i j then t
  else if add_raw (raw t j i) b < le_zero then
    (* The new bound on (i,j) closes a negative i-j cycle. *)
    empty ~clocks:(clocks t)
  else begin
    let t = copy t in
    let d = t.dim and m = t.m in
    let jd = j * d in
    m.((i * d) + j) <- b;
    (* Incremental closure: every new shortest path uses edge (i,j)
       exactly once, so relax all pairs through it. [b] is finite: it is
       below the entry it replaces. *)
    for k = 0 to d - 1 do
      let ki = m.((k * d) + i) in
      if ki <> inf then begin
        let kj = add_fin ki b and kd = k * d in
        for l = 0 to d - 1 do
          let jl = m.(jd + l) in
          if jl <> inf then begin
            let v = add_fin kj jl in
            if v < m.(kd + l) then m.(kd + l) <- v
          end
        done
      end
    done;
    let ok = ref true in
    for k = 0 to d - 1 do
      if m.((k * d) + k) < le_zero then ok := false
    done;
    if !ok then t else normalize_empty t
  end

(* Fault injection for the differential oracle harness: a deliberately
   broken DBM operation, switched on only by tests and `quantcli fuzz
   --inject`, so the harness can prove it detects real backend bugs.
   [Broken_up] makes [up] forget to open the upper bound of the highest
   clock (time stops for it); [Unclosed_intersect] skips re-closing
   after [intersect]. Neither the successor pipeline, nor subsumption,
   nor the deadlock check intersects zones: only [Fed.inter] does, for
   the clock-atom conjunctions of [Prop], so that fault is caught by the
   DBM property tests (test_zones "fault injection observable"), not by
   a fuzz sweep. *)
type fault = Broken_up | Unclosed_intersect

let injected_fault = ref None
let inject_fault f = injected_fault := f

let up t =
  if is_empty t then t
  else begin
    let t = copy t in
    let hi = if !injected_fault = Some Broken_up then t.dim - 2 else t.dim - 1 in
    for i = 1 to hi do
      t.m.((i * t.dim) + 0) <- inf
    done;
    t
  end

let down t =
  if is_empty t then t
  else begin
    let t = copy t in
    let d = t.dim and m = t.m in
    for i = 1 to d - 1 do
      m.(i) <- le_zero;
      for j = 1 to d - 1 do
        if m.((j * d) + i) < m.(i) then m.(i) <- m.((j * d) + i)
      done
    done;
    t
  end

let reset t x v =
  if is_empty t then t
  else begin
    assert (v >= 0);
    let t = copy t in
    let d = t.dim and m = t.m in
    let le_v = le_raw v and le_neg_v = le_raw (-v) in
    for j = 0 to d - 1 do
      if j <> x then begin
        m.((x * d) + j) <- add_raw le_v (raw t 0 j);
        m.((j * d) + x) <- add_raw (raw t j 0) le_neg_v
      end
    done;
    t
  end

let copy_clock t ~dst ~src =
  if is_empty t || dst = src then t
  else begin
    let t' = copy t in
    let d = t'.dim and m = t'.m in
    for j = 0 to d - 1 do
      if j <> dst then begin
        m.((dst * d) + j) <- raw t src j;
        m.((j * d) + dst) <- raw t j src
      end
    done;
    m.((dst * d) + src) <- le_zero;
    m.((src * d) + dst) <- le_zero;
    t'
  end

let free t x =
  if is_empty t then t
  else begin
    let t' = copy t in
    let d = t'.dim and m = t'.m in
    for j = 0 to d - 1 do
      if j <> x then begin
        m.((x * d) + j) <- inf;
        m.((j * d) + x) <- raw t j 0
      end
    done;
    t'
  end

let intersect t1 t2 =
  assert (t1.dim = t2.dim);
  if is_empty t1 then t1
  else if is_empty t2 then t2
  else begin
    let t = copy t1 in
    let changed = ref false in
    for k = 0 to (t.dim * t.dim) - 1 do
      if t2.m.(k) < t.m.(k) then begin
        t.m.(k) <- t2.m.(k);
        changed := true
      end
    done;
    if !changed && !injected_fault <> Some Unclosed_intersect then
      close_inplace t
    else t
  end

(* Comparison instrumentation. Sealing (below) makes every equality
   decision pointer-settled: sealed handles are unique representatives,
   so two distinct sealed pointers are distinct zones and [equal] never
   scans them. What remains a genuine matrix walk is the subset lattice
   check between distinct zones — counted separately, because no
   interning scheme can settle inclusion (as opposed to equality) by
   pointer. The counters let benchmarks prove phys-eq is the common
   case for equality while still reporting the lattice work. *)
type cmp_stats = {
  phys_hits : int;  (** comparisons settled by pointer identity *)
  full_scans : int;  (** equality checks that scanned matrix entries *)
  lattice_scans : int;
      (** subset checks between distinct zones (inherent slow path) *)
  intern_hits : int;  (** [seal] calls that found an existing DBM *)
  intern_misses : int;  (** [seal] calls that added a fresh DBM *)
}

(* Counter cells are per-domain {!Obs.Shard} slots: the sharded
   exploration engine runs comparisons from several domains at once,
   and plain shared refs would lose increments (and make per-run deltas
   nondeterministic) under that contention. Each domain tallies into its
   own record; [cmp_stats] sums them. Reads happen when the other
   domains are quiescent (the engines read at pool joins), so the sums
   are exact — and deterministic, because each shard's comparison
   multiset is fixed by its inputs, never by scheduling. *)
type cnt = {
  mutable phys : int;
  mutable full : int;
  mutable lattice : int;
  mutable ihit : int;
  mutable imiss : int;
}

let cnt_shards =
  Obs.Shard.create (fun () ->
      { phys = 0; full = 0; lattice = 0; ihit = 0; imiss = 0 })

let cnt () = Obs.Shard.my cnt_shards

let cmp_stats () =
  Obs.Shard.fold cnt_shards
    (fun acc _ c ->
      {
        phys_hits = acc.phys_hits + c.phys;
        full_scans = acc.full_scans + c.full;
        lattice_scans = acc.lattice_scans + c.lattice;
        intern_hits = acc.intern_hits + c.ihit;
        intern_misses = acc.intern_misses + c.imiss;
      })
    {
      phys_hits = 0;
      full_scans = 0;
      lattice_scans = 0;
      intern_hits = 0;
      intern_misses = 0;
    }

let reset_cmp_stats () =
  Obs.Shard.iter cnt_shards (fun _ c ->
      c.phys <- 0;
      c.full <- 0;
      c.lattice <- 0;
      c.ihit <- 0;
      c.imiss <- 0)

let subset_scan t1 t2 =
  assert (t1.dim = t2.dim);
  is_empty t1
  ||
  (* Early exit: most lattice probes fail, usually within a few
     entries. *)
  let n = t1.dim * t1.dim in
  let k = ref 0 in
  while !k < n && t1.m.(!k) <= t2.m.(!k) do
    incr k
  done;
  !k = n

let equal_scan t1 t2 =
  t1.dim = t2.dim && (t1.m = t2.m || (is_empty t1 && is_empty t2))

let subset t1 t2 =
  if t1 == t2 || t1.m == t2.m then begin
    let c = cnt () in
    c.phys <- c.phys + 1;
    true
  end
  else begin
    let c = cnt () in
    c.lattice <- c.lattice + 1;
    subset_scan t1 t2
  end

(* Both sealed and physically distinct: the canonical table guarantees a
   unique live representative per zone, so inequality is settled without
   touching the matrices. *)
let equal t1 t2 =
  if t1 == t2 || t1.m == t2.m then begin
    let c = cnt () in
    c.phys <- c.phys + 1;
    true
  end
  else if t1.h >= 0 && t2.h >= 0 then begin
    let c = cnt () in
    c.phys <- c.phys + 1;
    false
  end
  else begin
    let c = cnt () in
    c.full <- c.full + 1;
    equal_scan t1 t2
  end

let subset_quiet t1 t2 = t1 == t2 || t1.m == t2.m || subset_scan t1 t2

(* Bulk counter flush for callers that walk whole buckets of zones with
   the quiet comparisons and tally locally (in registers, not a ref
   store per scan), then account once per walk. *)
let note_scans ~phys ~lattice =
  let c = cnt () in
  c.phys <- c.phys + phys;
  c.lattice <- c.lattice + lattice

(* Splitmix-style word mixer, shared with the packed codec's hashing
   discipline: cheap, and far better avalanche than Hashtbl.hash on int
   arrays. The result is clamped non-negative so [-1] can mark "not yet
   sealed". *)
let mix h x =
  let h = h lxor x in
  let h = h * 0x2545F4914F6CDD1D in
  h lxor (h lsr 29)

let hash_m t =
  let acc = ref (mix 0x9E3779B9 t.dim) in
  let m = t.m in
  for k = 0 to Array.length m - 1 do
    acc := mix !acc m.(k)
  done;
  !acc land max_int

let hash t = if t.h >= 0 then t.h else hash_m t
let is_sealed t = t.h >= 0

(* Monotone width score: clamped sum of the int-encoded bound entries.
   [subset t1 t2] holds only if [t1.m] is pointwise [<=] [t2.m] (or [t1]
   is empty), and per-entry clamping preserves pointwise order, so
   [subset t1 t2] implies [width t1 <= width t2]. Empty zones sit at the
   bottom. The subsume store keeps its buckets sorted by decreasing
   width and uses the contrapositive to skip inclusion scans that cannot
   succeed. *)
let width_clamp = 1 lsl 30

let width_m t =
  if is_empty t then min_int
  else begin
    let s = ref 0 in
    let m = t.m in
    for k = 0 to Array.length m - 1 do
      let v = m.(k) in
      s :=
        !s
        + (if v > width_clamp then width_clamp
           else if v < -width_clamp then -width_clamp
           else v)
    done;
    !s
  end

let width t = if t.w <> 0 then t.w else width_m t

(* Row-0 dominance signature: the clocks' lower bounds [m.(1..n)], one
   saturating field of [f = 62/n - 1] bits each, with a zero guard bit
   above every field. A field maps the raw entry [v] to
   [clamp (v + cap - 1) 0 cap] with [cap = 2^f - 1], so [<= 0] (no lower
   bound) is [cap], [< 0] is [cap - 1], and every tighter lower bound
   steps down until it saturates at 0. The map is monotone, and
   [subset t1 t2] needs [t1.m.(j) <= t2.m.(j)] for every [j] (or [t1]
   empty, which signs as 0), so it implies a fieldwise [<=] between the
   signatures. Row 0 is where most failing inclusion scans stop. *)
let sig_bits n = if n <= 0 then 0 else (62 / n) - 1

let signature t =
  let n = t.dim - 1 in
  let f = sig_bits n in
  if f <= 0 || is_empty t then 0
  else begin
    let cap = (1 lsl f) - 1 and s = ref 0 in
    for j = 1 to n do
      let v = t.m.(j) in
      let field = if v >= 1 then cap else if v <= 1 - cap then 0 else v + cap - 1 in
      s := !s lor (field lsl ((j - 1) * (f + 1)))
    done;
    !s
  end

let sig_guards ~clocks =
  let f = sig_bits clocks in
  let g = ref 0 in
  if f > 0 then
    for j = 0 to clocks - 1 do
      g := !g lor (1 lsl ((j * (f + 1)) + f))
    done;
  !g

(* SWAR: per field, [b + 2^f - a] stays within its [f + 1] bits and keeps
   the guard bit exactly when [a <= b], so no borrow crosses fields. *)
let sig_le ~guards a b = ((b lor guards) - a) land guards = guards

(* Hash-consing: canonical DBMs are interned in a weak set so that equal
   zones share one representative, giving [equal]/[subset] their
   pointer-equality fast path and deduplicating passed-list storage. The
   set is weak: representatives no longer referenced by any store are
   collected. Safe because every exported operation copies before
   mutating. Access is mutex-guarded so [seal] may be called from
   parallel domains. *)
module Hc = Weak.Make (struct
  type nonrec t = t

  let equal a b = a.dim = b.dim && a.m = b.m
  let hash = hash
end)

let hc_table = Hc.create 4096
let hc_mu = Mutex.create ()

let intern_size () =
  Mutex.lock hc_mu;
  let n = Hc.count hc_table in
  Mutex.unlock hc_mu;
  n

type extrapolation =
  | No_extrapolation
  | Extra_m of int array
  | Extra_lu of { lower : int array; upper : int array }

let relation t1 t2 =
  match subset t1 t2, subset t2 t1 with
  | true, true -> `Equal
  | true, false -> `Subset
  | false, true -> `Superset
  | false, false -> `Incomparable

(* Shared body of Extra-M and Extra-LU: an entry [x_i - x_j ≺ c] is
   dropped when [c > lo.(i)] and raised to [< -up.(j)] when [c < -up.(j)]
   (both bounds clamped at 0, index 0 bounded by 0). A clock whose [lo]
   and [up] entries are both negative is inactive and freed first, in
   place, as [free] does: its row becomes unbounded and [m[j][x] :=
   m[j][0]]. Freeing keeps the matrix closed, so the one re-closure
   after the pass still covers everything. *)
let extrapolate_with t ~lo ~up =
  if is_empty t then t
  else begin
    let t' = copy t in
    let d = t'.dim and m = t'.m in
    for x = 1 to d - 1 do
      if lo.(x) < 0 && up.(x) < 0 then begin
        let xd = x * d in
        for j = 0 to d - 1 do
          if j <> x then begin
            m.(xd + j) <- inf;
            m.((j * d) + x) <- m.(j * d)
          end
        done
      end
    done;
    let lo_of i = if i = 0 then 0 else nonneg lo.(i) in
    let up_of j = if j = 0 then 0 else nonneg up.(j) in
    let changed = ref false in
    for i = 0 to d - 1 do
      let li = lo_of i and id = i * d in
      for j = 0 to d - 1 do
        if i <> j then begin
          let b = m.(id + j) in
          if b <> inf then begin
            let c = b asr 1 in
            if c > li then begin
              m.(id + j) <- inf;
              changed := true
            end
            else begin
              let uj = up_of j in
              if c < -uj then begin
                m.(id + j) <- lt_raw (-uj);
                changed := true
              end
            end
          end
        end
      done
    done;
    if !changed then close_inplace t' else t'
  end

let extrapolate t k = extrapolate_with t ~lo:k ~up:k

(* Extra-LU (Behrmann, Bouyer, Larsen, Pelánek): an entry [x_i - x_j ≺ c]
   only matters below the largest lower-guard constant of [x_i] (above it,
   every lower guard on [x_i] is satisfied anyway) and above the negated
   largest upper-guard constant of [x_j]. With [lower = upper = k] this
   coincides with Extra-M. Widening only — a non-empty zone stays
   non-empty. *)
let extrapolate_lu t ~lower ~upper = extrapolate_with t ~lo:lower ~up:upper

let apply_extrapolation extra t =
  match extra with
  | No_extrapolation -> t
  | Extra_m k -> extrapolate t k
  | Extra_lu { lower; upper } -> extrapolate_lu t ~lower ~upper

(* The sealing boundary. Does not re-close: every pipeline operation
   leaves its result closed, so a closure here would only repeat O(n³)
   work on every successor. Sealing an already-sealed representative
   is the identity (a run applies one extrapolation consistently, so
   re-extrapolating would be a no-op).
   On a miss the hash is memoized before the weak-table probe so the
   probe reuses it; if an older representative wins, the loser's [h] is
   reset so [is_sealed] stays an intern-membership test. *)
let ph_seal = Obs.Flight.intern "dbm.seal"
let ph_extrapolate = Obs.Flight.intern "dbm.extrapolate"

let seal ?(extra = No_extrapolation) t =
  if is_sealed t then begin
    let c = cnt () in
    c.ihit <- c.ihit + 1;
    t
  end
  else begin
    (* Flight phases time the slow path only: the sealed-identity hit
       above costs one field read and must stay free. Extrapolation is
       the slow path's first step, so the two phases chain on a shared
       clock read and report disjoint times — [dbm.seal] is the
       hash/width/intern remainder, not a superset of
       [dbm.extrapolate]. *)
    let fx = Obs.Flight.start () in
    let t = apply_extrapolation extra t in
    let fl = Obs.Flight.stop_start ph_extrapolate fx in
    let r =
      if is_sealed t then begin
        let c = cnt () in
        c.ihit <- c.ihit + 1;
        t
      end
      else begin
        t.h <- hash_m t;
        t.w <- width_m t;
        Mutex.lock hc_mu;
        let r =
          match Hc.merge hc_table t with
          | r -> Mutex.unlock hc_mu; r
          | exception e -> Mutex.unlock hc_mu; raise e
        in
        let c = cnt () in
        if r == t then c.imiss <- c.imiss + 1
        else begin
          t.h <- -1;
          c.ihit <- c.ihit + 1
        end;
        r
      end
    in
    Obs.Flight.stop ph_seal fl;
    r
  end

let satisfies t v =
  (not (is_empty t))
  &&
  let d = t.dim in
  let ok = ref true in
  for i = 0 to d - 1 do
    for j = 0 to d - 1 do
      if not (Bound.sat (get t i j) (v.(i) -. v.(j))) then ok := false
    done
  done;
  !ok

(* Sampling scales every constant by F = dim + 1 so that strict bounds
   become weak integer bounds ([< m] turns into [<= F*m - 1]) on F-scaled
   valuations. F exceeds the length of any simple cycle, so a non-empty
   DBM stays non-empty after scaling. The scaled matrix is re-closed
   (scaling does not preserve canonicity) and a greedy assignment in
   clock order then always succeeds. *)
let sample rng t =
  if is_empty t then None
  else begin
    let d = t.dim in
    (* Power of two > dim: large enough that no simple cycle of strict
       bounds collapses, and exact as a binary-float denominator so the
       returned valuation satisfies its constraints without rounding. *)
    let factor =
      let rec pow2 f = if f > d then f else pow2 (2 * f) in
      pow2 2
    in
    let big = max_int / 4 in
    let s = Array.make (d * d) big in
    for i = 0 to d - 1 do
      for j = 0 to d - 1 do
        let b = get t i j in
        if not (Bound.is_inf b) then begin
          let c = factor * Bound.constant b in
          s.((i * d) + j) <- (if Bound.is_strict b then c - 1 else c)
        end
      done
    done;
    (* Plain min-plus Floyd-Warshall on the scaled weights. *)
    for k = 0 to d - 1 do
      for i = 0 to d - 1 do
        let ik = s.((i * d) + k) in
        if ik < big then
          for j = 0 to d - 1 do
            let kj = s.((k * d) + j) in
            if kj < big && ik + kj < s.((i * d) + j) then
              s.((i * d) + j) <- ik + kj
          done
      done
    done;
    for i = 0 to d - 1 do
      assert (s.((i * d) + i) >= 0)
    done;
    let v = Array.make d 0 in
    for i = 1 to d - 1 do
      let lo = ref 0 and hi = ref None in
      for j = 0 to i - 1 do
        let lower = s.((j * d) + i) in
        if lower < big then lo := max !lo (v.(j) - lower);
        let upper = s.((i * d) + j) in
        if upper < big then begin
          let u = v.(j) + upper in
          hi := Some (match !hi with None -> u | Some h -> min h u)
        end
      done;
      let value =
        match !hi with
        | Some h ->
          assert (h >= !lo);
          !lo + Random.State.int rng (h - !lo + 1)
        | None -> !lo + Random.State.int rng (4 * factor)
      in
      v.(i) <- value
    done;
    Some (Array.map (fun x -> float_of_int x /. float_of_int factor) v)
  end

let default_names d =
  Array.init d (fun i -> if i = 0 then "0" else Printf.sprintf "x%d" i)

let pp ?names ppf t =
  if is_empty t then Format.pp_print_string ppf "false"
  else begin
    let d = t.dim in
    let names = match names with Some n -> n | None -> default_names d in
    let atoms = ref [] in
    for i = d - 1 downto 0 do
      for j = d - 1 downto 0 do
        if i <> j then begin
          let b = get t i j in
          let trivial =
            Bound.is_inf b
            || (i = 0 && Bound.equal b Bound.le_zero)
          in
          if not trivial then begin
            let lhs =
              if j = 0 then names.(i)
              else if i = 0 then "-" ^ names.(j)
              else names.(i) ^ "-" ^ names.(j)
            in
            atoms := (lhs ^ Bound.to_string b) :: !atoms
          end
        end
      done
    done;
    match !atoms with
    | [] -> Format.pp_print_string ppf "true"
    | atoms -> Format.pp_print_string ppf (String.concat " & " atoms)
  end

let to_string ?names t = Format.asprintf "%a" (pp ?names) t
let to_array t = Array.map Bound.of_int t.m

let of_array ~clocks arr =
  let dim = clocks + 1 in
  assert (Array.length arr = dim * dim);
  close_inplace { dim; m = Array.map Bound.to_int arr; h = -1; w = 0 }
