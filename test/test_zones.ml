(* Tests for the DBM substrate: Bound arithmetic, DBM operations validated
   against concrete sampled valuations, and exact federation subtraction. *)

module Bound = Zones.Bound
module Dbm = Zones.Dbm
module Fed = Zones.Fed

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* Bound unit tests                                                    *)
(* ------------------------------------------------------------------ *)

let test_bound_order () =
  check "lt m < le m" true (Bound.compare (Bound.lt 3) (Bound.le 3) < 0);
  check "le m < lt (m+1)" true (Bound.compare (Bound.le 3) (Bound.lt 4) < 0);
  check "finite < inf" true (Bound.compare (Bound.le 1000000) Bound.inf < 0);
  check "negative constants" true (Bound.compare (Bound.le (-5)) (Bound.lt (-4)) < 0)

let test_bound_add () =
  let ( +! ) = Bound.add in
  check "le+le weak" false (Bound.is_strict (Bound.le 2 +! Bound.le 3));
  check_int "le+le const" 5 (Bound.constant (Bound.le 2 +! Bound.le 3));
  check "le+lt strict" true (Bound.is_strict (Bound.le 2 +! Bound.lt 3));
  check_int "lt+lt const" (-2) (Bound.constant (Bound.lt (-4) +! Bound.lt 2));
  check "inf absorbs" true (Bound.is_inf (Bound.inf +! Bound.le 1))

let test_bound_negate () =
  check "neg le" true (Bound.is_strict (Bound.negate (Bound.le 3)));
  check_int "neg le const" (-3) (Bound.constant (Bound.negate (Bound.le 3)));
  check "neg lt" false (Bound.is_strict (Bound.negate (Bound.lt (-2))));
  check_int "neg lt const" 2 (Bound.constant (Bound.negate (Bound.lt (-2))))

let test_bound_sat () =
  check "sat le edge" true (Bound.sat (Bound.le 3) 3.0);
  check "sat lt edge" false (Bound.sat (Bound.lt 3) 3.0);
  check "sat lt below" true (Bound.sat (Bound.lt 3) 2.5);
  check "sat inf" true (Bound.sat Bound.inf 1e9)

(* ------------------------------------------------------------------ *)
(* DBM unit tests                                                      *)
(* ------------------------------------------------------------------ *)

let test_zero_zone () =
  let z = Dbm.zero ~clocks:2 in
  check "zero nonempty" false (Dbm.is_empty z);
  check "origin in zero" true (Dbm.satisfies z [| 0.; 0.; 0. |]);
  check "not offset" false (Dbm.satisfies z [| 0.; 1.; 0. |])

let test_up_down () =
  let z = Dbm.zero ~clocks:2 in
  let up = Dbm.up z in
  check "diagonal after up" true (Dbm.satisfies up [| 0.; 4.; 4. |]);
  check "off-diagonal not after up" false (Dbm.satisfies up [| 0.; 4.; 3. |]);
  let shifted = Dbm.reset (Dbm.up z) 1 0 in
  (* x1 = 0, x2 arbitrary >= x1 *)
  check "reset after up" true (Dbm.satisfies shifted [| 0.; 0.; 7. |]);
  let past = Dbm.down shifted in
  check "down relaxes lower bounds" true (Dbm.satisfies past [| 0.; 0.; 1. |])

let test_constrain_empties () =
  let z = Dbm.zero ~clocks:1 in
  let z' = Dbm.constrain z 1 0 (Bound.lt 0) in
  check "x<0 empties x=0" true (Dbm.is_empty z');
  let u = Dbm.universal ~clocks:1 in
  let bounded = Dbm.constrain u 1 0 (Bound.le 5) in
  let conflict = Dbm.constrain bounded 0 1 (Bound.lt (-6)) in
  check "x<=5 & x>6 empty" true (Dbm.is_empty conflict)

let test_intersect_subset () =
  let u = Dbm.universal ~clocks:2 in
  let a = Dbm.constrain u 1 0 (Bound.le 5) in
  let b = Dbm.constrain u 1 0 (Bound.le 3) in
  check "b subset a" true (Dbm.subset b a);
  check "a not subset b" false (Dbm.subset a b);
  check "inter = b" true (Dbm.equal (Dbm.intersect a b) b);
  check "relation subset" true (Dbm.relation b a = `Subset)

let test_reset_copy_free () =
  let u = Dbm.universal ~clocks:2 in
  let z = Dbm.constrain u 1 0 (Bound.le 5) in
  let r = Dbm.reset z 1 2 in
  check "reset value" true (Dbm.satisfies r [| 0.; 2.; 9. |]);
  check "reset excludes others" false (Dbm.satisfies r [| 0.; 3.; 9. |]);
  let c = Dbm.copy_clock z ~dst:2 ~src:1 in
  check "copy ties clocks" true (Dbm.satisfies c [| 0.; 4.; 4. |]);
  check "copy excludes untied" false (Dbm.satisfies c [| 0.; 4.; 5. |]);
  let f = Dbm.free r 1 in
  check "free forgets" true (Dbm.satisfies f [| 0.; 100.; 9. |])

let test_extrapolate_widen () =
  let u = Dbm.universal ~clocks:1 in
  let z = Dbm.constrain u 1 0 (Bound.le 50) in
  let z = Dbm.constrain z 0 1 (Bound.le (-40)) in
  (* With max constant 10, both the upper bound 50 and the lower bound 40
     exceed the relevant constants and must widen. *)
  let w = Dbm.extrapolate z [| 0; 10 |] in
  check "widened contains original" true (Dbm.subset z w);
  check "upper bound dropped" true (Dbm.satisfies w [| 0.; 1000. |]);
  check "lower bound relaxed to >k" true (Dbm.satisfies w [| 0.; 10.5 |]);
  check "below k excluded" false (Dbm.satisfies w [| 0.; 9. |])

let test_pp () =
  let u = Dbm.universal ~clocks:2 in
  let z = Dbm.constrain u 1 0 (Bound.le 5) in
  let s = Dbm.to_string ~names:[| "0"; "x"; "y" |] z in
  check "pp mentions x<=5" true
    (Astring.String.is_infix ~affix:"x<=5" s
     || String.length s > 0 && not (String.equal s "false"))

(* ------------------------------------------------------------------ *)
(* Random-DBM generator and property tests                             *)
(* ------------------------------------------------------------------ *)

let rng_of_seed seed = Random.State.make [| seed |]

(* Build a random (possibly empty) DBM by constraining / transforming the
   universal zone with a seeded sequence of operations. *)
let random_dbm rng ~n_clocks ~ops =
  let z = ref (Dbm.universal ~clocks:n_clocks) in
  for _ = 1 to ops do
    let i = Random.State.int rng (n_clocks + 1)
    and j = Random.State.int rng (n_clocks + 1) in
    if i <> j then begin
      let c = Random.State.int rng 21 - 10 in
      let b = if Random.State.bool rng then Bound.le c else Bound.lt c in
      match Random.State.int rng 5 with
      | 0 -> z := Dbm.up !z
      | 1 -> if i > 0 then z := Dbm.reset !z i (abs c)
      | _ -> z := Dbm.constrain !z i j b
    end
  done;
  !z

let dbm_pair_gen =
  QCheck.Gen.(
    map
      (fun (seed, n_clocks, ops) ->
        let rng = rng_of_seed seed in
        let a = random_dbm rng ~n_clocks ~ops in
        let b = random_dbm rng ~n_clocks ~ops in
        (n_clocks, a, b))
      (triple (int_bound 1_000_000) (int_range 1 4) (int_range 1 8)))

let dbm_pair_arb =
  QCheck.make dbm_pair_gen ~print:(fun (_, a, b) ->
      Printf.sprintf "A = %s\nB = %s" (Dbm.to_string a) (Dbm.to_string b))

let samples_of rng z k =
  let rec loop acc i =
    if i = 0 then acc
    else
      match Dbm.sample rng z with
      | Some v -> loop (v :: acc) (i - 1)
      | None -> acc
  in
  loop [] k

let prop_sample_member =
  QCheck.Test.make ~name:"sample lies in its zone" ~count:300 dbm_pair_arb
    (fun (_, a, _) ->
      let rng = rng_of_seed 7 in
      List.for_all (Dbm.satisfies a) (samples_of rng a 10))

let prop_intersect_sound =
  QCheck.Test.make ~name:"intersection = conjunction on samples" ~count:300
    dbm_pair_arb (fun (_, a, b) ->
      let rng = rng_of_seed 11 in
      let inter = Dbm.intersect a b in
      let from_inter = samples_of rng inter 10 in
      let in_both v = Dbm.satisfies a v && Dbm.satisfies b v in
      List.for_all in_both from_inter
      && List.for_all
           (fun v -> if in_both v then Dbm.satisfies inter v else true)
           (samples_of rng a 10 @ samples_of rng b 10))

let sig_le ~clocks a b =
  Dbm.sig_le ~guards:(Dbm.sig_guards ~clocks) (Dbm.signature a)
    (Dbm.signature b)

(* The row-0 signature is a necessary condition for inclusion: a subset
   pair (the empty zone included) always passes its test. *)
let prop_subset_vs_subtract =
  QCheck.Test.make ~name:"subset agrees with empty subtraction" ~count:300
    dbm_pair_arb (fun (n, a, b) ->
      Dbm.subset a b = Fed.is_empty (Fed.subtract_dbm a b)
      && ((not (Dbm.subset a b)) || sig_le ~clocks:n a b)
      && sig_le ~clocks:n (Dbm.empty ~clocks:n) b)

let prop_subtract_exact =
  QCheck.Test.make ~name:"subtraction exact on samples" ~count:300 dbm_pair_arb
    (fun (_, a, b) ->
      let rng = rng_of_seed 13 in
      let diff = Fed.subtract_dbm a b in
      let in_diff v = Fed.mem diff v in
      List.for_all
        (fun v -> in_diff v = (Dbm.satisfies a v && not (Dbm.satisfies b v)))
        (samples_of rng a 15)
      && List.for_all
           (fun v -> Dbm.satisfies a v && not (Dbm.satisfies b v))
           (List.concat_map
              (fun z -> samples_of rng z 5)
              (Fed.dbms diff)))

let prop_subtract_disjoint =
  QCheck.Test.make ~name:"subtraction pieces are disjoint" ~count:200
    dbm_pair_arb (fun (_, a, b) ->
      let rng = rng_of_seed 17 in
      let pieces = Fed.dbms (Fed.subtract_dbm a b) in
      let rec pairwise = function
        | [] -> true
        | z :: rest ->
          List.for_all
            (fun z' ->
              List.for_all
                (fun v -> not (Dbm.satisfies z' v))
                (samples_of rng z 5))
            rest
          && pairwise rest
      in
      pairwise pieces)

let prop_up_monotone =
  QCheck.Test.make ~name:"up contains zone and future points" ~count:300
    dbm_pair_arb (fun (_, a, _) ->
      let rng = rng_of_seed 19 in
      let future = Dbm.up a in
      Dbm.subset a future
      && List.for_all
           (fun v ->
             let shifted = Array.mapi (fun i x -> if i = 0 then x else x +. 2.5) v in
             Dbm.satisfies future shifted)
           (samples_of rng a 10))

let prop_down_contains =
  QCheck.Test.make ~name:"down contains zone and past points stay >=0" ~count:300
    dbm_pair_arb (fun (_, a, _) ->
      let rng = rng_of_seed 23 in
      let past = Dbm.down a in
      Dbm.subset a past
      && List.for_all
           (fun v -> Array.for_all (fun x -> x >= 0.) v)
           (samples_of rng past 10))

let prop_reset_sound =
  QCheck.Test.make ~name:"reset pins clock and preserves others" ~count:300
    dbm_pair_arb (fun (n, a, _) ->
      let rng = rng_of_seed 29 in
      let x = 1 + (n - 1) in
      let r = Dbm.reset a x 3 in
      Dbm.is_empty a
      || List.for_all
           (fun v ->
             let v' = Array.copy v in
             v'.(x) <- 3.;
             Dbm.satisfies r v')
           (samples_of rng a 10))

let prop_extrapolate_widens =
  QCheck.Test.make ~name:"extrapolation only widens" ~count:300 dbm_pair_arb
    (fun (n, a, _) ->
      let k = Array.make (n + 1) 5 in
      Dbm.subset a (Dbm.extrapolate a k))

let prop_equal_hash =
  QCheck.Test.make ~name:"equal zones share hash" ~count:300 dbm_pair_arb
    (fun (_, a, b) -> (not (Dbm.equal a b)) || Dbm.hash a = Dbm.hash b)

let prop_roundtrip =
  QCheck.Test.make ~name:"to_array/of_array roundtrip" ~count:200 dbm_pair_arb
    (fun (n, a, _) ->
      Dbm.equal a (Dbm.of_array ~clocks:n (Dbm.to_array a)))

(* ------------------------------------------------------------------ *)
(* Canonical-form invariants. [of_array] re-closes its input, so a DBM
   is in canonical form exactly when rebuilding it from its own raw
   bounds is a structural no-op.                                       *)
(* ------------------------------------------------------------------ *)

let is_canonical n z = Dbm.to_array z = Dbm.to_array (Dbm.of_array ~clocks:n (Dbm.to_array z))

let prop_canonical_idempotent =
  QCheck.Test.make ~name:"canonicalization is idempotent" ~count:500
    dbm_pair_arb (fun (n, a, _) ->
      let once = Dbm.of_array ~clocks:n (Dbm.to_array a) in
      let twice = Dbm.of_array ~clocks:n (Dbm.to_array once) in
      Dbm.to_array once = Dbm.to_array twice)

let prop_seal_phys_equal =
  QCheck.Test.make ~name:"seal is pointer-equal on equal zones" ~count:500
    dbm_pair_arb (fun (n, a, b) ->
      (* A structurally equal copy built through an independent path
         must seal to the very same representative. *)
      let a' = Dbm.of_array ~clocks:n (Dbm.to_array a) in
      Dbm.seal a == Dbm.seal a'
      && (not (Dbm.equal a b)) = not (Dbm.seal a == Dbm.seal b))

let prop_seal_idempotent =
  QCheck.Test.make ~name:"seal is idempotent" ~count:500 dbm_pair_arb
    (fun (n, a, _) ->
      let k = Array.make (n + 1) 5 in
      let c = Dbm.seal ~extra:(Dbm.Extra_m k) a in
      Dbm.seal ~extra:(Dbm.Extra_m k) (c :> Dbm.t) == c
      && Dbm.seal (c :> Dbm.t) == c
      && Dbm.is_sealed (c :> Dbm.t)
      && Dbm.hash (c :> Dbm.t) = Dbm.hash (c :> Dbm.t))

let prop_lu_widens =
  QCheck.Test.make
    ~name:"Extra-LU widens, is canonical, and is coarser than Extra-M"
    ~count:500 dbm_pair_arb (fun (n, a, _) ->
      let lower = Array.init (n + 1) (fun i -> i * 3 mod 7)
      and upper = Array.init (n + 1) (fun i -> i * 5 mod 9) in
      let w = Dbm.extrapolate_lu a ~lower ~upper in
      let kmax = Array.init (n + 1) (fun i -> max lower.(i) upper.(i)) in
      Dbm.subset a w
      && is_canonical n w
      (* smaller per-direction bounds can only widen further *)
      && Dbm.subset (Dbm.extrapolate a kmax) w
      (* with both directions at the max constant, LU degenerates to M *)
      && Dbm.equal (Dbm.extrapolate_lu a ~lower:kmax ~upper:kmax)
           (Dbm.extrapolate a kmax))

(* A negative entry frees its clock inside the extrapolation pass: the
   result equals freeing first and extrapolating with that entry at 0,
   and stays canonical. Under Extra-LU both sides must be negative; one
   negative side alone reads as 0. *)
let prop_negative_entry_frees =
  QCheck.Test.make ~name:"negative extrapolation entries free the clock"
    ~count:500 dbm_pair_arb (fun (n, a, _) ->
      let x = 1 + (Dbm.hash a land max_int) mod n in
      let k = Array.init (n + 1) (fun i -> i * 3 mod 7) in
      let neg = Array.copy k and zero = Array.copy k in
      neg.(x) <- -1;
      zero.(x) <- 0;
      let freed = Dbm.extrapolate (Dbm.free a x) zero in
      let m = Dbm.extrapolate a neg in
      let lu = Dbm.extrapolate_lu a ~lower:neg ~upper:neg in
      Dbm.equal m freed
      && is_canonical n m
      && Dbm.equal lu (Dbm.extrapolate_lu (Dbm.free a x) ~lower:zero ~upper:zero)
      && Dbm.equal
           (Dbm.extrapolate_lu a ~lower:neg ~upper:k)
           (Dbm.extrapolate_lu a ~lower:zero ~upper:k))

let prop_ops_preserve_canonical =
  QCheck.Test.make ~name:"up/reset/intersect preserve canonical form"
    ~count:500 dbm_pair_arb (fun (n, a, b) ->
      (* [constrain] each finite bound of [b] onto [a] in turn, and
         Extra-M with constants below and above the generator's range. *)
      let constrained = ref true and z = ref a in
      for i = 0 to n do
        for j = 0 to n do
          let bd = Dbm.get b i j in
          if i <> j && not (Bound.is_inf bd) then begin
            z := Dbm.constrain !z i j bd;
            constrained := !constrained && is_canonical n !z
          end
        done
      done;
      is_canonical n (Dbm.up a)
      && is_canonical n (Dbm.reset a 1 3)
      && is_canonical n (Dbm.intersect a b)
      && !constrained
      && is_canonical n (Dbm.extrapolate a (Array.init (n + 1) (fun i -> i)))
      && is_canonical n (Dbm.extrapolate a (Array.make (n + 1) 12)))

(* The sealing boundary: successor pipelines produce plain un-sealed
   DBMs; only [seal] yields a canon handle, and stores take canon at the
   type level — so the run-time checks here only guard the boundary's
   bookkeeping ([is_sealed], idempotence, fresh copies unsealing). *)
let test_seal_boundary () =
  let z = Dbm.constrain (Dbm.universal ~clocks:2) 1 0 (Bound.le 5) in
  check "pipeline output is unsealed" false (Dbm.is_sealed z);
  let c = Dbm.seal z in
  check "sealed handle" true (Dbm.is_sealed (c :> Dbm.t));
  check "seal is idempotent (pointer)" true (Dbm.seal (c :> Dbm.t) == c);
  check "ops on handles return fresh unsealed DBMs" false
    (Dbm.is_sealed (Dbm.up (c :> Dbm.t)))

(* LU-extrapolated exploration must reach the same reachability verdict
   as the classic k-extrapolated one on generated TA families; both are
   compared against the independent digital-clocks oracle. *)
let ta_family =
  match Gen.Oracle.family_of_name "ta-reach" with
  | Some f -> f
  | None -> assert false

let prop_lu_simulates_k_verdict =
  QCheck.Test.make
    ~name:"LU seal preserves the k-extrapolated reachability verdict"
    ~count:40
    (QCheck.make QCheck.Gen.(int_bound 10_000) ~print:string_of_int)
    (fun i ->
      let rng = Gen.Rng.(child (make 4242) i) in
      let case = Gen.Oracle.generate ta_family rng in
      match
        ( Gen.Oracle.check ~extrapolation:`K case,
          Gen.Oracle.check ~extrapolation:`Lu case )
      with
      | Gen.Oracle.Diverge m, _ ->
        QCheck.Test.fail_reportf "Extra-M diverged from digital: %s" m
      | _, Gen.Oracle.Diverge m ->
        QCheck.Test.fail_reportf "Extra-LU diverged from digital: %s" m
      | (Gen.Oracle.Agree | Gen.Oracle.Skip _),
        (Gen.Oracle.Agree | Gen.Oracle.Skip _) -> true)

(* [x1 ≻ c] over [clocks] clocks, every other clock unconstrained. *)
let lower_bound ~clocks b = Dbm.constrain (Dbm.universal ~clocks) 0 1 b

let test_signature () =
  (* 20 clocks leave 2-bit fields: x1 >= 0, > 0, >= 1 sign 3, 2, 1, and
     x1 > 1 is the saturation point, 0 like every tighter bound. *)
  let clocks = 20 in
  let field z = Dbm.signature z land 0b11 in
  let ge c = lower_bound ~clocks (Bound.le (-c)) in
  let gt c = lower_bound ~clocks (Bound.lt (-c)) in
  check_int "no lower bound is the top" 3 (field (Dbm.universal ~clocks));
  check_int "x1 > 0" 2 (field (gt 0));
  check_int "x1 >= 1" 1 (field (ge 1));
  check_int "x1 > 1 saturates" 0 (field (gt 1));
  check_int "x1 >= 2 stays saturated" 0 (field (ge 2));
  check "beyond saturation still passes the inclusion it needs" true
    (Dbm.subset (ge 2) (gt 1) && sig_le ~clocks (ge 2) (gt 1));
  check "saturated bounds no longer tell apart" true
    (sig_le ~clocks (gt 1) (ge 2) && not (Dbm.subset (gt 1) (ge 2)));
  check "below saturation rejects" false (sig_le ~clocks (ge 1) (gt 1));
  check_int "the empty zone signs as 0" 0 (Dbm.signature (Dbm.empty ~clocks));
  (* 31 clocks is the most with 1-bit fields; from 32 on there is no
     field left and the test always passes. *)
  let a = Dbm.universal ~clocks:31 and b = lower_bound ~clocks:31 (Bound.lt 0) in
  check "31 clocks: 1-bit fields reject" false (sig_le ~clocks:31 a b);
  check "31 clocks: and accept" true (sig_le ~clocks:31 b a);
  let a = Dbm.universal ~clocks:32 and b = lower_bound ~clocks:32 (Bound.lt 0) in
  check_int "32 clocks: no fields" 0 (Dbm.signature a);
  check_int "32 clocks: no guards" 0 (Dbm.sig_guards ~clocks:32);
  check "32 clocks: the test always passes" true
    (sig_le ~clocks:32 a b && not (Dbm.subset a b));
  (* A pair that differs only in row 0: x1 in [1, 5] against [2, 5]. *)
  let upto5 = Dbm.constrain (Dbm.universal ~clocks:2) 1 0 (Bound.le 5) in
  let from1 = Dbm.constrain upto5 0 1 (Bound.le (-1)) in
  let from2 = Dbm.constrain upto5 0 1 (Bound.le (-2)) in
  let a1 = Dbm.to_array from1 and a2 = Dbm.to_array from2 in
  let differ = List.filter (fun k -> a1.(k) <> a2.(k)) (List.init 9 Fun.id) in
  Alcotest.(check (list int)) "only x1's lower bound differs" [ 1 ] differ;
  check "row-0 difference rejected" false (sig_le ~clocks:2 from1 from2);
  check "the inclusion it mirrors passes" true
    (Dbm.subset from2 from1 && sig_le ~clocks:2 from2 from1)

(* Mutation coverage: the injectable DBM faults must be visible to the
   invariants this suite checks, otherwise the properties are too weak
   to defend them. *)
let test_fault_injection_observable () =
  Fun.protect
    ~finally:(fun () -> Dbm.inject_fault None)
    (fun () ->
      (* Broken_up stops time for the highest clock. *)
      Dbm.inject_fault (Some Dbm.Broken_up);
      let z = Dbm.up (Dbm.zero ~clocks:2) in
      check "broken up pins the last clock" false
        (Dbm.satisfies z [| 0.; 5.; 5. |]);
      (* Unclosed_intersect skips re-closure: x1<=5 /\ x2-x1<=3 must
         derive x2<=8, the broken version leaves it unconstrained. *)
      Dbm.inject_fault (Some Dbm.Unclosed_intersect);
      let a = Dbm.constrain (Dbm.universal ~clocks:2) 1 0 (Bound.le 5) in
      let b = Dbm.constrain (Dbm.universal ~clocks:2) 2 1 (Bound.le 3) in
      check "unclosed intersect is not canonical" false
        (is_canonical 2 (Dbm.intersect a b));
      Dbm.inject_fault None;
      check "restored intersect is canonical" true
        (is_canonical 2 (Dbm.intersect a b)))

(* ------------------------------------------------------------------ *)
(* Federation unit tests                                               *)
(* ------------------------------------------------------------------ *)

let test_fed_basic () =
  let u = Dbm.universal ~clocks:1 in
  let low = Dbm.constrain u 1 0 (Bound.lt 2) in
  let high = Dbm.constrain u 0 1 (Bound.le (-5)) in
  let f = Fed.add (Fed.of_dbm low) high in
  check_int "two members" 2 (Fed.size f);
  check "covers low" true (Fed.mem f [| 0.; 1. |]);
  check "covers high" true (Fed.mem f [| 0.; 6. |]);
  check "gap uncovered" false (Fed.mem f [| 0.; 3. |]);
  check "universal not within" false (Fed.dbm_subset u f);
  check "low within" true (Fed.dbm_subset low f)

let test_fed_cover () =
  let u = Dbm.universal ~clocks:1 in
  let left = Dbm.constrain u 1 0 (Bound.le 5) in
  let right = Dbm.constrain u 0 1 (Bound.le (-3)) in
  let f = Fed.add (Fed.of_dbm left) right in
  (* x<=5 union x>=3 covers everything. *)
  check "overlapping cover" true (Fed.dbm_subset u f)


(* Federation algebra on sampled valuations. *)
let fed_of_two a b = Fed.add (Fed.of_dbm a) b

let prop_fed_union_inter =
  QCheck.Test.make ~name:"federation union/inter agree with logic" ~count:200
    dbm_pair_arb (fun (_, a, b) ->
      let rng = rng_of_seed 31 in
      let u = Fed.union (Fed.of_dbm a) (Fed.of_dbm b) in
      let i = Fed.inter (fed_of_two a b) (Fed.of_dbm b) in
      let pts = samples_of rng a 8 @ samples_of rng b 8 in
      List.for_all
        (fun v ->
          Fed.mem u v = (Dbm.satisfies a v || Dbm.satisfies b v)
          && Fed.mem i v = ((Dbm.satisfies a v || Dbm.satisfies b v) && Dbm.satisfies b v))
        pts)

let prop_fed_diff =
  QCheck.Test.make ~name:"federation difference agrees with logic" ~count:200
    dbm_pair_arb (fun (_, a, b) ->
      let rng = rng_of_seed 37 in
      let d = Fed.diff (fed_of_two a b) (Fed.of_dbm b) in
      List.for_all
        (fun v ->
          Fed.mem d v = ((Dbm.satisfies a v || Dbm.satisfies b v) && not (Dbm.satisfies b v)))
        (samples_of rng a 10 @ samples_of rng b 5))

let prop_fed_subset_reflexive =
  QCheck.Test.make ~name:"dbm_subset reflexive and monotone" ~count:200
    dbm_pair_arb (fun (_, a, b) ->
      Fed.dbm_subset a (Fed.of_dbm a)
      && Fed.dbm_subset a (fed_of_two a b))

let () =
  let qtests =
    List.map QCheck_alcotest.to_alcotest
      [
        prop_sample_member;
        prop_intersect_sound;
        prop_subset_vs_subtract;
        prop_subtract_exact;
        prop_subtract_disjoint;
        prop_up_monotone;
        prop_down_contains;
        prop_reset_sound;
        prop_extrapolate_widens;
        prop_equal_hash;
        prop_roundtrip;
        prop_canonical_idempotent;
        prop_seal_phys_equal;
        prop_seal_idempotent;
        prop_lu_widens;
        prop_lu_simulates_k_verdict;
        prop_negative_entry_frees;
        prop_ops_preserve_canonical;
        prop_fed_union_inter;
        prop_fed_diff;
        prop_fed_subset_reflexive;
      ]
  in
  Alcotest.run "zones"
    [
      ( "bound",
        [
          Alcotest.test_case "order" `Quick test_bound_order;
          Alcotest.test_case "add" `Quick test_bound_add;
          Alcotest.test_case "negate" `Quick test_bound_negate;
          Alcotest.test_case "sat" `Quick test_bound_sat;
        ] );
      ( "dbm",
        [
          Alcotest.test_case "zero zone" `Quick test_zero_zone;
          Alcotest.test_case "up/down" `Quick test_up_down;
          Alcotest.test_case "constrain empties" `Quick test_constrain_empties;
          Alcotest.test_case "intersect/subset" `Quick test_intersect_subset;
          Alcotest.test_case "reset/copy/free" `Quick test_reset_copy_free;
          Alcotest.test_case "extrapolate" `Quick test_extrapolate_widen;
          Alcotest.test_case "seal boundary" `Quick test_seal_boundary;
          Alcotest.test_case "pretty-print" `Quick test_pp;
          Alcotest.test_case "row-0 signature" `Quick test_signature;
          Alcotest.test_case "fault injection observable" `Quick
            test_fault_injection_observable;
        ] );
      ( "fed",
        [
          Alcotest.test_case "basic" `Quick test_fed_basic;
          Alcotest.test_case "cover" `Quick test_fed_cover;
        ] );
      ("properties", qtests);
    ]
