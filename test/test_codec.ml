(* Tests for the packed state codec: bit layout, round-trips, domain
   validation, the full-width hash (vs. the polymorphic hash's ~10-word
   truncation), interning, and the generator-driven round-trip
   properties over TA / MDP / BIP states. *)

module Codec = Engine.Codec

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_arr = Alcotest.(check (array int))

(* ------------------------------------------------------------------ *)
(* Layout                                                              *)
(* ------------------------------------------------------------------ *)

let test_packing_widths () =
  (* 31 two-bit fields = 62 bits exactly: one word. Adding one more
     opens a second word. *)
  let narrow n =
    Codec.spec
      (List.init n (fun i ->
           Codec.Bounded { name = Printf.sprintf "f%d" i; lo = 0; hi = 3 }))
  in
  check_int "31 x 2 bits fit one word" 1 (Codec.n_words (narrow 31));
  check_int "32 x 2 bits need two words" 2 (Codec.n_words (narrow 32));
  (* Word fields are unpacked: one word each, never shared. *)
  let s = Codec.spec [ Codec.Bool "b"; Codec.Word "w"; Codec.Bool "c" ] in
  check_int "bool, word, bool -> three words" 3 (Codec.n_words s)

let test_singleton_fields () =
  (* Zero-bit fields occupy no payload but still round-trip their
     (forced) value — including after a Word field, where the packer's
     cursor word does not exist. *)
  let s =
    Codec.spec
      [
        Codec.Word "w";
        Codec.Bounded { name = "t"; lo = -1; hi = -1 };
        Codec.Bounded { name = "u"; lo = 7; hi = 7 };
      ]
  in
  check_int "only the word is stored" 1 (Codec.n_words s);
  let p = Codec.encode s (fun i -> [| 42; -1; 7 |].(i)) in
  check_arr "singletons decode to their forced value" [| 42; -1; 7 |]
    (Codec.decode s p)

let test_empty_domains_rejected () =
  let raises f = try ignore (f ()); false with Invalid_argument _ -> true in
  check "empty range" true
    (raises (fun () ->
         Codec.spec [ Codec.Bounded { name = "x"; lo = 1; hi = 0 } ]));
  check "empty locations" true
    (raises (fun () -> Codec.spec [ Codec.Loc { name = "a"; count = 0 } ]));
  check "empty enum" true
    (raises (fun () -> Codec.spec [ Codec.Enum { name = "e"; symbols = [||] } ]))

let test_roundtrip_mixed () =
  let s =
    Codec.spec
      [
        Codec.Bool "flag";
        Codec.Bounded { name = "temp"; lo = -10; hi = 10 };
        Codec.Loc { name = "proc"; count = 5 };
        Codec.Enum { name = "mode"; symbols = [| "idle"; "busy"; "done" |] };
        Codec.Word "cost";
      ]
  in
  let vals = [| 1; -7; 4; 2; -123456789 |] in
  let p = Codec.encode s (fun i -> vals.(i)) in
  check_arr "mixed fields round-trip" vals (Codec.decode s p);
  check "negative word preserved" true ((Codec.decode s p).(4) = -123456789)

let test_bounds_checked () =
  let s = Codec.spec [ Codec.Loc { name = "loc"; count = 3 } ] in
  let msg =
    try ignore (Codec.encode s (fun _ -> 3)); "no-exn"
    with Invalid_argument m -> m
  in
  check "error names the field" true
    (Astring.String.is_infix ~affix:"loc" msg)

(* ------------------------------------------------------------------ *)
(* Hashing: full-width vs. polymorphic truncation                      *)
(* ------------------------------------------------------------------ *)

let test_poly_hash_truncates_codec_does_not () =
  (* Two discrete states, >10 words long, differing only deep in the
     store — past the polymorphic hash's traversal budget. [Hashtbl.hash]
     collides (every such pair lands in one bucket chain); the codec's
     full-width hash separates them. This is the concrete failure mode
     the packed stores exist to avoid. *)
  let locs = [| 1; 2 |] in
  let store_a = Array.init 30 (fun i -> i) in
  let store_b = Array.copy store_a in
  store_b.(25) <- 999;
  let key_a = (locs, store_a) and key_b = (locs, store_b) in
  check "states differ" false (key_a = key_b);
  check_int "polymorphic hash collides past ~10 words"
    (Hashtbl.hash key_a) (Hashtbl.hash key_b);
  let s =
    Codec.spec
      (Codec.Loc { name = "p"; count = 4 }
       :: Codec.Loc { name = "q"; count = 4 }
       :: List.init 30 (fun i -> Codec.Word (Printf.sprintf "store[%d]" i)))
  in
  let pack (ls, st) =
    Codec.encode s (fun i -> if i < 2 then (ls : int array).(i) else st.(i - 2))
  in
  let pa = pack key_a and pb = pack key_b in
  check "codec hash separates them" false (Codec.hash pa = Codec.hash pb);
  check "codec equality agrees" false (Codec.equal pa pb)

let test_hash_memoized_and_stable () =
  let s = Codec.spec [ Codec.Word "a"; Codec.Word "b" ] in
  let p = Codec.encode s (fun i -> i * 17) in
  let q = Codec.encode s (fun i -> i * 17) in
  check "distinct allocations" false (p == q);
  check_int "same value, same hash" (Codec.hash p) (Codec.hash q);
  check "equal" true (Codec.equal p q)

(* ------------------------------------------------------------------ *)
(* The packed hashtable and fingerprints                               *)
(* ------------------------------------------------------------------ *)

let test_tbl () =
  let s = Codec.spec [ Codec.Word "v" ] in
  let key n = Codec.encode s (fun _ -> n) in
  let tbl = Codec.Tbl.create 16 in
  for i = 0 to 99 do
    Codec.Tbl.replace tbl (key i) (i * i)
  done;
  check_int "all bound" 100 (Codec.Tbl.length tbl);
  (* Lookups go through the memoized hash and structural equality, so a
     fresh encoding of the same value finds the binding. *)
  check_int "fresh key hits" 49 (Codec.Tbl.find tbl (key 7))

let test_to_hex () =
  let s = Codec.spec [ Codec.Word "a"; Codec.Word "b" ] in
  let p = Codec.encode s (fun i -> if i = 0 then 255 else 16) in
  let hex = Codec.to_hex p in
  check "hex shows the words" true
    (Astring.String.is_prefix ~affix:"[ff 10] h=" hex)

(* ------------------------------------------------------------------ *)
(* Generator-driven round-trip properties                              *)
(* ------------------------------------------------------------------ *)

let report (o : Gen.Codec_props.outcome) =
  List.iter (fun m -> Printf.eprintf "codec property failure: %s\n" m)
    o.failures;
  check "states were exercised" true (o.checked > 0);
  check_int "no property failures" 0 (List.length o.failures)

let test_props_ta () = report (Gen.Codec_props.check_ta (Gen.Rng.make 7))
let test_props_mdp () = report (Gen.Codec_props.check_mdp (Gen.Rng.make 7))
let test_props_bip () = report (Gen.Codec_props.check_bip (Gen.Rng.make 7))

let test_props_sweep () =
  report (Gen.Codec_props.check_all ~seed:42 ~cases:5)

let () =
  Alcotest.run "codec"
    [
      ( "layout",
        [
          Alcotest.test_case "packing widths" `Quick test_packing_widths;
          Alcotest.test_case "singleton fields" `Quick test_singleton_fields;
          Alcotest.test_case "empty domains" `Quick test_empty_domains_rejected;
          Alcotest.test_case "mixed roundtrip" `Quick test_roundtrip_mixed;
          Alcotest.test_case "bounds checked" `Quick test_bounds_checked;
        ] );
      ( "hash",
        [
          Alcotest.test_case "poly truncation vs full-width" `Quick
            test_poly_hash_truncates_codec_does_not;
          Alcotest.test_case "memoized + stable" `Quick
            test_hash_memoized_and_stable;
        ] );
      ( "intern",
        [
          Alcotest.test_case "packed hashtable" `Quick test_tbl;
          Alcotest.test_case "hex fingerprint" `Quick test_to_hex;
        ] );
      ( "properties",
        [
          Alcotest.test_case "ta states" `Quick test_props_ta;
          Alcotest.test_case "mdp states" `Quick test_props_mdp;
          Alcotest.test_case "bip states" `Quick test_props_bip;
          Alcotest.test_case "seeded sweep" `Quick test_props_sweep;
        ] );
    ]
