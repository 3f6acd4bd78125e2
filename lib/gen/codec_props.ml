(* Codec round-trip properties over generator-produced models.

   For every reachable state of a random model we check, on its packed
   encoding [p]:

   - decode/encode round-trip: [encode (decode p) = p] — the bit layout
     loses nothing, in either direction;
   - hash stability: re-encoding the decoded field vector into a fresh
     words array yields the same memoized hash (the hash is a function
     of the value, not the allocation);
   - pack determinism: packing the same state twice yields equal packed
     values (value equality: packed states are not interned). *)

module Codec = Engine.Codec

type outcome = { checked : int; failures : string list }

let ok = { checked = 0; failures = [] }

let merge a b =
  { checked = a.checked + b.checked; failures = a.failures @ b.failures }

(* The shared per-state check: [p] and [q] are two packings of one
   state. *)
let check_packed spec ~tag p q =
  let fail fmt = Printf.ksprintf (fun m -> Some (tag ^ ": " ^ m)) fmt in
  let vs = Codec.decode spec p in
  let p2 = Codec.encode spec (fun i -> vs.(i)) in
  if not (Codec.equal p p2) then
    fail "encode (decode p) <> p  (p = %s, re-encoded %s)" (Codec.to_hex p)
      (Codec.to_hex p2)
  else if Codec.hash p <> Codec.hash p2 then
    fail "hash not a function of the value: %x vs %x" (Codec.hash p)
      (Codec.hash p2)
  else if Codec.decode spec p2 <> vs then fail "decode (encode vs) <> vs"
  else if not (Codec.equal p q) then
    fail "pack not deterministic (%s vs %s)" (Codec.to_hex p) (Codec.to_hex q)
  else None

let fold_states spec ~tag states pack =
  List.fold_left
    (fun acc st ->
      let failure = check_packed spec ~tag (pack st) (pack st) in
      {
        checked = acc.checked + 1;
        failures =
          (match failure with
           | None -> acc.failures
           | Some m -> m :: acc.failures);
      })
    ok states

let max_states = 5_000

let check_ta rng =
  let spec = Ta_gen.generate rng in
  let net = Ta_gen.build spec in
  let g = Discrete.Digital.explore ~max_states net in
  let cspec, pack = Discrete.Digital.codec net in
  fold_states cspec ~tag:"ta" (Array.to_list g.Discrete.Digital.states) pack

let check_mdp rng =
  let spec = Mdp_gen.generate rng in
  let m = Mdp_gen.build spec in
  let n = Mdp.n_states m in
  let cspec = Codec.spec [ Codec.Loc { name = "state"; count = n } ] in
  fold_states cspec ~tag:"mdp"
    (List.init n (fun i -> i))
    (fun i -> Codec.encode cspec (fun _ -> i))

let check_bip rng =
  let spec = Bip_gen.generate rng in
  let sys = Bip_gen.build spec in
  let cspec, pack = Bip.Engine.codec sys in
  let r = Bip.Engine.reachable ~max_states sys in
  fold_states cspec ~tag:"bip" r.Bip.Engine.states pack

let check_all ~seed ~cases =
  let rng = Rng.make seed in
  let one _ =
    merge (check_ta rng) (merge (check_mdp rng) (check_bip rng))
  in
  List.fold_left
    (fun acc i -> merge acc (one i))
    ok
    (List.init cases (fun i -> i))
