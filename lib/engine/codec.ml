type field =
  | Bool of string
  | Bounded of { name : string; lo : int; hi : int }
  | Loc of { name : string; count : int }
  | Enum of { name : string; symbols : string array }
  | Word of string

(* One int block per packed state: slot 0 holds the memoized full-width
   hash, slots 1..nw the packed words. A single allocation per encode,
   and a table probe reads the hash and the words off the same block. *)
type packed = int array

(* A compiled field: which word it lives in, where, and how the stored
   offset maps back to the value. [bits = word_bits] marks an unpacked
   [Word] field (raw value, may be negative). *)
type slot = { word : int; shift : int; bits : int; base : int }

(* Usable bits per packed word. 62 keeps every packed chunk (and the
   whole word) a non-negative OCaml int, sidestepping sign-extension on
   the 63-bit native int. *)
let word_bits = 62

module PackedKey = struct
  type t = packed

  (* Slot 0 is the hash, so comparing from index 0 settles almost every
     mismatch on the first cell. *)
  let equal a b =
    a == b
    || (let n = Array.length a in
        n = Array.length b
        &&
        let rec eq i = i >= n || (a.(i) = b.(i) && eq (i + 1)) in
        eq 0)

  let hash (p : packed) = p.(0)
end

type spec = {
  fields : field array;
  slots : slot array;
  hi_off : int array;
      (* per field: [hi - lo] of its domain, [-1] for raw [Word] fields —
         lets [encode] range-check without re-deriving the domain (and
         its allocations) on every call *)
  nw : int;
}

let field_name_of = function
  | Bool n | Word n -> n
  | Bounded { name; _ } | Loc { name; _ } | Enum { name; _ } -> name

(* Inclusive domain of a field, [None] for full words. *)
let range f =
  match f with
  | Bool _ -> Some (0, 1)
  | Bounded { name; lo; hi } ->
    if lo > hi then
      invalid_arg (Printf.sprintf "Codec: empty range for field %S" name);
    Some (lo, hi)
  | Loc { name; count } ->
    if count <= 0 then
      invalid_arg (Printf.sprintf "Codec: empty location set for field %S" name);
    Some (0, count - 1)
  | Enum { name; symbols } ->
    if Array.length symbols = 0 then
      invalid_arg (Printf.sprintf "Codec: empty enum for field %S" name);
    Some (0, Array.length symbols - 1)
  | Word _ -> None

let bits_for card =
  (* Smallest [w] with [2^w >= card]; 0 when the domain is a singleton. *)
  let rec go w = if 1 lsl w >= card then w else go (w + 1) in
  go 0

let spec fields =
  let fields = Array.of_list fields in
  let slots = Array.make (Array.length fields) { word = 0; shift = 0; bits = 0; base = 0 } in
  (* Greedy first-fit: narrow fields fill the current word left to
     right; a field that does not fit opens the next word; [Word]
     fields always take a whole fresh word. *)
  let w = ref 0 and b = ref 0 in
  Array.iteri
    (fun i f ->
      match range f with
      | None ->
        if !b > 0 then incr w;
        slots.(i) <- { word = !w; shift = 0; bits = word_bits; base = 0 };
        incr w;
        b := 0
      | Some (lo, hi) ->
        let bits = bits_for (hi - lo + 1) in
        if bits = 0 then
          (* Singleton domain: no payload. Park the slot on word 0 (which
             always exists) instead of the cursor word, which may never
             be allocated. *)
          slots.(i) <- { word = 0; shift = 0; bits = 0; base = lo }
        else begin
          if !b + bits > word_bits then begin
            incr w;
            b := 0
          end;
          slots.(i) <- { word = !w; shift = !b; bits; base = lo };
          b := !b + bits
        end)
    fields;
  let nw = if !b > 0 then !w + 1 else !w in
  let hi_off =
    Array.map
      (fun f -> match range f with None -> -1 | Some (lo, hi) -> hi - lo)
      fields
  in
  { fields; slots; hi_off; nw = max nw 1 }

let n_fields s = Array.length s.fields
let n_words s = s.nw
let field_name s i = field_name_of s.fields.(i)

(* Splitmix-style mixer over every word — no truncation, unlike the
   polymorphic [Hashtbl.hash] which stops after ~10 meaningful words.
   The multiplier fits the 63-bit native int; arithmetic wraps mod 2^63,
   which is exactly what a multiplicative mixer wants. *)
let mix h x =
  let h = h lxor x in
  let h = h * 0x2545F4914F6CDD1D in
  h lxor (h lsr 29)

(* Fill slot 0 of [p] with the hash of slots 1..n (the packed words). *)
let seal_hash (p : packed) =
  let n = Array.length p - 1 in
  let h = ref (mix 0x9E3779B9 n) in
  for i = 1 to n do
    h := mix !h p.(i)
  done;
  p.(0) <- !h land max_int;
  p

let out_of_range s i v =
  invalid_arg
    (Printf.sprintf "Codec.encode: value %d out of range for field %S" v
       (field_name s i))

(* Hot path: called once per candidate state during exploration, so no
   per-field allocation — the domain checks run off the precompiled
   [hi_off] array instead of re-deriving each field's range. *)
let encode s read =
  let p = Array.make (s.nw + 1) 0 in
  for i = 0 to Array.length s.fields - 1 do
    let v = read i in
    let sl = s.slots.(i) in
    let off = s.hi_off.(i) in
    if off < 0 then p.(sl.word + 1) <- v
    else begin
      let d = v - sl.base in
      if d < 0 || d > off then out_of_range s i v;
      p.(sl.word + 1) <- p.(sl.word + 1) lor (d lsl sl.shift)
    end
  done;
  seal_hash p

(* [encode_pair s xs ys] = [encode s read] where [read] takes field [i]
   from [xs] while [i < length xs] and from [ys] past it — the common
   "locations then variables" shape, specialised so the hot loop makes
   no per-field closure call. *)
let encode_pair s xs ys =
  let p = Array.make (s.nw + 1) 0 in
  let nx = Array.length xs in
  if nx + Array.length ys <> Array.length s.fields then
    invalid_arg "Codec.encode_pair: field count mismatch";
  for i = 0 to Array.length s.fields - 1 do
    let v = if i < nx then Array.unsafe_get xs i else Array.unsafe_get ys (i - nx) in
    let sl = s.slots.(i) in
    let off = s.hi_off.(i) in
    if off < 0 then p.(sl.word + 1) <- v
    else begin
      let d = v - sl.base in
      if d < 0 || d > off then out_of_range s i v;
      p.(sl.word + 1) <- p.(sl.word + 1) lor (d lsl sl.shift)
    end
  done;
  seal_hash p

let decode s (p : packed) =
  Array.mapi
    (fun i f ->
      let sl = s.slots.(i) in
      match range f with
      | None -> p.(sl.word + 1)
      | Some _ ->
        ((p.(sl.word + 1) lsr sl.shift) land ((1 lsl sl.bits) - 1)) + sl.base)
    s.fields

let equal = PackedKey.equal
let hash = PackedKey.hash
let mix_hash a b = mix a b land max_int

(* One block: header, hash slot, and the packed words. *)
let heap_words s = 2 + s.nw

let to_hex (p : packed) =
  let buf = Buffer.create (16 * Array.length p) in
  Buffer.add_char buf '[';
  for i = 1 to Array.length p - 1 do
    if i > 1 then Buffer.add_char buf ' ';
    Buffer.add_string buf (Printf.sprintf "%x" p.(i))
  done;
  Buffer.add_string buf (Printf.sprintf "] h=%x" p.(0));
  Buffer.contents buf

module Tbl = Hashtbl.Make (PackedKey)
