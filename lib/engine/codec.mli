(** Packed state codecs: one compact representation of a discrete state
    for every backend.

    A backend describes its discrete state as a vector of typed {e fields}
    (booleans, bounded integers, location indices, enum symbols, raw
    words); the codec compiles that spec into a fixed bit layout over an
    immutable [int array] and derives from it:

    - [encode]/[decode] between field values and the packed words;
    - a {e full-width} memoized hash mixing every word. The stdlib's
      polymorphic [Hashtbl.hash] inspects only the first ~10 meaningful
      words of a value, so large discrete vectors degenerate into
      collision chains; the codec hash has no such truncation and is
      computed once, at encode time;
    - O(words) equality with a pointer fast path.

    Packed states are not interned: the exploration stores keep one
    copy of each key, so a pool would only probe a second table per
    successor. A symbolic state is a packed discrete part next to a
    sealed zone ({!Zones.Dbm.seal}).

    Narrow fields are bit-packed: consecutive fields share a word until
    its 62 usable bits run out, and a field whose domain is a single
    value occupies zero bits. [Word] fields are stored unpacked, one
    word each, and may hold any [int] (including negatives). *)

type field =
  | Bool of string
  | Bounded of { name : string; lo : int; hi : int }
      (** inclusive range; [lo = hi] occupies zero bits *)
  | Loc of { name : string; count : int }  (** location index in [0, count) *)
  | Enum of { name : string; symbols : string array }
      (** symbol index in [0, length symbols) *)
  | Word of string  (** arbitrary [int], stored unpacked *)

(** A compiled layout. Compiling is cheap but not free — build one spec
    per model, not per state.
    @raise Invalid_argument on an empty range or a non-positive count. *)
type spec

val spec : field list -> spec

val n_fields : spec -> int

(** Packed words per state. *)
val n_words : spec -> int

val field_name : spec -> int -> string

(** A packed state: the packed words plus the memoized full-width hash,
    fused into one immutable heap block (one allocation per {!encode}).
    Two packed values from the same spec are [equal] iff every field
    value is equal. *)
type packed

(** [encode spec read] packs the state whose [i]-th field value is
    [read i] ([Bool] fields read 0 or 1).
    @raise Invalid_argument when a value falls outside its field's
    domain (the message names the field). *)
val encode : spec -> (int -> int) -> packed

(** [encode_pair spec xs ys] is
    [encode spec (fun i -> if i < n then xs.(i) else ys.(i - n))] for
    [n = Array.length xs] — the common "locations then variables" state
    shape, specialised so the per-candidate hot loop makes no
    per-field closure call.
    @raise Invalid_argument when [length xs + length ys] is not the
    spec's field count, or a value falls outside its field's domain. *)
val encode_pair : spec -> int array -> int array -> packed

(** [decode spec p] is the field-value vector of [p] (inverse of
    {!encode} — [decode spec (encode spec read) = Array.init n read]). *)
val decode : spec -> packed -> int array

val equal : packed -> packed -> bool
val hash : packed -> int  (** memoized; O(1) *)

(** [mix_hash a b] folds hash [b] into hash [a] with the codec's
    splitmix word mixer (result clamped non-negative). Used to fuse a
    packed discrete hash with a sealed zone's memoized hash into one
    store-key hash. *)
val mix_hash : int -> int -> int

(** Approximate heap footprint of one packed state, in words, including
    headers. *)
val heap_words : spec -> int

(** [to_hex p] renders the words and hash compactly
    (["[w0 w1 ...] h=H"], all lowercase hex) — a representation-stable
    fingerprint for logs and fuzz repros. *)
val to_hex : packed -> string

(** Hashtable over packed keys; [hash] is the memoized one, so probes
    never rescan the words. *)
module Tbl : Hashtbl.S with type key = packed
