(** Append-only node arena: contiguous ids, amortized O(1) growth.

    The exploration core keeps one node per stored state here; ids double
    as state identifiers for parent links, trace reconstruction and the
    graph views handed back to analyses. *)

type 'a t

val create : unit -> 'a t
val size : 'a t -> int

(** [add t x] appends [x] and returns its id ([size] before the call). *)
val add : 'a t -> 'a -> int

(** @raise Invalid_argument on an out-of-range id. *)
val get : 'a t -> int -> 'a

val iteri : (int -> 'a -> unit) -> 'a t -> unit
