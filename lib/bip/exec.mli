(** The centralized BIP execution engine and reachability analysis.

    Each step: compute enabled interactions (port-enabled on every
    participant, interaction guard true), filter by priorities and by
    broadcast maximal progress, let the scheduler choose one, execute its
    data transfer and the participants' transitions. This is the
    operational semantics behind BIP's "correct code for component
    coordination".

    Maximal progress is read from the system's maximality table
    ({!System.t.wider}, built once by {!System.make}; it replaces the
    former [broadcast_maximal] flag): an enabled interaction is
    inhibited when an interaction of its row is enabled too. *)

type state = { locs : int array; stores : int array array }

(** Scheduler policy for the remaining nondeterminism. *)
type scheduler =
  | First  (** deterministic: lowest interaction id *)
  | Random of Random.State.t

val initial : System.t -> state

(** [enabled sys st] — guard-true, port-enabled interactions,
    {e before} priority filtering. *)
val enabled : System.t -> state -> System.interaction list

(** [filtered sys st] — after priority rules and broadcast maximality,
    in id order. The enabled ids are marked in an array, so maximality
    costs one lookup per entry of each enabled interaction's row. *)
val filtered : System.t -> state -> System.interaction list

(** [step sys sched st] fires one interaction, or [None] on deadlock. *)
val step :
  System.t -> scheduler -> state -> (System.interaction * state) option

(** [run sys sched ~steps] — labelled trace from the initial state
    (stops early on deadlock). Timed under the span [bip.run]. *)
val run :
  System.t -> scheduler -> steps:int -> (string * state) list

type reach_result = {
  states : state list;
  deadlocks : state list;
  truncated : bool;
}

(** [codec sys] is the packed codec of [sys]'s states — one location
    field per component, one word per local variable — and its packer.
    One spec per system. *)
val codec :
  System.t -> Engine.Codec.spec * (state -> Engine.Codec.packed)

(** [reachable sys] — exhaustive breadth-first exploration on the shared
    engine ({!Engine.Core.run_sharded}, one shard), keyed on the packed
    encoding. [states] are in discovery order (the initial state
    first); [deadlocks] are the expanded states with no enabled
    interaction, in expansion order.

    Truncation: with [max_states = k] (default 1_000_000) the run stops
    once more than [k] states have been admitted, so a truncated result
    holds [k < |states| <= k + f] states, where [f] is the successor
    count of the last state expanded. The states admitted but not
    expanded are in [states], but [deadlocks] covers only the expanded
    ones. *)
val reachable : ?max_states:int -> System.t -> reach_result

(** [invariant_holds sys pred] — exact check over the reachable graph;
    returns a counterexample state when violated. *)
val invariant_holds :
  ?max_states:int -> System.t -> (state -> bool) -> (bool * state option)

(** [deadlock_free sys] — exact check; counterexample on failure. *)
val deadlock_free : ?max_states:int -> System.t -> bool * state option

val pp_state : System.t -> Format.formatter -> state -> unit
