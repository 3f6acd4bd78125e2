(** Digital-clocks (integer-time) semantics of timed-automata networks.

    For closed models (no strict comparisons) with integer constants,
    restricting clocks to integer values and unit delays preserves
    reachability, optimal costs and winning regions (Henzinger, Manna &
    Pnueli). Clock values saturate at one past their maximal relevant
    constant, keeping the state space finite.

    This is the substrate of the UPPAAL-CORA, UPPAAL-TIGA and ECDAR
    reproductions, and is cross-validated against the zone engine in the
    test suite. *)

type dstate = {
  dlocs : int array;
  dstore : int array;
  dclocks : int array; (* saturated at ks.(i) + 1 *)
}

(** What a transition does: [`Delay] is one time unit, [`Act] carries
    the move (its label and participants). *)
type kind = [ `Delay | `Act of Ta.Zone_graph.move ]

(** A labelled transition out of a digital state, with whether every
    participating edge is controllable ([tr_ctrl]). *)
type dtrans = {
  kind : kind;
  target : dstate;
  tr_ctrl : bool; (* Delay transitions report true *)
}

(** [is_closed net] — no strict clock comparison anywhere; digital-clock
    analyses require it. *)
val is_closed : Ta.Model.network -> bool

(** [initial net] is the all-zero digital state.
    @raise Invalid_argument when [net] is not closed, or when the
    all-zero valuation violates an initial location's invariant. *)
val initial : Ta.Model.network -> dstate

(** [successors net st] lists the unit-delay transition (when permitted by
    invariants, urgency and committedness) and then all enabled action
    transitions, in {!Ta.Zone_graph.moves} order. A target shares [st]'s
    store and clock arrays when the transition leaves them unchanged, and
    a delay with every clock saturated targets [st] itself; no state's
    arrays are ever mutated. *)
val successors : Ta.Model.network -> dstate -> dtrans list

(** [sat_constr ks v c] evaluates a clock constraint on a saturated
    integer valuation. *)
val sat_constr : int array -> int array -> Ta.Model.constr -> bool

(** Explicit finite graph over reachable digital states, ids [0 .. n-1]
    with id 0 the initial state. Edges name their targets by id and live
    in flat arrays indexed by edge: state [i]'s edges are
    [offsets.(i) .. offsets.(i + 1) - 1], in {!successors} order. *)
type graph = {
  states : dstate array;  (** by id; [states.(0)] is {!initial} *)
  offsets : int array;  (** length [n + 1]; [offsets.(n)] edges in all *)
  targets : int array;  (** target state id *)
  kinds : kind array;
  ctrls : bool array;  (** every participant controllable; delays [true] *)
}

(** [codec net] is the packed codec of [net]'s digital states (locations
    and saturated clocks bit-packed, store cells one word each) and its
    packer. One spec per network. *)
val codec :
  Ta.Model.network ->
  Engine.Codec.spec * (dstate -> Engine.Codec.packed)

(** [explore net] builds the reachable graph, breadth-first on the shared
    {!Engine.Core} with a {!Engine.Store.discrete_keyed} store. Edge
    targets are the ids the engine assigned while deduplicating, so no
    state is packed or looked up again afterwards. With [jobs] the build
    is spread over the engine's shards ({!Engine.Core.with_jobs},
    optionally over a caller-owned [pool]): the same graph is produced
    for every [jobs >= 1] — node numbering is the engine's canonical
    sharded one, so it may differ from the sequential BFS numbering of a
    [jobs]-less build. Under both numberings the initial state is id 0.
    @raise Failure when [max_states] (default 2_000_000) is exceeded.
    @raise Invalid_argument as {!initial} does. *)
val explore :
  ?max_states:int -> ?jobs:int -> ?pool:Par.Pool.t -> Ta.Model.network -> graph

(** [explore_stats net] is {!explore} and the engine's per-run
    instrumentation (visited, stored, peak frontier, wall-clock time). *)
val explore_stats :
  ?max_states:int ->
  ?jobs:int ->
  ?pool:Par.Pool.t ->
  Ta.Model.network ->
  graph * Engine.Stats.t

(** [discrete_parts g] is the set of reachable (locations, store) pairs,
    for cross-validation against the zone engine. *)
val discrete_parts : graph -> (int array * int array, unit) Hashtbl.t

val pp_dstate : Ta.Model.network -> Format.formatter -> dstate -> unit
