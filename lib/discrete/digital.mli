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

(** A labelled transition out of a digital state. [Delay] is one time
    unit; [Act] carries the move's label, participants, and whether every
    participating edge is controllable ([ctrl]). *)
type dtrans = {
  kind : [ `Delay | `Act of Ta.Zone_graph.move ];
  target : dstate;
  tr_ctrl : bool; (* Delay transitions report true *)
}

(** [is_closed net] — no strict clock comparison anywhere; digital-clock
    analyses require it. *)
val is_closed : Ta.Model.network -> bool

(** [initial net] is the all-zero digital state.
    @raise Invalid_argument when [net] is not closed. *)
val initial : Ta.Model.network -> dstate

(** [successors net st] lists the unit-delay transition (when permitted by
    invariants, urgency and committedness) and all enabled action
    transitions. *)
val successors : Ta.Model.network -> dstate -> dtrans list

(** [sat_constr ks v c] evaluates a clock constraint on a saturated
    integer valuation. *)
val sat_constr : int array -> int array -> Ta.Model.constr -> bool

(** Explicit finite graph over reachable digital states. States are
    indexed by their interned {!Engine.Codec} encoding; use {!id_of}
    for lookups. *)
type graph = {
  states : dstate array;
  index : int Engine.Codec.Tbl.t;
  pack : dstate -> Engine.Codec.packed;
  transitions : dtrans list array; (* by source state id *)
}

(** [codec net] is the packed codec of [net]'s digital states (locations
    and saturated clocks bit-packed, store cells one word each) and its
    interning packer. One spec per network. *)
val codec :
  Ta.Model.network ->
  Engine.Codec.spec * (dstate -> Engine.Codec.packed)

(** [id_of g st] is the node id of [st] in [g].
    @raise Not_found when [st] is not a state of [g]. *)
val id_of : graph -> dstate -> int

(** [explore net] builds the reachable graph, breadth-first on the shared
    {!Engine.Core} with a {!Engine.Store.discrete_keyed} store. With
    [jobs] the build is spread over the engine's shards
    ({!Engine.Core.with_jobs}, optionally over a caller-owned [pool]):
    the same graph is produced for every [jobs >= 1] — node numbering is
    the canonical sharded one, so it may differ from the sequential BFS
    numbering of a [jobs]-less build (graph consumers rebuild indices
    from the state array, so both numberings are valid).
    @raise Failure when [max_states] (default 2_000_000) is exceeded. *)
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
