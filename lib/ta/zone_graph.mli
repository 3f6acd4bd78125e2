(** Symbolic (zone-based) semantics of timed-automata networks.

    A symbolic state pairs a discrete part — location vector and variable
    store — with a canonical DBM zone, closed under delay where allowed.
    This module enumerates the structurally enabled moves of a state
    (synchronisation resolution, committed-location filtering) and
    computes symbolic successors with extrapolation. *)

type state = {
  locs : int array;
  store : int array;
  zone : Zones.Dbm.canon;  (** sealed: extrapolated, interned, hash memoized *)
}

(** A move: the set of (component, edge) pairs that fire together — a
    singleton for internal edges, emitter then receiver(s) for channels —
    labelled with the participants' fragments joined by single spaces,
    e.g. [Train0.Safe->Appr[appr0!] Gate.Free->Occ[appr0?]]. *)
type move = Model.move = {
  mv_label : string;
  participants : (int * Model.edge) list;
}

(** [discrete_key st] is the discrete part of a state as plain arrays,
    for diagnostics and tests (stores key on {!pack}). *)
val discrete_key : state -> int array * int array

(** [codec net] compiles the network's discrete-state layout — one
    {!Engine.Codec.Loc} field per automaton, one word per store cell —
    into a packed codec spec. Build one per network, not per state. *)
val codec : Model.network -> Engine.Codec.spec

(** [pack spec st] encodes the discrete part of [st] with its memoized
    full-width hash. Each call allocates a fresh packed value. *)
val pack : Engine.Codec.spec -> state -> Engine.Codec.packed

(** [initial net ~extra] is the initial symbolic state. [extra] is the
    extrapolation {!Dbm.seal} applies at the sealing boundary — usually
    {!Zones.Dbm.Extra_lu} from {!Prop.merge_lu} or {!Zones.Dbm.Extra_m}
    from the network's [max_consts] merged with the property's
    constants.

    Every state is sealed under [extra] narrowed to its own location
    vector, from the network's {!Model.clock_scope}s: an [Owned] clock
    takes its owner's bounds at the vector's location, never above
    [extra]'s entry (under [Extra_m], the larger of its lower and upper
    bound there), so a clock inactive there is freed. [Global] clocks
    keep [extra]'s entries, and [No_extrapolation] stays exact. On a
    network whose clocks are all [Global] ({!Model.keep_active}) the
    states are those of [extra] itself. *)
val initial : Model.network -> extra:Zones.Dbm.extrapolation -> state

(** [moves net locs store] enumerates data-enabled moves, respecting
    committed-location priority. Clock guards are {e not} checked here.
    It reads the network's {!Model.sync_index}. The order is part of the
    contract (it fixes exploration order, hence witnesses): internal
    moves by component, then channels by id, emitters ascending,
    receivers ascending, each component's edges in out-list order. A
    receiver's data guard is evaluated only once some emitter on its
    channel is enabled.

    Internal and binary moves are the index's prebuilt records, shared
    by every state that fires them; only the list is allocated.
    Broadcast moves are built fresh per call, since their receiver sets
    vary. So [==] identifies a move only within one call's list, where
    no record occurs twice; across states it says only that the same
    edges fire. *)
val moves : Model.network -> int array -> int array -> move list

(** [delay_allowed net locs store] is false in committed/urgent locations
    and when an urgent-channel synchronisation is data-enabled. *)
val delay_allowed : Model.network -> int array -> int array -> bool

(** [move_enabling_zone net locs store mv] is the exact zone of valuations
    from which [mv] can fire {e right now}: source invariants ∧ guards ∧
    weakest precondition of the target invariants under the move's clock
    resets. Empty if the move can never fire. *)
val move_enabling_zone :
  Model.network -> int array -> int array -> move -> Zones.Dbm.t

(** [apply_move net ~extra st mv] is the symbolic successor, or [None]
    when the clock guards or target invariants make the move impossible
    from [st.zone]. The result is delay-closed (unless urgent/committed)
    and sealed under the target vector's bounds (see {!initial}):
    extrapolated, interned and carrying a memoized hash. A move that
    leaves [st.zone] untouched, into a committed target say, still has
    its zone extrapolated again where the target's bounds differ from
    the source's. *)
val apply_move :
  Model.network -> extra:Zones.Dbm.extrapolation -> state -> move -> state option

(** [successors net ~extra st] is the list of labelled symbolic successors. *)
val successors :
  Model.network -> extra:Zones.Dbm.extrapolation -> state -> (string * state) list

(** [invariant_constrs net locs] is the conjunction of all location
    invariants of the vector. *)
val invariant_constrs : Model.network -> int array -> Model.constr list

(** [constrain_all z cs] conjoins a constraint list onto a zone. *)
val constrain_all : Zones.Dbm.t -> Model.constr list -> Zones.Dbm.t

(** [pp_state net ppf st] prints locations, store and zone. *)
val pp_state : Model.network -> Format.formatter -> state -> unit
