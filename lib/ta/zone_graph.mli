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
    singleton for internal edges, emitter then receiver(s) for channels. *)
type move = { mv_label : string; participants : (int * Model.edge) list }

(** [discrete_key st] is the discrete part of a state as plain arrays,
    for diagnostics and tests (stores key on {!pack}). *)
val discrete_key : state -> int array * int array

(** [codec net] compiles the network's discrete-state layout — one
    {!Engine.Codec.Loc} field per automaton, one word per store cell —
    into a packed codec spec. Build one per network, not per state. *)
val codec : Model.network -> Engine.Codec.spec

(** [pack spec st] encodes the discrete part of [st] with its memoized
    full-width hash. It does not intern: each call allocates a fresh
    packed value. *)
val pack : Engine.Codec.spec -> state -> Engine.Codec.packed

(** [initial net ~extra] is the initial symbolic state. [extra] is the
    extrapolation {!Dbm.seal} applies at the sealing boundary — usually
    {!Zones.Dbm.Extra_lu} from {!Prop.merge_lu} or {!Zones.Dbm.Extra_m}
    from the network's [max_consts] merged with the property's
    constants. *)
val initial : Model.network -> extra:Zones.Dbm.extrapolation -> state

(** [moves net locs store] enumerates data-enabled moves, respecting
    committed-location priority. Clock guards are {e not} checked here. *)
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
    and sealed: extrapolated, interned and carrying a memoized hash. *)
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
