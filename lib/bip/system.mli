(** BIP composite systems: Interaction and Priority — the two glue layers
    of Section IV.

    Connectors combine the two protocols the paper names: {e rendezvous}
    (strong symmetric synchronisation: all ports fire together) and
    {e broadcast} (a trigger port plus any subset of synchron ports, with
    larger subsets preferred through the automatic maximal-progress
    priority). Priorities filter among simultaneously enabled
    interactions and are the mechanism the execution controller (R2C)
    uses to steer the system. *)

(** A concrete interaction: one port per participating component, an
    optional global guard, and a data-transfer action executed on the
    participants' stores when the interaction fires. *)
type interaction = {
  i_name : string;
  i_ports : (int * Component.port) list;  (** (component index, port) *)
  i_guard : (int array -> int array array -> bool) option;
      (** receives the location vector and all local stores *)
  i_action : (int array array -> unit) option;
  i_id : int;
}

type connector =
  | Rendezvous of {
      c_name : string;
      members : (int * Component.port) list;
      guard : (int array -> int array array -> bool) option;
      action : (int array array -> unit) option;
    }
  | Broadcast of {
      c_name : string;
      trigger : int * Component.port;
      synchrons : (int * Component.port) list;
      action : (int array array -> unit) option;
    }

(** Priority rule: when both are enabled (and [when_] holds), [low] is
    inhibited by [high]. Interactions are referred to by name. *)
type priority = {
  low : string;
  high : string;
  when_ : (int array -> int array array -> bool) option;
}

type t = {
  components : Component.t array;
  interactions : interaction array;  (** entry [k] has [i_id = k] *)
  priorities : priority list;
  wider : int array array;
      (** the maximality table: [wider.(k)] lists, in ascending order,
          the ids of the interactions that have every port of
          interaction [k] and more ports than it. When [k] and one of
          these are both enabled, maximal progress inhibits [k] (BIP's
          preference for maximal broadcast subsets). A fixed relation
          of the system, built once by {!make}; the engine reads it on
          every step. An empty row means nothing inhibits [k] by
          maximality; every row is empty after
          {!Transform.compile_priorities}, which replaces the former
          [broadcast_maximal = false]. *)
}

(** [make ~components ~connectors ~priorities ()] elaborates connectors
    into concrete interactions (broadcasts enumerate their subsets,
    trigger-alone included) and builds the maximality table [wider].
    @raise Invalid_argument on bad component indices, duplicate
    interaction names, or priorities naming unknown interactions. *)
val make :
  components:Component.t array ->
  connectors:connector list ->
  ?priorities:priority list ->
  unit ->
  t

val interaction_by_name : t -> string -> interaction
