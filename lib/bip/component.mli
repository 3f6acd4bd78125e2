(** BIP atomic components: Behaviour.

    An atomic component is an automaton over control locations with local
    integer variables; every transition is labelled by a {e port} — the
    component's interface — and may carry a guard and an update on the
    local store. (Internal steps are modelled by ports wired to singleton
    connectors, as in BIP.) *)

type port = { port_name : string; port_id : int }

type transition = {
  t_src : int;
  t_dst : int;
  t_port : int;  (** port id *)
  t_guard : int array -> bool;  (** over the local store *)
  t_has_guard : bool;
      (** whether a guard was supplied; guarded transitions are treated
          as possibly disabled by the compositional deadlock proof *)
  t_update : int array -> unit;  (** mutates a private copy *)
}

type t = {
  comp_name : string;
  locations : string array;
  ports : port array;
  transitions : transition list array;  (** outgoing, by location *)
  initial_loc : int;
  initial_store : int array;
  var_names : string array;
}

(** {1 Builder} *)

type builder

val create : string -> builder

val add_location : builder -> string -> int

val add_port : builder -> string -> port

val add_var : builder -> ?init:int -> string -> int
(** Returns the variable's index in the local store. *)

val add_transition :
  builder ->
  src:int ->
  dst:int ->
  port:port ->
  ?guard:(int array -> bool) ->
  ?update:(int array -> unit) ->
  unit ->
  unit

val set_initial : builder -> int -> unit

(** @raise Invalid_argument on empty/ill-formed components. *)
val build : builder -> t

(** {1 Queries} *)

(** [port_enabled c ~loc ~store p] — some transition from [loc] is
    labelled [p] with a true guard. Guards are evaluated in transition
    order up to the first true one. *)
val port_enabled : t -> loc:int -> store:int array -> int -> bool

(** [transitions_on c ~loc ~store p] — the enabled transitions on [p]. *)
val transitions_on : t -> loc:int -> store:int array -> int -> transition list

val loc_index : t -> string -> int
val port_by_name : t -> string -> port
