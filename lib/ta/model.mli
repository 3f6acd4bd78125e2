(** Networks of timed automata, UPPAAL-style.

    A network is a parallel composition of automata communicating by
    binary channel synchronisation ([a!]/[a?]) and broadcast channels,
    over shared discrete variables ({!Store}) and a common set of clocks.
    Locations may be urgent or committed; invariants and guards are
    conjunctions of clock(-difference) constraints plus a data guard.

    Models are constructed through the builder API below, which assigns
    indices, validates the model, and computes the per-clock maximal
    constants and the per-location clock bounds used for zone
    extrapolation. *)

type clock = int
(** Clock index, [1..n]. Index 0 is the DBM reference clock. *)

type chan_kind = Binary | Broadcast

type chan = { chan_id : int; chan_name : string; kind : chan_kind; urgent : bool }

(** Edge synchronisation: emit ([c!]), receive ([c?]), or internal. *)
type sync = Emit of chan | Receive of chan | Tau

(** Atomic clock constraint [x_ci - x_cj ≺ cb]. *)
type constr = { ci : int; cj : int; cb : Zones.Bound.t }

(** Edge effects, applied in list order. [Prim] is an escape hatch for
    data code that is awkward as expressions (e.g. the FIFO shift of
    Fig. 1(c)); the function mutates a private copy of the store. *)
type update =
  | Assign of Expr.lvalue * Expr.t
  | Reset of clock * int
  | Prim of string * (int array -> unit)

type loc_kind = Normal | Urgent | Committed

type location = { loc_name : string; kind : loc_kind; invariant : constr list }

type edge = {
  src : int;
  dst : int;
  data_guard : Expr.t option;
  clock_guard : constr list;
  sync : sync;
  updates : update list;
  ctrl : bool; (* controllable edge (timed games); plain TA edges are true *)
}

type automaton = {
  auto_name : string;
  locations : location array;
  out : edge list array; (* outgoing edges, indexed by source location *)
  initial : int;
}

(** A move: the (component, edge) pairs that fire together — a
    singleton for internal edges, emitter then receiver(s) for channels —
    and its label, the participants' label fragments joined by single
    spaces (re-exported as {!Zone_graph.move}). *)
type move = { mv_label : string; participants : (int * edge) list }

(** An edge as the sync index files it: its participant pair [part],
    its label fragment [frag] ([Comp.src->dst], plus [[c!]] or [[c?]]
    for a synchronising edge), and [alone], the move of the edge firing
    by itself (label [frag], participants [[part]]).

    On a binary channel [c] the index also prebuilds every pair move. A
    receiving edge's [rid] is its position among all receiving edges on
    [c], ordered by component, then location, then out-list. An
    emitting edge's [pairs.(e2.rid)] is its move with receiving edge
    [e2]: label [frag ^ " " ^ e2.frag], participants [[part; e2.part]].
    A slot whose receiver is in the emitter's own component holds a
    placeholder that is never read. Elsewhere [rid] is [-1] and [pairs]
    is [[||]]. *)
type synced_edge = {
  part : int * edge;
  frag : string;
  alone : move;
  rid : int;
  pairs : move array;
}

(** One location's out-edges by sync, each list in out-list order:
    internal edges, and emitting / receiving edges by [chan_id]. *)
type loc_syncs = {
  taus : synced_edge list;
  emits : synced_edge list array;
  recvs : synced_edge list array;
}

(** Per-network successor index, built once by {!build} and {!union}:
    [by_loc.(a).(l)] groups the out-edges of location [l] of component
    [a]; [emitters.(c)] / [receivers.(c)] list, ascending, the components
    with an edge emitting / receiving on channel [c] anywhere;
    [urgent_chans] holds the urgent channels' ids, ascending.

    The binary pair tables hold Σ_c (emitting edges on c) × (receiving
    edges on c) slots over the binary channels: 25 on the 5-train
    train-gate, 80 on the 16-train one, 0 on Fischer. The index is
    immutable once {!build} or {!union} returns, so pool domains may
    read it concurrently. *)
type sync_index = {
  by_loc : loc_syncs array array;
  emitters : int array array;
  receivers : int array array;
  urgent_chans : int list;
}

(** Where a clock's extrapolation bounds come from: the static guard
    analysis of Behrmann, Bouyer, Fleury & Larsen ("Static Guard
    Analysis in Timed Automata Verification", TACAS 2003), with lower
    and upper bounds apart as in Behrmann, Bouyer, Larsen & Pelánek
    (TACAS 2004).

    A clock that exactly one component mentions in its invariants,
    guards or resets is [Owned] by it. [lower.(l)] / [upper.(l)] are its
    bounds at location [l] of the owner: the larger of the constants on
    it in [l]'s invariant and out-guards (taken as {!lu_bounds} takes
    them) and its bounds at the target of every out-edge that does not
    reset it. A reset to [v > 0] feeds [v] at the edge's target where
    the clock is active. [-1] on both sides means the clock is inactive
    at [l]: it is reset before any further test, so {!Zone_graph} frees
    it there. A clock that several components mention, or none, is
    [Global]: it keeps the network-wide bound everywhere. *)
type clock_scope =
  | Global
  | Owned of { owner : int; lower : int array; upper : int array }

type network = {
  automata : automaton array;
  n_clocks : int;
  clock_names : string array; (* length n_clocks + 1; entry 0 unused *)
  channels : chan array; (* entry [i] has [chan_id = i] *)
  layout : Store.layout;
  max_consts : int array; (* per clock, for extrapolation *)
  syncs : sync_index; (* derived from [automata] and [channels] *)
  scopes : clock_scope array;
      (* per clock, entry 0 unused; derived from [automata] by {!build}
         and {!union}, immutable once built *)
}

(** {1 Constraint helpers} *)

val clock_le : clock -> int -> constr
val clock_lt : clock -> int -> constr
val clock_ge : clock -> int -> constr
val clock_gt : clock -> int -> constr

(** [diff_le x y c] is [x - y <= c]. *)
val diff_le : clock -> clock -> int -> constr

val diff_lt : clock -> clock -> int -> constr

(** {1 Builder} *)

type builder
type auto_builder

val builder : unit -> builder

(** [fresh_clock b name] allocates a clock. *)
val fresh_clock : builder -> string -> clock

(** [channel b name] declares a channel (default binary, non-urgent). *)
val channel : builder -> ?kind:chan_kind -> ?urgent:bool -> string -> chan

(** [store b] is the embedded variable-layout builder. *)
val store : builder -> Store.builder

(** [automaton b name] starts a component. The first declared location is
    initial unless {!set_initial} overrides it. *)
val automaton : builder -> string -> auto_builder

(** [location ab name] declares a location and returns its index. *)
val location :
  auto_builder -> ?kind:loc_kind -> ?invariant:constr list -> string -> int

val set_initial : auto_builder -> int -> unit

(** [edge ab ~src ~dst ()] adds an edge. [guard] is the data guard,
    [clock_guard] the conjunction of clock constraints. [ctrl] (default
    true) marks the edge controllable; timed games ({!Games}) treat
    [ctrl:false] edges as environment moves, plain analyses ignore it. *)
val edge :
  auto_builder ->
  src:int ->
  dst:int ->
  ?guard:Expr.t ->
  ?clock_guard:constr list ->
  ?sync:sync ->
  ?updates:update list ->
  ?ctrl:bool ->
  unit ->
  unit

(** [build b] freezes and validates the network.
    @raise Invalid_argument on malformed models (bad clock indices, a
    channel id outside the declared channels, broadcast receivers or
    urgent-channel edges with clock guards, no locations in a
    component). *)
val build : builder -> network

(** [union a b] — parallel composition of two independently built
    networks: components, clocks and variables are concatenated (b's
    clock indices and store offsets shift); channels merge by name, so
    the two halves synchronise on their shared channels. The sync index
    and the clock scopes are recomputed on the merged components.
    @raise Invalid_argument on duplicate component or variable names,
    channels declared with different kinds, or [Prim] updates in [b]
    (their closures capture old store offsets). *)
val union : network -> network -> network

(** [lu_bounds net] computes per-clock lower/upper guard constants
    [(lower, upper)] for Extra-LU extrapolation by scanning invariants,
    guards and resets: a constraint [x_i - x_j ≺ k] bounds [x_i] from
    above and [x_j] from below. Entry 0 of both arrays is unused. The
    scan is on demand so composed ({!union}) and observer-extended
    networks need no extra bookkeeping. *)
val lu_bounds : network -> int array * int array

(** [keep_active net clocks] is [net] with each of [clocks] made
    [Global], so that it keeps the network-wide bound at every location
    and is never freed. The checker applies it to the clocks a query
    formula mentions, and to every clock for liveness. [net] itself
    comes back when none of [clocks] is owned. *)
val keep_active : network -> clock list -> network

(** {1 Lookup and printing} *)

(** [auto_index net name] finds a component by name.
    @raise Not_found if absent. *)
val auto_index : network -> string -> int

(** [loc_index net a name] finds a location of component [a] by name.
    @raise Not_found if absent. *)
val loc_index : network -> int -> string -> int

(** [loc_name net a l] is the printable name of location [l] of [a]. *)
val loc_name : network -> int -> int -> string

val pp_constr : clock_names:string array -> Format.formatter -> constr -> unit
val pp_sync : Format.formatter -> sync -> unit
