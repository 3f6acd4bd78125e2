(** Timed-game solving and controller synthesis — the UPPAAL-TIGA
    reproduction (Figs. 2–3 of the paper).

    Edges marked [ctrl:false] belong to the environment; a move is
    controllable only if every participating edge is. The game is solved
    on the digital-clocks graph with the conservative turn-based
    abstraction documented in DESIGN.md: a state is winning when every
    uncontrollable move stays winning {e and} the controller owns a
    winning move (an action or the unit delay). Reachability uses the
    attractor (least fixpoint), safety the largest fixpoint. Synthesized
    strategies are memoryless over digital states and can be re-verified
    by {!closed_loop_safe} / {!closed_loop_reaches}. *)

module Digital = Discrete.Digital

type objective =
  | Safety of (Digital.dstate -> bool)  (** stay inside the safe set *)
  | Reach of (Digital.dstate -> bool)  (** force reaching the target *)

type action = [ `Delay | `Move of Ta.Zone_graph.move ]

type solution = {
  graph : Digital.graph;
  winning : bool array;  (** indexed by state id of [graph] *)
  strategy : (int, action) Hashtbl.t;
      (** state id -> controller's choice; absent = wait for environment.
          A [`Move mv] is physically the move of one of the state's edges
          in [graph.kinds]. *)
  initial_winning : bool;  (** [winning.(0)]: id 0 is the initial state *)
}

(** [solve net objective] explores the digital graph and computes the
    winning region and a strategy on it. The fixpoints walk flat
    predecessor arrays, one per edge class (uncontrollable action,
    controllable action, delay), meeting each state's predecessors in
    descending source id and edge order. For reachability the first
    controllable action or delay met into a winning state is the
    strategy's choice; for safety it is the last controllable action
    into the kept set in edge order, else the delay when kept.
    @raise Invalid_argument if the model is not closed/diagonal-free, or
    its initial state violates an invariant. *)
val solve : ?max_states:int -> Ta.Model.network -> objective -> solution

(** [winning_count s] — number of winning states (strategy size proxy). *)
val winning_count : solution -> int

(** [closed_loop_safe s ~safe] re-verifies that under the synthesized
    strategy all reachable states satisfy [safe] — the environment moves
    freely, the controller plays only its strategy choice (plus delay
    when it has no choice recorded). *)
val closed_loop_safe : solution -> safe:(Digital.dstate -> bool) -> bool

(** [closed_loop_reaches s ~target] re-verifies that every closed-loop
    run from the initial state reaches [target] (no cycle or sink avoids
    it). *)
val closed_loop_reaches : solution -> target:(Digital.dstate -> bool) -> bool

(** {1 The train game of Figs. 2–3} *)

module Train_game : sig
  (** [make ~n_trains ()] builds the timed game: trains whose [appr],
      cross and [leave] moves are uncontrollable, plus the unconstrained
      single-location controller of Fig. 3 whose [stop!]/[go!] edges are
      the controllable moves. [constants] selects the paper's timing
      constants (default) or a [`Compact] set that preserves the game
      structure with a much smaller digital graph (used for scaling). *)
  val make :
    ?constants:[ `Paper | `Compact ] -> n_trains:int -> unit -> Ta.Model.network

  (** [safe net st] — at most one train in Cross. *)
  val safe : Ta.Model.network -> Digital.dstate -> bool

  (** [all_crossed_once net st] — every train has completed a crossing
      (used as a reachability objective). *)
  val all_crossed_once : Ta.Model.network -> Digital.dstate -> bool
end
