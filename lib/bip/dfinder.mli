(** D-Finder-lite: compositional deadlock-freedom proof (ref. [23]).

    The sound over-approximation combines:
    - {e component invariants}: per-component locally reachable locations
      (computed assuming every port is always available);
    - {e interaction invariants}: initially-marked traps of the 1-safe
      Petri net underlying the composition ("at least one place of every
      initially marked trap stays occupied") plus P-semiflows (linear
      place invariants computed by Martinez-Silva elimination).

    A global location vector is a {e deadlock candidate} when no
    interaction is {e surely} enabled there (guarded transitions and
    guarded interactions may be disabled, so they never count as sure).
    If no candidate satisfies all invariants, the system is proven
    deadlock-free without exploring the product. Otherwise the result is
    inconclusive and the caller should fall back to {!Exec.deadlock_free}.

    How a candidate is checked: the vectors over the component
    invariants are enumerated depth-first, component by component, each
    component's locations in ascending order. Three tables are built
    once per system, indexed by place (a component's location): the
    traps containing the place, each P-semiflow's weight on it, and the
    guard-free interactions one of whose participants has an unguarded
    transition on its port there. Entering a place on the way down adds
    it to per-trap hit counts, per-semiflow sums and per-interaction
    served-participant counts; leaving it on the way back subtracts it.
    Alongside, three counters track the traps with no hit, the
    semiflows off their initial value and the interactions with every
    participant served (surely enabled). A full vector is a surviving
    candidate exactly when all three counters are 0, so checking it is
    three reads and allocates nothing. *)

type verdict =
  | Proved  (** compositional proof succeeded *)
  | Inconclusive of int array list
      (** surviving candidate location vectors (possibly spurious) *)

type report = {
  verdict : verdict;
  n_traps : int;
  n_semiflows : int;
  n_candidates_checked : int;
}

(** [prove sys] runs the compositional analysis. [max_candidates]
    (default 1_000_000) bounds the candidate enumeration; exceeding it
    yields [Inconclusive []] with [n_candidates_checked =
    max_candidates + 1]. Survivors are listed in enumeration order.
    Timed under the span [bip.dfinder]. *)
val prove : ?max_candidates:int -> System.t -> report

(** [check sys] — compositional first, exact fallback: the combined,
    always-conclusive check. Returns (deadlock-free, used-fallback). *)
val check : ?max_candidates:int -> System.t -> bool * bool
