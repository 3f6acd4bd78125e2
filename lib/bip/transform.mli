(** Source-to-source transformation of BIP systems (the paper's ref. [24]
    direction: architecture is a first-class object that "can be analyzed
    and transformed").

    {!compile_priorities} eliminates the priority layer by strengthening
    every interaction's guard with "no inhibiting interaction is
    enabled" — including the implicit maximal-progress priorities of
    broadcasts, read from the system's maximality table
    ({!System.t.wider}). The result has no priorities and an empty
    maximality table (every row [[||]]; it replaces the former
    [broadcast_maximal = false]) but the same operational behaviour,
    which the test suite checks by trace and reachable-state
    equivalence. Flattening the glue
    like this is what allows distributed implementations (ref. [25]) to
    evaluate each interaction's readiness locally. *)

(** [compile_priorities sys] — semantics-preserving priority elimination. *)
val compile_priorities : System.t -> System.t
