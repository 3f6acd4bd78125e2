(** Differential oracle pairs: for each model family, an optimized
    backend checked against an independent reference computation on the
    same generated case.

    - [Ta_reach]: zone-based reachability ({!Ta.Checker.check}) vs
      exhaustive digital-clocks exploration — exact on the closed,
      diagonal-free models {!Ta_gen} emits. The zone verdict under
      per-location clock bounds must also equal the one with every
      clock kept active ({!Ta.Model.keep_active}), the extrapolation
      agreement check.
    - [Priced]: {!Priced.min_cost_reach} (Dijkstra on a best-cost store)
      vs Bellman–Ford relaxation over the explicit digital graph.
    - [Mdp_vi]: value iteration vs exact backward induction (the
      generated MDPs are acyclic).
    - [Smc_ci]: a seeded Monte-Carlo estimate of a DTMC's reachability
      probability vs the exact value — the exact value must fall inside
      the Wilson 99% interval widened by a small slack.
    - [Bip_deadlock]: {!Bip.Dfinder.prove} must never claim [Proved]
      when exhaustive exploration ({!Bip.Engine.reachable}) finds a
      reachable deadlock.

    State-space truncation in either backend yields [Skip], never a
    spurious divergence. *)

type family = Ta_reach | Priced | Mdp_vi | Smc_ci | Bip_deadlock

val all_families : family list
val family_name : family -> string

(** Inverse of {!family_name}. *)
val family_of_name : string -> family option

type case =
  | Ta of Ta_gen.spec
  | Pr of Ta_gen.spec
  | Md of Mdp_gen.spec
  | Sm of Mdp_gen.spec
  | Bi of Bip_gen.spec

type verdict =
  | Agree
  | Skip of string  (** a backend hit its state cap — case inconclusive *)
  | Diverge of string  (** the backends disagree; message names both sides *)

(** [generate fam rng] draws a case sized for its family's oracle (the
    priced pair gets the smallest profile: two explorations per case). *)
val generate : family -> Rng.t -> case

val family_of_case : case -> family

(** [check case] runs both backends and compares. Truncation ([Failure])
    maps to [Skip]; any other backend exception is a divergence.
    [extrapolation] (default [`Lu]) selects the zone engine's seal-time
    abstraction for TA cases, so the digital oracle cross-checks the
    chosen extrapolation; other families ignore it.

    [jobs] (the harness pool size) routes TA cases through the sharded
    parallel engine on both sides — clamped to a poolless [jobs = 1]
    run, because oracle cases may already execute on a pool worker and
    pools must not nest. Verdicts are therefore invariant across
    harness pool sizes whether or not [jobs] is passed. *)
val check :
  ?extrapolation:Ta.Checker.extrapolation -> ?jobs:int -> case -> verdict

(** Single-step shrink candidates (delegates to the family generator). *)
val shrinks : case -> case list

val to_json : case -> Obs.Json.t

(** Self-contained OCaml repro: an expression of type
    [Quantlib.Gen.Oracle.case] suitable for [Oracle.check]. *)
val to_ocaml : case -> string

(** [packed_repr case] is the {!Engine.Codec.to_hex} fingerprint of the
    case's initial state under the codec its backends key their stores
    on — a compact, representation-stable anchor for a repro.
    ["unavailable"] when the model cannot be built. *)
val packed_repr : case -> string
