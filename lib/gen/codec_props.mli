(** Codec round-trip properties over generator-produced models.

    For every reachable state of a random model, the packed encoding is
    checked for a lossless decode/encode round-trip, a hash that depends
    only on the field values (not the allocation), and a deterministic
    packer. These are the {!Engine.Codec} laws every backend's
    [codec]/[pack] pair relies on. *)

type outcome = {
  checked : int;  (** states checked across all models *)
  failures : string list;  (** human-readable property violations *)
}

(** One random timed-automata network: properties over its digital
    reachable states, via {!Discrete.Digital.codec}. *)
val check_ta : Rng.t -> outcome

(** One random MDP: properties over a single-field location codec of its
    state ids. *)
val check_mdp : Rng.t -> outcome

(** One random BIP system: properties over its reachable states, via
    {!Bip.Engine.codec}. *)
val check_bip : Rng.t -> outcome

(** [check_all ~seed ~cases] draws [cases] models per backend from one
    seeded stream and merges the outcomes. *)
val check_all : seed:int -> cases:int -> outcome
