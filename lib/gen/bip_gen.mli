(** Random BIP systems (rendezvous glue, no data) for differential
    testing of the compositional deadlock proof.

    Specs are guard-free: every transition is unconditionally enabled,
    so {!Bip.Engine.reachable} is an exact oracle and the only sound
    claim {!Bip.Dfinder.prove} can make — [Proved] implies no reachable
    deadlock — is directly checkable. *)

type comp = {
  b_locs : int;
  b_ports : int;
  b_trans : (int * int * int) list;  (** (src, dst, port) *)
}

type spec = {
  b_comps : comp array;
  b_conns : (int * int) list list;
      (** each connector: a rendezvous over [(component, port)] members,
          one port per distinct component *)
}

(** One to three components. *)
val generate : Rng.t -> spec
val build : spec -> Bip.System.t
val shrinks : spec -> spec list
val to_json : spec -> Obs.Json.t

(** Self-contained OCaml literal (a [Quantlib.Gen.Bip_gen.spec]). *)
val to_ocaml : spec -> string
