(** The named-model table the CLI and the daemon share.

    [quantcli check]/[smc] and the daemon's [check]/[smc] methods both
    resolve the model name, its standard query list and its SMC query
    here — the only way the two paths can stay byte-identical is for
    neither to own them. *)

(** A model's standard SMC query at size [n]: one {!Smc.Batch} item per
    process or train, sampled together with {!Smc.Batch.hitting_times},
    and the reduction of their hitting times to the reply. *)
type smc = {
  items : n:int -> runs:int -> seed:int -> Ta.Model.network -> Smc.Batch.item list;
      (** item [i] samples with seed [seed + i] *)
  reply : runs:int -> float option array list -> string * (string * Obs.Json.t) list;
      (** the reply text, one {!Render} line per item, and any further
          reply fields *)
}

type spec = {
  name : string;
  default_n : int;  (** scaling parameter when the request omits [n] *)
  make : int -> Ta.Model.network;  (** compile at size [n] *)
  queries : Ta.Model.network -> (string * Ta.Prop.query) list;
      (** the model's standard queries, in reporting order *)
  smc : smc;
}

val fischer : spec
val train_gate : spec
val all : spec list
val find : string -> spec option

(** ["fischer|train-gate"] — for error messages. *)
val known : string
