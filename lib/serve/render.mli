(** Shared result rendering — the single home of the CLI's output
    formats.

    The daemon's replies carry pre-rendered text and the `client`
    subcommand prints it verbatim, so `quantcli client check` is
    byte-identical to one-shot `quantcli check` exactly when both sides
    render through these functions. Each returns one (or, for
    [--stats-json], one JSON) newline-terminated line. *)

(** The verdict line of one model-checking query:
    ["<name>  satisfied|VIOLATED  (<visited> states)"], or the
    [--stats-json] JSON object. *)
val query_line : stats_json:bool -> string -> Ta.Checker.result -> string

(** Graceful degradation under the state limit, [--mem-budget] or a
    deadline: the verdict slot reads [TRUNCATED] and the line reports
    the explored prefix. *)
val truncated_line :
  string ->
  Ta.Checker.stats ->
  reason:[ `Max_states | `Mem_budget | `Stop ] ->
  string

(** ["process <i>: p=... [...,...] (<n> runs)"] — `smc --model fischer`. *)
val smc_fischer_line : int -> Smc.Estimate.interval -> string

(** ["train <i>: <t>:<p> ..."] — the `smc --model train-gate` CDF row. *)
val smc_train_line : int -> (float * float) list -> string

(** The modes backend's observation line (`modes`, `brp --backend modes`). *)
val modes_line : Modest.Brp.modes_row -> string
