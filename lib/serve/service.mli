(** Request dispatch: one parsed JSONL line in, one reply line out.

    Methods: [ping], [metrics] (an {!Obs.Report} snapshot plus the
    registry's cache shape), [check] (a named model's standard queries,
    text rendered through {!Render} for byte-identity with the one-shot
    CLI), [smc], [modes] and [fuzz] (which rejects fault injection —
    process-global mutation has no place in a shared server).

    {b One request, one handler.} Every request line is answered by
    one handler call; [check], [smc], [modes] and [fuzz] answer a
    repeated request from the registry's reply cache. {!handle_batch}
    maps the lines one daemon read round produced over that dispatch,
    all with the round's start time, so deadlines and [uptime_s] count
    from the start of the round. An [smc] request samples its per-train
    items as one {!Smc.Batch} range on the shared pool, under its own
    deadline.

    {b Failure containment.} Every handler runs guarded: malformed
    params, truncated explorations (the state limit, [deadline_ms],
    [--mem-budget], SIGTERM) and unexpected exceptions each map to a structured error
    reply ({!Protocol.error_code}) — no request can take the process
    down. Long explorations poll a stop hook once per visited state, so
    deadlines and shutdown interrupt mid-query.

    Instrumented: [serve.requests], [serve.errors],
    [serve.deadline_expired], [serve.slow_captures], and the
    [serve.request_wall_s] histogram. With [slow_ms] and an enabled
    flight recorder, a request slower than the threshold dumps the
    recorder's timeline as a Chrome trace into [slow_trace_dir]. *)

type t

val create :
  registry:Registry.t ->
  pool:Par.Pool.t ->
  ?slow_ms:float ->
  ?slow_trace_dir:string ->
  ?shutting_down:(unit -> bool) ->
  unit ->
  t

(** [handle_batch t lines] — replies in request order, one per line. *)
val handle_batch : t -> string list -> string list

(** One line on its own: a one-line round. *)
val handle_line : t -> string -> string
