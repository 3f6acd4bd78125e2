(** The quantd event loop: JSONL over a Unix-domain socket, served from
    a single-threaded [Unix.select] loop.

    One domain owns connection handling and runs the {!Service}
    handlers synchronously; the shared [Par] pool inside the handlers
    provides the parallelism. A read round collects every complete
    line across all ready connections and answers them in order
    through one {!Service.handle_batch} call.

    Lifecycle: binds (replacing a stale socket file), serves until
    SIGTERM/SIGINT, then drains — in-flight handlers observe the
    shutdown flag through their stop hooks, pending replies get a
    bounded flush window, the socket file is unlinked, the pool is shut
    down, and {!run} returns normally (exit 0 is the caller's).

    Robustness: non-blocking everywhere, EINTR-safe, SIGPIPE ignored
    (a vanished client costs its connection), unterminated frames over
    the JSON byte limit (8 MiB) answered with [bad_json] and a hangup,
    connections beyond [max_conns] closed at accept. *)

type config = {
  socket_path : string;
  jobs : int;  (** [Par] pool size shared by every request *)
  mem_budget_words : int option;
      (** registry cache budget {e and} per-exploration bound *)
  slow_ms : float option;  (** flight-capture threshold, see {!Service} *)
  slow_trace_dir : string option;
  max_conns : int;
}

(** ["quantd.sock"], 1 job, no budget, 128 connections. *)
val default_config : config

(** Serve until SIGTERM/SIGINT, then drain and return. Prints one
    "listening" line to stdout when ready (tests and scripts wait on
    it). *)
val run : ?config:config -> unit -> unit
