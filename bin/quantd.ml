(* quantd — the long-running analysis daemon.

   Serves check/smc/modes/fuzz/metrics queries as JSONL over a
   Unix-domain socket (see Serve.Protocol), keeping compiled models and
   replies cached between requests (see Serve.Registry). Talk to it
   with `quantcli client --socket ...`.

   Exit codes: 0 graceful shutdown (SIGTERM/SIGINT), 2 usage,
   3 internal/startup failure (cmdliner's own parse errors keep its 124). *)

open Quantlib
open Cmdliner

let socket_arg =
  Arg.(
    value
    & opt string "quantd.sock"
    & info [ "socket" ] ~docv:"PATH"
        ~doc:"Unix-domain socket path to listen on (created at startup, \
              unlinked on shutdown; a stale file is replaced).")

let jobs_arg =
  let env = Cmd.Env.info "QUANTLIB_JOBS" ~doc:"Default value for $(b,--jobs)." in
  Arg.(
    value & opt int 1
    & info [ "jobs" ] ~docv:"N" ~env
        ~doc:
          "Worker domains of the shared Monte-Carlo pool (1 = sequential). \
           Query results are identical for every value of $(docv).")

let mem_budget_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "mem-budget" ] ~docv:"MB"
        ~doc:
          "Retained-heap budget in megabytes. Bounds the caches (LRU \
           eviction: replies, then models) and every exploration (a \
           query over budget degrades into a structured \
           resource_exhausted reply instead of an OOM kill).")

let slow_ms_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "slow-ms" ] ~docv:"MS"
        ~doc:
          "Capture the flight-recorder timeline of any request slower than \
           $(docv) milliseconds as a Chrome trace (enables the recorder).")

let slow_dir_arg =
  Arg.(
    value & opt string "."
    & info [ "slow-trace-dir" ] ~docv:"DIR"
        ~doc:"Directory for $(b,--slow-ms) capture files (slow-<n>-<method>.json).")

let max_conns_arg =
  Arg.(
    value & opt int 128
    & info [ "max-conns" ] ~docv:"N" ~doc:"Concurrent connection cap.")

let run socket jobs mem_budget_mb slow_ms slow_dir max_conns =
  if jobs < 1 then begin
    prerr_endline "quantd: --jobs must be >= 1";
    exit 2
  end;
  (match mem_budget_mb with
   | Some mb when mb < 1 ->
     prerr_endline "quantd: --mem-budget must be >= 1 (megabytes)";
     exit 2
   | _ -> ());
  if max_conns < 1 then begin
    prerr_endline "quantd: --max-conns must be >= 1";
    exit 2
  end;
  if slow_ms <> None then Obs.Flight.enable ();
  let config =
    {
      Serve.Daemon.socket_path = socket;
      jobs;
      mem_budget_words =
        Option.map (fun mb -> mb * 1024 * 1024 / 8) mem_budget_mb;
      slow_ms;
      slow_trace_dir = Some slow_dir;
      max_conns;
    }
  in
  match Serve.Daemon.run ~config () with
  | () -> ()
  | exception Unix.Unix_error (e, fn, arg) ->
    Printf.eprintf "quantd: %s: %s (%s)\n" fn (Unix.error_message e) arg;
    exit 3
  | exception e ->
    Printf.eprintf "quantd: internal error: %s\n" (Printexc.to_string e);
    exit 3

let () =
  let doc = "Long-running quantitative-analysis service (JSONL over a Unix socket)." in
  let info = Cmd.info "quantd" ~version:"1.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.v info
          Term.(
            const run $ socket_arg $ jobs_arg $ mem_budget_arg $ slow_ms_arg
            $ slow_dir_arg $ max_conns_arg)))
