(* quantd's event loop: a single-threaded [Unix.select] server over a
   Unix-domain stream socket. One domain owns every connection and runs
   the handlers; parallelism lives inside the handlers (the shared
   [Par] pool), not in the connection handling. *)

let m_conns = Obs.gauge "serve.connections"
let m_accepted = Obs.counter "serve.accepted"
let m_overload_closed = Obs.counter "serve.overload_closed"

type config = {
  socket_path : string;
  jobs : int;
  mem_budget_words : int option;
  slow_ms : float option;
  slow_trace_dir : string option;
  max_conns : int;
}

let default_config =
  {
    socket_path = "quantd.sock";
    jobs = 1;
    mem_budget_words = None;
    slow_ms = None;
    slow_trace_dir = None;
    max_conns = 128;
  }

(* The request frame cap: an unterminated line longer than the JSON
   parser would accept (8 MiB) can never become a legal request. *)
let max_line_bytes = Obs.Json.default_limits.Obs.Json.max_bytes

type conn = {
  fd : Unix.file_descr;
  mutable inbuf : string;  (* bytes read, no complete line yet *)
  mutable out : string;  (* reply bytes not yet written *)
  mutable closing : bool;  (* close once [out] drains *)
}

(* Split [s] into complete lines and the unterminated remainder; a
   trailing '\r' (telnet-style testing) is shaved per line. *)
let split_lines s =
  let rec go acc start =
    match String.index_from_opt s start '\n' with
    | None -> (List.rev acc, String.sub s start (String.length s - start))
    | Some i ->
      let stop = if i > start && s.[i - 1] = '\r' then i - 1 else i in
      go (String.sub s start (stop - start) :: acc) (i + 1)
  in
  go [] 0

let close_quietly fd = try Unix.close fd with Unix.Unix_error _ -> ()

let run ?(config = default_config) () =
  let stop = Atomic.make false in
  let old_term =
    Sys.signal Sys.sigterm (Sys.Signal_handle (fun _ -> Atomic.set stop true))
  in
  let old_int =
    Sys.signal Sys.sigint (Sys.Signal_handle (fun _ -> Atomic.set stop true))
  in
  let old_pipe = Sys.signal Sys.sigpipe Sys.Signal_ignore in
  let lfd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let registry =
    Registry.create ?mem_budget_words:config.mem_budget_words ()
  in
  let pool = Par.Pool.create ~jobs:config.jobs in
  let service =
    Service.create ~registry ~pool ?slow_ms:config.slow_ms
      ?slow_trace_dir:config.slow_trace_dir
      ~shutting_down:(fun () -> Atomic.get stop)
      ()
  in
  let conns : (Unix.file_descr, conn) Hashtbl.t = Hashtbl.create 16 in
  let drop c =
    Hashtbl.remove conns c.fd;
    close_quietly c.fd;
    Obs.Metrics.Gauge.set m_conns (float_of_int (Hashtbl.length conns))
  in
  let flush_conn c =
    if c.out <> "" then begin
      match
        Unix.write_substring c.fd c.out 0 (String.length c.out)
      with
      | n -> c.out <- String.sub c.out n (String.length c.out - n)
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
      | exception Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) ->
        drop c
    end
  in
  let cleanup () =
    Hashtbl.iter (fun _ c -> close_quietly c.fd) conns;
    Hashtbl.reset conns;
    close_quietly lfd;
    (try Unix.unlink config.socket_path with Unix.Unix_error _ -> ());
    Par.Pool.shutdown pool;
    Sys.set_signal Sys.sigterm old_term;
    Sys.set_signal Sys.sigint old_int;
    Sys.set_signal Sys.sigpipe old_pipe
  in
  Fun.protect ~finally:cleanup @@ fun () ->
  (try Unix.unlink config.socket_path
   with Unix.Unix_error (Unix.ENOENT, _, _) -> ());
  Unix.bind lfd (Unix.ADDR_UNIX config.socket_path);
  Unix.listen lfd 64;
  Unix.set_nonblock lfd;
  Printf.printf "quantd: listening on %s (pid %d, jobs %d)\n%!"
    config.socket_path (Unix.getpid ()) config.jobs;
  while not (Atomic.get stop) do
    let read_fds =
      lfd
      :: Hashtbl.fold (fun fd c acc -> if c.closing then acc else fd :: acc)
           conns []
    in
    let write_fds =
      Hashtbl.fold (fun fd c acc -> if c.out <> "" then fd :: acc else acc)
        conns []
    in
    match Unix.select read_fds write_fds [] 0.25 with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | readable, writable, _ ->
      (* Accept everything pending; over the connection cap, accept and
         close immediately so the client sees EOF, not a hang. *)
      if List.mem lfd readable then begin
        let rec accept_all () =
          match Unix.accept lfd with
          | fd, _ ->
            if Hashtbl.length conns >= config.max_conns then begin
              Obs.Metrics.Counter.incr m_overload_closed;
              close_quietly fd
            end
            else begin
              Unix.set_nonblock fd;
              Hashtbl.replace conns fd
                { fd; inbuf = ""; out = ""; closing = false };
              Obs.Metrics.Counter.incr m_accepted;
              Obs.Metrics.Gauge.set m_conns
                (float_of_int (Hashtbl.length conns))
            end;
            accept_all ()
          | exception
              Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
            ()
          | exception Unix.Unix_error (Unix.ECONNABORTED, _, _) ->
            accept_all ()
        in
        accept_all ()
      end;
      (* Read every ready connection and gather this round's complete
         request lines, in arrival order per connection. *)
      let round : (conn * string) list ref = ref [] in
      List.iter
        (fun fd ->
          if fd <> lfd then
            match Hashtbl.find_opt conns fd with
            | None -> ()
            | Some c -> (
              let chunk = Bytes.create 65536 in
              match Unix.read c.fd chunk 0 (Bytes.length chunk) with
              | 0 -> if c.out = "" then drop c else c.closing <- true
              | n ->
                c.inbuf <- c.inbuf ^ Bytes.sub_string chunk 0 n;
                let lines, rest = split_lines c.inbuf in
                c.inbuf <- rest;
                List.iter (fun l -> round := (c, l) :: !round) lines;
                (* An unterminated frame larger than any legal request
                   is a protocol violation: reply once, then hang up
                   after the write drains. *)
                if String.length c.inbuf > max_line_bytes then begin
                  c.inbuf <- "";
                  c.out <-
                    c.out
                    ^ Protocol.error_line ~id:Obs.Json.Null Protocol.Bad_json
                        (Printf.sprintf "frame exceeds %d bytes"
                           max_line_bytes)
                    ^ "\n";
                  c.closing <- true
                end
              | exception
                  Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
                ()
              | exception Unix.Unix_error (Unix.ECONNRESET, _, _) -> drop c))
        readable;
      let round = List.rev !round in
      if round <> [] then begin
        let replies = Service.handle_batch service (List.map snd round) in
        List.iter2
          (fun (c, _) reply ->
            if Hashtbl.mem conns c.fd then c.out <- c.out ^ reply ^ "\n")
          round replies
      end;
      (* Write what we can; writability info from before the handlers
         ran is stale but harmless (EAGAIN is tolerated above). *)
      List.iter
        (fun fd ->
          match Hashtbl.find_opt conns fd with
          | Some c -> flush_conn c
          | None -> ())
        writable;
      Hashtbl.iter
        (fun _ c -> if c.out <> "" && not (List.mem c.fd writable) then flush_conn c)
        conns;
      let doomed =
        Hashtbl.fold
          (fun _ c acc -> if c.closing && c.out = "" then c :: acc else acc)
          conns []
      in
      List.iter drop doomed
  done;
  (* Graceful drain: stop accepting, give pending replies (including
     shutting_down errors issued mid-round) a bounded window to flush. *)
  let deadline = Unix.gettimeofday () +. 5.0 in
  let pending () =
    Hashtbl.fold (fun _ c acc -> acc || c.out <> "") conns false
  in
  while pending () && Unix.gettimeofday () < deadline do
    let write_fds =
      Hashtbl.fold (fun fd c acc -> if c.out <> "" then fd :: acc else acc)
        conns []
    in
    match Unix.select [] write_fds [] 0.2 with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | _, writable, _ ->
      List.iter
        (fun fd ->
          match Hashtbl.find_opt conns fd with
          | Some c -> flush_conn c
          | None -> ())
        writable
  done;
  Printf.printf "quantd: drained, shutting down\n%!"
