(** Blocking client for the quantd socket protocol — the transport
    behind `quantcli client`, the daemon tests and `bench serve`.

    One connection per {!t}; requests are numbered and replies id-checked.
    Structured server errors come back as [Error (code, message)];
    transport and framing failures raise {!Protocol_error}. *)

type t

exception Protocol_error of string

(** [connect path] — retries briefly (50 ms steps) while a freshly
    spawned daemon binds its socket.
    @raise Unix.Unix_error when the socket never appears. *)
val connect : ?retries:int -> string -> t

val close : t -> unit

(** [call t ~meth params] — one request, one reply. *)
val call :
  t ->
  meth:string ->
  ?deadline_ms:float ->
  (string * Obs.Json.t) list ->
  (Obs.Json.t, string * string) result

(** [call_many t [(meth, deadline_ms, params); ...]] — pipelined: every
    request leaves in a single write, so the daemon sees them in one
    read round; replies return in request order. *)
val call_many :
  t ->
  (string * float option * (string * Obs.Json.t) list) list ->
  (Obs.Json.t, string * string) result list

(** Send a raw line (malformed on purpose, for tests), return the raw
    reply line. *)
val call_raw : t -> string -> string
