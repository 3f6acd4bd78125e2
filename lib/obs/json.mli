(** Escaping-correct JSON building and parsing.

    Every JSON string the tools emit (engine stats, bench entries,
    [--stats-json], run reports, trace events) goes through this builder,
    so a model or query name containing a quote or a newline can never
    produce invalid output. The parser exists for round-trip tests and
    smoke validation; it accepts exactly the standard grammar (no
    comments, no trailing commas). *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float  (** non-finite values print as [null] *)
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

val to_string : t -> string
val to_buffer : Buffer.t -> t -> unit

(** [to_file path j] writes [j] and a newline to [path], replacing it. *)
val to_file : string -> t -> unit

(** [member key j] — field lookup, [None] on missing key or non-object. *)
val member : string -> t -> t option

(** Numeric coercion: [Int] and [Float] both answer. *)
val to_float_opt : t -> float option

exception Parse_error of string

(** @raise Parse_error on malformed input. *)
val parse : string -> t

(** Resource bounds for input from outside the process: [max_bytes] caps
    the frame size (checked before scanning), [max_depth] the object /
    array nesting (which also bounds the parser's recursion). *)
type limits = { max_bytes : int; max_depth : int }

(** 8 MiB, depth 128 — generous for any legitimate protocol frame. *)
val default_limits : limits

(** [parse_untrusted s] — like {!parse} under [limits], but {e total}:
    malformed, truncated, oversized and over-nested input all come back
    as [Error msg]; no exception escapes. This is the only parser the
    serving layer may apply to socket input. *)
val parse_untrusted : ?limits:limits -> string -> (t, string) result
