(** Backend-independent state predicates for MODEST models.

    One predicate language evaluated by all three backends: [mctau]
    (via the TA overapproximation), [mcpta] (on digital states) and
    [modes] (on simulation states). *)

type t =
  | P_true
  | P_loc of string * string  (** process name, location name *)
  | P_data of Ta.Expr.t
  | P_not of t
  | P_and of t * t
  | P_or of t * t

(** [compile sta p] resolves every process and location name of [p]
    once and returns its evaluator on raw discrete parts: [compile sta p
    locs store]. Evaluating allocates nothing.
    @raise Not_found when [p] names a process or location that [sta]
    lacks — at compile time, whether or not evaluation would reach the
    name. *)
val compile : Sta.t -> t -> int array -> int array -> bool

(** [to_ta_formula sta net p] translates for the TA overapproximation
    produced by {!Mctau.to_ta} (process indices = automaton indices). *)
val to_ta_formula : Sta.t -> Ta.Model.network -> t -> Ta.Prop.formula

val pp : Format.formatter -> t -> unit
